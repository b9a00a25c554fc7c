"""One pass of a workload in a fresh interpreter.

Usage: python3 -I -S bench/worker.py ROOT WORKLOAD SEED PASS MODE

MODE is ``setup`` (stop once the request list is ready), ``run`` (send
every request, untraced, with the host-speed sampler of ``hostspeed.py``
running) or ``trace`` (the same with the tracer installed instead of the
sampler).  The requests go one at a time to ``extschur.cli.main`` with
stdout and stderr captured; each call is timed from outside and its output
checked before the next is sent.  Each request's call start, call end and
check end are recorded, so the calls and checks of a pass cover its wall
time.  The last line of stdout is one JSON object describing the pass.
Times are ``time.perf_counter`` readings, which on Linux share one
monotonic clock across processes.
"""

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

clock = time.perf_counter


def main(argv: list[str]) -> int:
    root, workload, seed, pass_index, mode = argv
    seed, pass_index = int(seed), int(pass_index)
    # -I -S leaves only the standard library on the path, so the package
    # can come from nowhere but this checkout's src/.
    sys.path[:0] = [f"{root}/src", f"{root}/bench"]

    import extschur.cli
    import workloads

    requests = workloads.build_requests(workload, seed, pass_index)
    ready = clock()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    reference = workloads.load_reference()
    tracer = sampler = None
    if mode == "run":
        from hostspeed import Sampler

        sampler = Sampler()
    elif mode == "trace":
        from tracing import LAYERS, Tracer

        tracer = Tracer()
        tracer.install()
    cli = extschur.cli  # looked up per call, so installed wrappers are used

    timings = []  # [request key, call start, call end, check end] in the order sent
    failures = []
    output_bytes = 0
    if sampler is not None:
        sampler.install()
    first = clock()
    for index, request in enumerate(requests):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = index
        with redirect_stdout(out), redirect_stderr(err):
            start = clock()
            try:
                code = cli.main(request)
            except Exception as exc:  # a crash is a failed request, not a failed pass
                code = f"raised {exc!r}"
            end = clock()
        text = out.getvalue()
        output_bytes += len(text.encode("utf-8"))
        key = workloads.request_key(request)
        problem = workloads.check(request, code, text, reference)
        if problem is not None:
            failures.append({"request": key, "problem": problem})
        timings.append([key, start, end, clock()])
    last = clock()
    if sampler is not None:
        sampler.stop()

    result = {
        "ready": ready,
        "wall_s": last - first,
        "timings": timings,
        "samples": sampler.samples if sampler is not None else [],
        "attempted": len(requests),
        "failures": failures,
        "output_bytes": output_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layer = tracer.metrics()
        layer["cli.output_bytes"] = output_bytes
        layer["trace.wall_s"] = last - first
        layer["trace.unattributed_s"] = (last - first) - sum(
            layer[f"{name}.self_s"] for name in LAYERS
        )
        result["layer"] = layer
        path = Path(root) / ".bench_build" / "traces" / f"{workload}-seed{seed}-pass{pass_index}.json"
        tracer.write(path)
        result["trace_file"] = str(path.relative_to(root))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
