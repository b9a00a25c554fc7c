"""Benchmark of the extschur CLI.

Usage:
    python3 bench/run.py --workload {expand,analyze,verify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nothing is installed.  One client sends one request at a
time and waits for the answer (a closed loop, one process, no threads).

A run is a sequence of passes.  Each pass is a fresh interpreter
(``worker.py``) that imports ``extschur``, builds the workload's request
list from the seed and the pass number, and sends every request once, so
no cache outlives a pass and no input repeats within one.  Passes start
while the next one is expected to finish within ``--seconds`` (at least
one pass always runs).  Before them, a few set-up-only passes time the
interpreter start, ``import extschur`` and input generation.

With ``--trace 0`` the run reports the end-to-end metrics, medians over
passes.  Every pass of a run sends the same requests in another order.
Request times are adjusted for the host's speed, as sampled during the
pass (see ``hostspeed.py``); the raw figures are printed beside them.
With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of the traced ones (see ``tracing.py``), plus the
tracing overhead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Any request whose exit
code, stdout digest or workload invariant is wrong counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workloads import WORKLOADS

clock = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # every run must end within 180 s


class WorkerError(Exception):
    pass


def spawn(workload: str, seed: int, pass_index: int, mode: str, started: float) -> dict:
    """Run one pass in a fresh interpreter and return its result."""
    command = [sys.executable, "-I", "-S", str(WORKER), str(ROOT), workload, str(seed),
               str(pass_index), mode]
    begin = clock()
    try:
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, RUN_LIMIT_S - (begin - started)))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"pass {pass_index} ({mode}) did not finish in time") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(
            f"pass {pass_index} ({mode}) exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - begin
    result["pass_s"] = clock() - begin
    return result


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def commit_of(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (root / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "extschur").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_passes(args, started: float) -> tuple[list[float], dict[str, list[dict]]]:
    """Set-up probes (untraced runs only), then passes until the time is used up."""
    setups = [
        spawn(args.workload, args.seed, k, "setup", started)["setup_s"]
        for k in range(0 if args.trace else SETUP_PROBES)
    ]
    modes = ("run", "trace") if args.trace else ("run",)
    passes: dict[str, list[dict]] = {mode: [] for mode in modes}
    k = 0
    while True:
        mode = modes[k % len(modes)]
        if all(passes.values()):
            estimate = max(p["pass_s"] for p in passes[mode])
            if clock() - started + estimate > args.seconds:
                break
        passes[mode].append(spawn(args.workload, args.seed, k, mode, started))
        k += 1
    return setups, passes


def program_wall(p: dict) -> float:
    """A pass's raw wall time less the time the speed kernel took in it."""
    return p["wall_s"] - sum(d for _, d in p["samples"])


def end_to_end(setups: list[float], passes: list[dict]) -> tuple[dict, list[str]]:
    adjusted = [hostspeed.adjust(p["timings"], p["samples"]) for p in passes]
    walls = [sum(cycle for _, cycle in a) for a in adjusted]
    latencies = [1000 * latency for a in adjusted for latency, _ in a]
    raw = [1000 * (end - start) for p in passes for _, start, end, _ in p["timings"]]
    values = {
        "wall_s": statistics.median(walls),
        "request_p50_ms": percentile(latencies, 50),
        "request_p90_ms": percentile(latencies, 90),
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    raw_walls = ", ".join(f"{program_wall(p):.3f}" for p in passes)
    samples = sum(len(p["samples"]) for p in passes)
    notes = {
        "wall_s": f"adjusted, median of {len(passes)} passes (raw: {raw_walls})",
        "request_p50_ms": f"adjusted, {len(latencies)} requests (raw {percentile(raw, 50):.3f})",
        "request_p90_ms": (f"adjusted, {len(latencies)} requests, "
                           f"{sum(x > values['request_p90_ms'] for x in latencies)} above "
                           f"(raw {percentile(raw, 90):.3f})"),
        "setup_s": f"raw, median of {len(setups) + len(passes)} interpreter starts",
        "peak_rss_mb": f"median of {len(passes)} passes",
    }
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
    lines = [f"{name:<16} {value:>14.6f} {unit_of(name):<3} {notes[name]}" for name, value in values.items()]
    lines.append(f"(adjusted = seconds on a host where the speed kernel takes "
                 f"{hostspeed.REFERENCE_S * 1e6:.0f} us; {samples} kernel samples, median "
                 f"{1e6 * statistics.median(d for p in passes for _, d in p['samples']):.1f} us)")
    return metrics, lines


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    samples = [p["layer"] for p in traced]
    # median_low returns one of the samples, so counts stay whole numbers.
    values = {name: statistics.median_low(s[name] for s in samples) for name in samples[0]}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(program_wall(p) for p in untraced)
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
    lines = []
    for name, value in values.items():
        note = ""
        if name == "tableaux.set_yield":
            note = (f"{values['tableaux.set_kept']} kept / "
                    f"{values['tableaux.srit_generated']} generated")
        elif name == "trace.overhead_frac":
            note = (f"raw wall traced {traced_wall:.4f} s / untraced "
                    f"{untraced_wall:.4f} s - 1")
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        lines.append(f"{name:<40} {shown} {unit_of(name):<11} {note}".rstrip())
    lines.append(f"(medians of {len(traced)} traced and {len(untraced)} untraced passes; "
                 f"spans in {traced[-1]['trace_file']})")
    return metrics, lines


def unit_of(name: str) -> str:
    for suffix, unit in (
        ("_ms", "ms"), ("_mb", "MB"), ("_s", "s"), (".s", "s"), ("_frac", "ratio"),
        ("_yield", "ratio"), ("_per_shape", "calls/shape"), ("_bytes", "bytes"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    started = clock()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "extschur" / "__init__.py").is_file():
        print(f"error: no extschur package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cores": len(os.sched_getaffinity(0)),
        "commit": commit_of(ROOT),
        "src_sha256": source_digest(ROOT),
    }))
    try:
        setups, passes = run_passes(args, started)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    every = [p for group in passes.values() for p in group]
    attempted = sum(p["attempted"] for p in every)
    failures = [f for p in every for f in p["failures"]]
    for failure in failures[:10]:
        print(f"FAILED {failure['request']}: {failure['problem']}", file=sys.stderr)
    if args.trace:
        metrics, lines = per_layer(passes["run"], passes["trace"])
    else:
        metrics, lines = end_to_end(setups, passes["run"])
    print("\n".join(lines))
    print(f"failed_frac {len(failures) / attempted} ({len(failures)}/{attempted} requests)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
