"""Record the reference exit code and stdout digest of every request.

Usage: python3 bench/make_reference.py

Runs every request any seed can produce, for all workloads, against the
package in ``src/`` and writes ``bench/reference.json``.  Run it only on a
commit whose output is known to be right: the benchmark counts any later
difference as a failed request.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import extschur.cli  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for workload in workloads.WORKLOADS:
        for request in workloads.all_requests(workload):
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = extschur.cli.main(request)
            reference[workloads.request_key(request)] = [code, workloads.digest(out.getvalue())]
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        lines = [f"{json.dumps(key)}: {json.dumps(reference[key])}" for key in sorted(reference)]
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(reference)} entries to {workloads.REFERENCE_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
