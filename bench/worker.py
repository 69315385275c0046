"""powercrit CLI calls in a fresh interpreter, reported as one JSON line.

    python3 bench/worker.py '{"calls": [["analyze", "D:15", "--json"]], "trace": "off"}'

The worker imports ``powercrit.cli`` from ``src/`` of the checkout it
lives in, optionally installs a tracer (``"spans"`` or ``"counts"``, see
``tracer.py``), then times ``powercrit.cli.main(argv)`` in-process for
each call in turn, with stdout and stderr captured.  It prints
``{"calls": [{"rc", "wall_s", "stdout", "stderr"}], "maxrss_kb", "trace"}``
on its real stdout.  Exit code 0 means the calls ran (whatever their own
exit codes); anything else means the worker itself could not run them.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_call(cli, argv: list[str]) -> dict:
    """Time cli.main(argv) with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        started = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a traceback is a failed operation, reported to the harness
            rc = None
            traceback.print_exc()
        wall = time.perf_counter() - started
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    return {"rc": rc, "wall_s": wall, "stdout": out.getvalue(), "stderr": err.getvalue()[-4000:]}


def main() -> int:
    job = json.loads(sys.argv[1])
    import powercrit.cli
    import powercrit.verify  # cmd_verify imports it lazily; load it before timing

    src = (ROOT / "src").resolve()
    if not Path(powercrit.cli.__file__).resolve().is_relative_to(src):
        print(f"powercrit was imported from {powercrit.cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    recorder = None
    if job["trace"] != "off":
        import tracer  # beside this file, which Python puts first on sys.path

        recorder = tracer.install(job["trace"])

    result = {
        "calls": [run_call(powercrit.cli, argv) for argv in job["calls"]],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": recorder.report() if recorder is not None else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
