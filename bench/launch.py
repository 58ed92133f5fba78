"""Run one qcond CLI invocation and stamp when it reaches the experiment.

Usage:
    python3 bench/launch.py STAMPS [--spans FILE] -- <qcond CLI arguments>

Runs ``qcond.cli.main`` on the arguments after ``--``; ``qcond`` must be
importable (run.py puts ``src/`` on PYTHONPATH).  STAMPS receives a JSON
object with ``t_run`` (monotonic clock at the first ``run_experiment``
call), ``t_done`` (after the outputs are written), ``rc`` (the CLI exit
code) and ``peak_rss_kb``: the high-water RSS of this process after it
started (``VmHWM``; ``ru_maxrss`` would also count the parent the
process was spawned from) or of any pool worker it reaped, whichever is
larger.  With ``--spans`` the run is traced (see spans.py) and the spans
are saved to FILE after ``t_done``.
"""

import json
import os
import resource
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv):
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    stamps_path = own[0]
    spans_path = own[own.index("--spans") + 1] if "--spans" in own else None

    import qcond.cli

    recorder = None
    if spans_path:
        from spans import SpanRecorder, instrument

        recorder = SpanRecorder(f"{os.getpid()}-{time.time_ns()}")
        instrument(recorder)

    stamps = {"t_run": None}
    run_experiment = qcond.cli.run_experiment

    def stamped(*args, **kwargs):
        if stamps["t_run"] is None:
            stamps["t_run"] = time.monotonic()
        return run_experiment(*args, **kwargs)

    qcond.cli.run_experiment = stamped
    rc = qcond.cli.main(cli_args)
    stamps["t_done"] = time.monotonic()
    stamps["rc"] = rc
    stamps["peak_rss_kb"] = peak_rss_kb()
    if recorder is not None:
        recorder.write(spans_path)
    with open(stamps_path, "w") as fh:
        json.dump(stamps, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
