"""``python -m repro.serve`` with the span recorder installed.

    python perfbench/traced_daemon.py TRACE_DIR [repro.serve options]

The daemon's spans are written to ``TRACE_DIR`` when it exits (SIGINT
stops it cleanly); its forked workers write theirs after each job.
"""

import runpy
import sys

import spans


def main() -> None:
    recorder = spans.install(sys.argv[1], "daemon", 1)
    sys.argv = ["repro.serve"] + sys.argv[2:]
    try:
        runpy.run_module("repro.serve", run_name="__main__", alter_sys=True)
    finally:
        recorder.flush()


if __name__ == "__main__":
    main()
