"""Cold-run child: ``import repro`` and one store-less ``Session.run``.

Reads one ``RunSpec`` payload (JSON) on stdin and prints the run's
``SimStats`` as one JSON line. With ``--trace DIR SPAWN_T`` the first
span, ``process.start``, runs from ``SPAWN_T`` (the driver's
``perf_counter()`` when it spawned this process) to the first line of
this file: process spawn and interpreter start. The layer wrappers are
then installed before the import, the import itself is one span, and
the spans are written to ``DIR`` at the end. A last line
``{"exit_start": t}`` then gives the driver the start of interpreter
exit, which the driver closes as ``process.exit`` when it reaps this
process.

    python perfbench/cold_child.py [--trace DIR SPAWN_T] < spec.json
"""

from time import perf_counter

STARTED = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    payload = json.loads(sys.stdin.read())
    recorder = None
    if sys.argv[1:2] == ["--trace"]:
        import spans

        recorder = spans.install(sys.argv[2], "child", 1)
        recorder.close(recorder.open("process.start",
                                     start=float(sys.argv[3])), end=STARTED)
        span = recorder.open("import")
    import repro
    if recorder is not None:
        recorder.close(span)
    result = repro.Session().run(repro.MachineSpec.from_dict(payload))
    print(json.dumps(result.stats.to_dict(), sort_keys=True))
    if recorder is not None:
        recorder.flush()
        print(json.dumps({"exit_start": perf_counter()}))


if __name__ == "__main__":
    main()
