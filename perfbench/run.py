"""End-to-end benchmark of the paths users take through ``repro``.

    python3 perfbench/run.py --workload cold-run|sweep|serve \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/``
and the metric names and units come from ``BENCHMARK.json``. One
driver process generates all load as a closed loop with one client
(see ``workloads.py``); every simulated result is checked, and a
request whose check fails counts as failed.

``--trace 0`` prints the end-to-end metrics. Timings are host time.
``request_s`` is the workload's request: ``run_s`` on ``cold-run``
(process spawn to result), ``sweep_s`` on ``sweep`` (``Session.map``
call to return) and ``campaign_s`` on ``serve`` (``POST /campaigns`` to
the SSE ``summary``). Each is reported as a median (``_p50``) and as the
highest percentile with at least 10 samples beyond it (``_tail``); the
table above the JSON line names the percentile and the sample count.
A run makes at least 11 requests, so the tail always has its 10.
``first_result_s_p50`` (``sweep``, ``serve``) is submit to first
result; on ``sweep`` it is read from ``Session.map``'s progress
callback, which fires at the same point of ``run_campaign`` as
``Session.stream``'s first ``result``.
``sim_ips`` is simulated instructions committed per host second of
request time. ``peak_rss_mb`` is the driver's peak RSS plus that of its
largest descendant (``getrusage``), so the daemon and workers count.
``setup_s`` is the one-off set-up (the driver's ``import repro``, input
generation; on ``serve`` the store pre-fill) plus the median of several
repeatable set-ups (warm imports; on ``sweep`` a small warm-up map; on
``serve`` the daemon start until ``/healthz`` answers).

The table also prints ``first_result_s_p50``, ``query_s`` (``serve``
only) and ``error_rate``; the JSON line, which carries exactly the
metrics every workload has, leaves them out. On ``serve`` the first
result is a store hit some 15 ms after submit, and over ten seeds on a
shared 2-vCPU VM its median spread by 0.27 of itself (quartile
distance), more than the largest bound a metric may have.
``error_rate`` is ``failed / attempted`` of the JSON line.

``--trace 1`` runs half the time untraced, then half traced, and prints
the per-layer metrics: self time per layer per request (``layers.py``),
span counts, the exact simulated counters of the first request
(``model.*``, simulated time), the tracing overhead (traced minus
untraced mean latency, with its standard error) and the coverage: the
layer self times per request, the time no layer span covers, and a
flag set when that uncovered time exceeds the overhead by more than
twice its standard error. End-to-end numbers come only from untraced
runs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import layers
import spans
from workloads import WORKLOADS, Context, Sample

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Requests an untraced run makes at least, so that ``_tail`` has 10
#: samples beyond it even when a slow host stretches every request.
MIN_SAMPLES = 11


def tail(values):
    """The highest percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    j = len(ordered) - 11
    if j < 0:
        return ordered[-1], 100.0
    return ordered[j], 100.0 * (j + 1) / len(ordered)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_phase(workload, seconds: float, samples: list, recorder=None,
              least: int = 0):
    """Closed loop: requests back to back until ``seconds`` have passed,
    at least ``least`` requests are made and the workload's current
    round is complete."""
    deadline = perf_counter() + seconds
    while (perf_counter() < deadline or len(samples) < least
           or len(samples) % workload.round):
        if recorder is not None:
            recorder.rid = len(samples)
        try:
            sample = workload.request(len(samples))
        except Exception as exc:          # counted, never fatal
            sample = Sample(error=f"{type(exc).__name__}: {exc}")
        samples.append(sample)
    return samples


def end_to_end(workload, samples, setup_s: float):
    ok = [s for s in samples if s.error is None]
    latency = [s.latency for s in ok]
    value, pct = tail(latency)
    metrics = {
        "setup_s": setup_s,
        "request_s_p50": statistics.median(latency),
        "request_s_tail": value,
        "sim_ips": sum(s.committed for s in ok) / sum(latency),
        "peak_rss_mb": peak_rss_mb(),
    }
    name = workload.latency_name
    rows = [("setup_s", setup_s, "s",
             f"one-off + median of {SETUP_REPS} set-ups"),
            (f"{name}_p50", metrics["request_s_p50"], "s",
             f"request_s_p50, n={len(latency)}"),
            (f"{name}_tail", value, "s",
             f"request_s_tail, p{pct:.0f} of n={len(latency)}"),
            ("sim_ips", metrics["sim_ips"], "sim_instr/s",
             "over all jobs executed"),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MB",
             "driver + largest child")]
    firsts = [s.first for s in ok if s.first is not None]
    if firsts:
        rows.append(("first_result_s_p50", statistics.median(firsts), "s",
                     f"n={len(firsts)}"))
    queries = [s.query for s in ok if s.query is not None]
    if queries:
        qtail, qpct = tail(queries)
        rows += [("query_s_p50", statistics.median(queries), "s",
                  f"n={len(queries)}"),
                 ("query_s_tail", qtail, "s",
                  f"p{qpct:.0f} of n={len(queries)}")]
    rows.append(("error_rate", (len(samples) - len(ok)) / len(samples), "",
                 f"{len(samples) - len(ok)} of {len(samples)} failed"))
    return metrics, rows


def per_layer(workload, untraced, traced, recorder):
    recorded = list(recorder.spans)
    for path in sorted(recorder.trace_dir.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            recorded.extend(json.loads(line) for line in fh)
    report = layers.analyse(recorded, len(traced))
    metrics = dict(report["metrics"])
    metrics.update(workload.model())
    gaps = [g for s in traced for g in s.gaps]
    metrics["serve.sse_gap_s"] = statistics.mean(gaps) if gaps else 0.0
    plain, with_spans, se = overhead(untraced, traced)
    uncovered = report["uncovered_s"]
    metrics.update({
        "trace.untraced_s": plain, "trace.traced_s": with_spans,
        "trace.overhead_s": with_spans - plain,
        "trace.overhead_se_s": se,
        "trace.covered_s": report["covered_s"],
        "trace.uncovered_s": uncovered,
        "trace.uncovered_flag": int(uncovered > with_spans - plain + 2 * se),
    })
    return metrics, report["spans"]


def overhead(untraced, traced):
    """Untraced and traced mean latency, and the standard error of their
    difference (the tracing overhead).

    Means are taken per group of alike requests (a cold-run spec) and
    then averaged. With several groups the error comes from the spread
    of their differences, with one from the spread within it, so that a
    mix of long and short requests does not pass for noise.
    """
    groups = {}
    for index, phase in enumerate((untraced, traced)):
        for s in phase:
            if s.error is None:
                groups.setdefault(s.group, ([], []))[index].append(s.latency)
    pairs = [pair for pair in groups.values() if all(pair)]
    means = [(statistics.mean(u), statistics.mean(t)) for u, t in pairs]
    if len(means) > 1:
        se = (statistics.stdev(t - u for u, t in means)
              / len(means) ** 0.5)
    else:
        se = sum(statistics.variance(v) / len(v)
                 for v in pairs[0] if len(v) > 1) ** 0.5
    return (statistics.mean(u for u, _ in means),
            statistics.mean(t for _, t in means), se)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {src}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    wanted = [m["name"] for m in
              declared["per_layer" if args.trace else "end_to_end"]]

    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")
    work = root / ".perfbench_work"
    run_dir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    ctx = Context(args.seed, run_dir, env)
    workload = None
    try:
        t0 = perf_counter()
        workload = WORKLOADS[args.workload](ctx)    # imports repro
        workload.prepare()
        once_s = perf_counter() - t0
        setups = []
        for rep in range(SETUP_REPS):
            if rep:
                workload.close()
            t0 = perf_counter()
            workload.setup()
            setups.append(perf_counter() - t0)
        setup_s = once_s + statistics.median(setups)

        if not args.trace:
            samples = run_phase(workload, args.seconds, [],
                                least=MIN_SAMPLES)
            workload.close()
            metrics, rows = end_to_end(workload, samples, setup_s)
        else:
            untraced = run_phase(workload, args.seconds / 2, [])
            recorder = spans.install(run_dir / "trace", "driver", 0)
            workload.trace_on(recorder)
            traced = run_phase(workload, args.seconds / 2, [], recorder)
            workload.close()
            samples = untraced + traced
            metrics, all_spans = per_layer(workload, untraced, traced,
                                           recorder)
            out = work / f"trace-{args.workload}-{args.seed}.json"
            out.write_text(json.dumps(
                [{k: s[k] for k in ("name", "start", "end", "id", "parent",
                                    "rid", "proc", "pid", "attrs")}
                  for s in all_spans if s.get("rid") is not None]))
            rows = [(name, metrics[name], units[name], "")
                    for name in wanted]
            flagged = metrics["trace.uncovered_flag"]
            rows.append(("accounting", metrics["trace.covered_s"], "s",
                         f"layer self times per request vs untraced "
                         f"{metrics['trace.untraced_s']:.4f} s; uncovered "
                         f"{metrics['trace.uncovered_s']:.4f} s "
                         f"{'>' if flagged else '<='} overhead "
                         f"{metrics['trace.overhead_s']:+.4f} s "
                         f"+ 2 x {metrics['trace.overhead_se_s']:.4f} s: "
                         f"{'FLAGGED' if flagged else 'ok'}; spans in "
                         f"{out.relative_to(root)}"))
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for s in samples if s.error is not None)
    print(f"{args.workload}  seed={args.seed}  trace={args.trace}  "
          f"{len(samples)} requests, {failed} failed")
    for name, value, unit, note in rows:
        print(f"  {name:<26} {value:>14.6g} {unit:<12} {note}")
    for sample in samples:
        if sample.error is not None:
            print(f"  FAILED: {sample.error}")
            break
    missing = set(wanted) - set(metrics)
    if missing:
        print(f"error: metrics not produced: {sorted(missing)}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
