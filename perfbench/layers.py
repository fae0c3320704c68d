"""Per-layer metrics from the spans of one traced run.

Every request of the closed loop is one root span in the driver
(``request``; on ``serve`` also ``query`` for the ``GET /results``
that follows). A span belongs to the root it descends from. Spans of
spawned processes, which carry no parent, are linked to the innermost
span of a lower-level process whose interval contains theirs.

Self time is a share of wall time: over each instant of a root's
interval, the time goes to the active spans that have no active child
(the leaves), split evenly when several run at once. A leaf marked
``wait`` (it mostly blocks on a queue or a pool) gets time only when no
other leaf is active. The root's own share is the time no layer span
covers, such as process exit and HTTP transport. So the self times of
one root sum to its wall time, and that sum proves nothing; coverage
does. ``covered_s`` is the layer self times of the ``request`` roots
without the roots' own share (``uncovered_s``). On cold-run, process
spawn with interpreter start (``process.start``, from the driver's
spawn time to the child's first line) and interpreter exit
(``process.exit``, from the child's last line to the driver's reaping)
are layers of their own. The driver compares ``covered_s`` with the
untraced latency and flags the run when ``uncovered_s`` exceeds the
tracing overhead by more than twice its standard error.

Which end-to-end metric each layer should move, and where:

* ``process.start_s``, ``process.exit_s``, ``import.s``: ``run_s`` on
  cold-run (sweep and serve start and import in set-up).
* ``workloads.*``, ``pool.*``: ``run_s`` on cold-run and ``campaign_s``
  on serve, whose process-per-job runs rebuild both; little on sweep,
  whose pool workers reuse the pool.
* ``core.*``: ``run_s`` and ``sim_ips`` on cold-run, ``sweep_s`` on
  sweep; little on serve.
* ``model.*``: simulated time only; a simulator-speed change leaves
  every one identical.
* ``result.*``, ``spec.*``: ``sweep_s`` and ``campaign_s``.
* ``executor.*``: ``sweep_s`` only.
* ``scheduler.*``, ``journal.*``, ``serve.*``: ``campaign_s`` on serve.
* ``store.*``, ``index.update_s``: ``sweep_s`` through the writes,
  ``campaign_s`` on serve through the reads.
* ``index.query_s``, ``index.refresh_s``, ``index.fallback_scans``:
  ``query_s`` on serve.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

#: Span name -> per-layer metric of its self time (seconds per request).
SELF_TIME = {
    "process.start": "process.start_s",
    "process.exit": "process.exit_s",
    "import": "import.s",
    "workloads.generate": "workloads.generate_s",
    "pool.build": "pool.build_s",
    "core.run": "core.run_s",
    "spec.execute": "spec.execute_s",
    "spec.cache_key": "spec.cache_key_s",
    "result.to_dict": "result.to_dict_s",
    "result.from_dict": "result.from_dict_s",
    "executor.run": "executor.run_s",
    "executor.job": "executor.job_s",
    "scheduler.loop": "scheduler.loop_s",
    "scheduler.spawn": "scheduler.spawn_s",
    "scheduler.exec": "scheduler.exec_s",
    "scheduler.collect": "scheduler.collect_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "journal.create": "journal.create_s",
    "journal.record": "journal.record_s",
    "index.update": "index.update_s",
    "index.refresh": "index.refresh_s",
    "index.query": "index.query_s",
    "serve.submit": "serve.submit_s",
    "serve.results": "serve.results_s",
    "client.post": "client.post_s",
    "request": "request.other_s",
    "query": "request.other_s",
}

ROOTS = ("request", "query")


def _link(spans: List[dict]) -> Dict[str, dict]:
    """Index spans by id and give every orphan a containing parent."""
    by_id = {s["id"]: s for s in spans}
    hosts = sorted((s for s in spans if s["level"] < 2
                    and s["end"] > s["start"]),
                   key=lambda s: s["start"])
    for span in spans:
        if span["parent"] in by_id or (span["level"] == 0
                                       and span["name"] in ROOTS):
            continue
        best = None
        for host in hosts:
            if host["start"] > span["start"]:
                break
            if (host["level"] < span["level"] and host["end"] >= span["end"]
                    and (best is None or host["end"] - host["start"]
                         < best["end"] - best["start"])):
                best = host
        span["parent"] = best["id"] if best is not None else None
    return by_id


def _attribute(root: dict, members: List[dict], by_id: Dict[str, dict],
               out: Dict[str, float]) -> None:
    """Add each member's wall-time share of ``root`` to ``out``."""
    lo, hi = root["start"], root["end"]
    events = []
    for span in members:
        start, end = max(span["start"], lo), min(span["end"], hi)
        if end > start:
            events.append((start, 1, span))
            events.append((end, 0, span))
    events.sort(key=lambda e: (e[0], e[1]))
    children: Dict[str, int] = defaultdict(int)
    active = set()
    leaves = set()
    last = lo
    for t, starting, span in events:
        if t > last and leaves:
            work = ([i for i in leaves if not by_id[i]["wait"]]
                    or list(leaves))
            share = (t - last) / len(work)
            for sid in work:
                out[by_id[sid]["name"]] += share
        last = max(last, t)
        sid, parent = span["id"], span["parent"]
        if starting:
            active.add(sid)
            if not children[sid]:
                leaves.add(sid)
            if span is not root:
                children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if span is not root:
                children[parent] -= 1
                if not children[parent] and parent in active:
                    leaves.add(parent)


def analyse(spans: List[dict], requests: int) -> Dict[str, object]:
    """Self time per layer and the span-derived counts, per request.

    Returns the metrics plus ``spans`` (each with its request id set),
    ``covered_s`` and ``uncovered_s``: the self time of the ``request``
    roots that layer spans cover and that they leave to the root, per
    request.
    """
    spans = [s for s in spans if s["end"] is not None]
    by_id = _link(spans)
    roots = [s for s in spans if s["level"] == 0 and s["name"] in ROOTS]
    members: Dict[str, List[dict]] = {r["id"]: [] for r in roots}
    for span in spans:
        node, seen = span, 0
        while node is not None and node["id"] not in members and seen < 64:
            node = by_id.get(node["parent"])
            seen += 1
        if node is not None and node["id"] in members:
            members[node["id"]].append(span)
            span["rid"] = node["rid"]
    selfs: Dict[str, float] = defaultdict(float)
    primary: Dict[str, float] = defaultdict(float)
    for root in roots:
        _attribute(root, members[root["id"]], by_id,
                   primary if root["name"] == "request" else selfs)
    for name, seconds in primary.items():
        selfs[name] += seconds

    n = max(1, requests)
    metrics: Dict[str, float] = {m: 0.0 for m in SELF_TIME.values()}
    for name, seconds in selfs.items():
        metrics[SELF_TIME.get(name, "request.other_s")] += seconds / n
    traced = [s for group in members.values() for s in group]

    def named(name):
        return [s for s in traced if s["name"] == name]

    gets = named("pool.get")
    puts = named("store.put")
    store_gets = named("store.get")
    # Arrival in the driver minus the end of the job in its worker.
    job_end = {(s["rid"], s["attrs"]["key"]): s["end"]
               for s in named("executor.job")}
    waits = [s["start"] - job_end[s["rid"], s["attrs"]["key"]]
             for s in named("executor.arrive")
             if (s["rid"], s["attrs"]["key"]) in job_end]
    runs = named("core.run")
    cycles = sum(s["attrs"].get("cycles", 0) for s in runs)
    # Each run's own duration without the layers it calls (pool build),
    # so that runs of concurrent workers do not share the time.
    nested = defaultdict(float)
    for span in traced:
        nested[span["parent"]] += span["end"] - span["start"]
    run_s = sum(s["end"] - s["start"] - nested[s["id"]] for s in runs)
    metrics.update({
        "workloads.calls": len(named("workloads.generate")) / n,
        "pool.builds": len(named("pool.new")) / n,
        "pool.hit_frac": (sum(s["attrs"]["hit"] for s in gets) / len(gets)
                          if gets else 0.0),
        "store.hits": sum(s["attrs"].get("hit", 0) for s in store_gets) / n,
        "store.misses": sum(1 - s["attrs"].get("hit", 0)
                            for s in store_gets) / n,
        "store.record_bytes": (sum(s["attrs"].get("bytes", 0) for s in puts)
                               / len(puts) if puts else 0.0),
        "scheduler.retries": sum(s["attrs"].get("retried", 0)
                                 for s in named("scheduler.loop")) / n,
        "index.fallback_scans": len(named("index.fallback_scan")) / n,
        "executor.wait_s": sum(waits) / n,
        "core.host_ns_per_cycle": run_s * 1e9 / cycles if cycles else 0.0,
    })
    uncovered = sum(primary.get(name, 0.0) for name in ROOTS)
    return {"metrics": metrics, "spans": spans,
            "covered_s": (sum(primary.values()) - uncovered) / n,
            "uncovered_s": uncovered / n}
