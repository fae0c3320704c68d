"""The three workloads: the paths users take to the paper's results.

Each workload is a closed loop with one client: the next request goes
out only after the previous reply. ``setup()`` is repeatable (the
driver times several, with ``close()`` between them, and reports the
median); ``request(i)`` runs one
request and checks its outputs; ``trace_on(recorder)`` switches the
workload to its traced form; ``prepare()`` is the one-off part of the
set-up, such as filling a store. Every generated input comes from the
workload's ``random.Random(seed)``: program seeds, clock plans, grid
order and the new point of each ``serve`` campaign.

Budgets are the ones users run. ``cold-run`` takes the defaults of a
store-less ``Session.run`` (``repro.core.sim``: 60k measured after 60k
of functional warmup); ``sweep`` takes those of ``repro.experiments``
and the ``campaign run`` presets (``repro.experiments.common``: 30k
after 60k). ``serve`` posts short points at the budget of the
``POST /campaigns`` example in ``repro.serve.payload`` (2000 after 500),
which the repository's serve smoke test also posts; at the
``Sweep`` default (60k after 60k) a request would be a simulator run
rather than the read path it is meant to measure. All runs have
functional warmup, so the modelled caches are warm when statistics
start. The model has no hardware reference in the repository: it is
unvalidated, and no accuracy figure is given.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent

#: Paper FE/BE clock plans (Fig. 12: front end +0..100%, back end +50%).
PAPER_PLANS = ((0.0, 0.5), (0.25, 0.5), (0.5, 0.5), (0.75, 0.5), (1.0, 0.5))

#: Serve budget (measured, functional warmup): the example of
#: ``repro.serve.payload``. The other workloads import theirs from the
#: package, so they follow its defaults.
SERVE_BUDGET = (2_000, 500)

#: Programs (with their clock plans) a run cycles through.
PROGRAM_SETS = 3

#: Sweep grid axes: FE x BE speed-ups, one governor point, one baseline.
GRID_FE = (0.0, 1.0)
GRID_BE = (0.0, 0.5)


@dataclass
class Sample:
    """One request of the closed loop."""

    latency: float = 0.0              # the workload's request time
    first: Optional[float] = None     # submit to first of several results
    query: Optional[float] = None     # serve: GET /results round trip
    committed: int = 0                # simulated instructions executed
    gaps: List[float] = field(default_factory=list)   # serve: SSE gaps
    group: int = 0                    # requests of one group do alike work
    error: Optional[str] = None


class Context:
    """What every workload needs from the driver."""

    def __init__(self, seed: int, work: Path, env: Dict[str, str]):
        self.rng = random.Random(seed)
        self.work = work
        self.env = env
        self.recorder = None          # set when the run is traced
        self._dirs = 0

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        return self.work / f"{stem}-{self._dirs}"

    @contextmanager
    def span(self, name: str):
        """Driver-side span around a blocking call; no-op when untraced."""
        if self.recorder is None:
            yield
            return
        span = self.recorder.open(name, wait=True)
        try:
            yield
        finally:
            self.recorder.close(span)


def warm_import(ctx: Context) -> None:
    """Import everything the timed phase loads once, untimed by it, so
    byte-code compilation and a cold page cache land in set-up."""
    subprocess.run(
        [sys.executable, "-c",
         "import repro, repro.serve.app, repro.core.engine.turbo.sync, "
         "repro.core.engine.turbo.fly"],
        env=ctx.env, check=True, timeout=120)


def within_budget(stats, budget: int, width: int) -> Optional[str]:
    """Commit stops in the cycle that reaches the budget, so a run ends
    between ``budget`` and ``budget + commit_width - 1`` instructions."""
    committed = stats["committed"]
    if not budget <= committed < budget + width:
        return f"committed {committed} outside [{budget}, {budget + width})"
    return None


def _differs(stats, other, message: str) -> Optional[str]:
    return message if stats != other else None


def model_counts(stats_list, budgets) -> Dict[str, int]:
    """Exact simulated counters summed over a fixed set of runs."""
    out = {name: 0 for name in (
        "model.committed", "model.cycles", "model.mispredicts",
        "model.l1d_misses", "model.l2_misses", "model.mshr_stall_cycles",
        "model.trace_hits", "model.trace_misses", "model.instrs_from_ec",
        "model.rename_pool_stalls", "model.committed_over_budget")}
    for stats, budget in zip(stats_list, budgets):
        cache = stats["cache_stats"]
        out["model.committed"] += stats["committed"]
        out["model.cycles"] += (stats["be_cycles_create"]
                                + stats["be_cycles_execute"])
        out["model.mispredicts"] += stats["mispredicts"]
        out["model.l1d_misses"] += cache["l1d"]["misses"]
        out["model.l2_misses"] += cache["l2"]["misses"]
        out["model.mshr_stall_cycles"] += cache.get("mshr", {}).get(
            "stall_cycles", 0)
        for name in ("trace_hits", "trace_misses", "instrs_from_ec",
                     "rename_pool_stalls"):
            out[f"model.{name}"] += stats[name]
        out["model.committed_over_budget"] += stats["committed"] - budget
    return out


# ------------------------------------------------------------- cold-run

class ColdRun:
    """One fresh ``python`` per request: ``import repro`` and one
    store-less ``Session.run``. Import, program generation, pool build
    and the tick loop are paid in full every time."""

    name = "cold-run"
    latency_name = "run_s"            # process spawn to result
    round = 6                         # one legacy and one turbo run per spec

    def __init__(self, ctx: Context):
        from repro import ClockPlan, CoreConfig, MachineSpec, MemorySpec
        from repro.core.sim import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP

        self.ctx = ctx
        self.budget = DEFAULT_INSTRUCTIONS
        self.width = CoreConfig().commit_width
        # Rounds cycle through a few programs and plans, so one run's
        # figures do not hinge on a single generated program.
        self.sets = []
        for _ in range(PROGRAM_SETS):
            fe, be = ctx.rng.choice(PAPER_PLANS)
            seeds = {bench: ctx.rng.randrange(1, 2 ** 31)
                     for bench in ("gcc", "pointer_chase")}
            machines = [
                ("baseline", "gcc", {}),
                ("flywheel", "gcc",
                 {"clock": ClockPlan(fe_speedup=fe, be_speedup=be)}),
                ("baseline", "pointer_chase",
                 {"config": CoreConfig(mem=MemorySpec(mshrs=4))}),
            ]
            self.sets.append([
                MachineSpec(kind, bench, seed=seeds[bench],
                            instructions=DEFAULT_INSTRUCTIONS,
                            warmup=DEFAULT_WARMUP, engine=engine, **extra)
                for kind, bench, extra in machines
                for engine in ("legacy", "turbo")])
        self.specs: list = []
        self.order: List[int] = []
        self.round_stats: Dict[int, dict] = {}
        self.reference: Dict[str, dict] = {}
        self.first_round: List[dict] = []

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        warm_import(self.ctx)

    def trace_on(self, recorder) -> None:
        self.ctx.recorder = recorder

    def request(self, i: int) -> Sample:
        if i % self.round == 0:
            self.specs = self.sets[i // self.round % PROGRAM_SETS]
            self.order = list(range(self.round))
            self.ctx.rng.shuffle(self.order)
            self.round_stats = {}
        index = self.order[i % self.round]
        spec = self.specs[index]
        payload = json.dumps(spec.to_dict())
        sample = Sample()
        with self.ctx.span("request"):
            t0 = perf_counter()
            cmd = [sys.executable, str(HERE / "cold_child.py")]
            if self.ctx.recorder is not None:
                # The child opens its first span at the spawn time.
                cmd += ["--trace", str(self.ctx.recorder.trace_dir),
                        repr(t0)]
            proc = subprocess.run(cmd, input=payload, capture_output=True,
                                  text=True, env=self.ctx.env, timeout=150)
            t1 = perf_counter()
            sample.latency = t1 - t0
            lines = proc.stdout.strip().splitlines()
            if self.ctx.recorder is not None and proc.returncode == 0:
                exit_start = json.loads(lines.pop())["exit_start"]
                self.ctx.recorder.close(self.ctx.recorder.open(
                    "process.exit", start=exit_start), end=t1)
        sample.group = index
        if proc.returncode != 0:
            sample.error = f"exit {proc.returncode}: {proc.stderr[-400:]}"
            return sample
        stats = json.loads(lines[-1])
        sample.committed = stats["committed"]
        if len(self.first_round) < self.round:
            self.first_round.append(stats)
        pair = self.round_stats.get(index ^ 1)   # legacy/turbo of one machine
        self.round_stats[index] = stats
        sample.error = (
            within_budget(stats, self.budget, self.width)
            or _differs(stats, self.reference.setdefault(spec.cache_key(),
                                                         stats),
                        f"{spec.label}: stats differ across runs")
            or _differs(stats, pair or stats,
                        f"{spec.label}: legacy and turbo SimStats differ"))
        return sample

    def model(self) -> Dict[str, int]:
        return model_counts(self.first_round, [self.budget] * self.round)

    def close(self) -> None:
        pass


# ----------------------------------------------------------------- sweep

def flywheel_grid(seed: int):
    """FE x BE speed-ups, one governor point and one baseline reference,
    all on one ``gcc`` program, on the turbo engine, at the budgets of
    ``repro.experiments``."""
    from repro import ClockPlan, GovernorConfig, MachineSpec
    from repro.experiments.common import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP

    common = dict(bench="gcc", seed=seed, instructions=DEFAULT_INSTRUCTIONS,
                  warmup=DEFAULT_WARMUP, engine="turbo")
    grid = [MachineSpec("flywheel", clock=ClockPlan(fe_speedup=fe,
                                                    be_speedup=be), **common)
            for fe in GRID_FE for be in GRID_BE]
    grid.append(MachineSpec("flywheel", clock=ClockPlan(
        fe_speedup=1.0, be_speedup=0.5,
        governor=GovernorConfig(name="occupancy")), **common))
    grid.append(MachineSpec("baseline", **common))
    return grid


class Sweep:
    """``Session(store=<fresh dir>, jobs=2).map`` over a flywheel grid:
    the ``repro.experiments`` / ``campaign run`` path, whose pool
    workers persist across the jobs of one call."""

    name = "sweep"
    latency_name = "sweep_s"          # Session.map call to return
    round = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.grids = [flywheel_grid(ctx.rng.randrange(1, 2 ** 31))
                      for _ in range(PROGRAM_SETS)]
        self.budget = self.grids[0][0].instructions
        self.width = self.grids[0][0].config.commit_width
        self.reference: Dict[str, dict] = {}
        self.first: List[dict] = []

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        from repro import Session

        warm_import(self.ctx)
        # One small map loads the executor's lazy imports and computes
        # the code fingerprint; it simulates in workers, never here.
        warm = [spec.replace(instructions=500, warmup=500)
                for spec in self.grids[0][:2]]
        Session(store=self.ctx.fresh_dir("warm"), jobs=2).map(warm)

    def trace_on(self, recorder) -> None:
        self.ctx.recorder = recorder

    def request(self, i: int) -> Sample:
        from repro import Session

        order = list(self.grids[i % PROGRAM_SETS])
        self.ctx.rng.shuffle(order)
        store = self.ctx.fresh_dir("sweep-store")
        session = Session(store=store, jobs=2)
        sample = Sample()
        firsts: List[float] = []
        with self.ctx.span("request"):
            t0 = perf_counter()
            results = session.map(
                order, progress=lambda *_: firsts.append(perf_counter()))
            sample.latency = perf_counter() - t0
        sample.first = firsts[0] - t0
        for spec, result in zip(order, results):
            stats = result.stats.to_dict()
            sample.committed += stats["committed"]
            key = spec.cache_key()
            sample.error = sample.error or (
                within_budget(stats, self.budget, self.width)
                or _differs(stats, self.reference.setdefault(key, stats),
                            f"{spec.label}: stats differ across runs")
                or (None if key in session.store
                    else f"{spec.label}: no store record"))
        if not self.first:
            self.first = [r.stats.to_dict() for r in results]
        shutil.rmtree(store, ignore_errors=True)
        return sample

    def model(self) -> Dict[str, int]:
        return model_counts(self.first, [self.budget] * len(self.first))

    def close(self) -> None:
        pass


# ----------------------------------------------------------------- serve

def stored_grid(seed: int):
    """The paper's FE x BE plans under no governor and every DVFS policy,
    on one ``gcc`` program: the campaign a ``serve`` user already ran,
    at the serve budget, on the default engine."""
    from repro import ClockPlan, GovernorConfig, MachineSpec
    from repro.dvfs.config import GOVERNOR_NAMES

    steps = (0.0, 0.25, 0.5, 0.75, 1.0)
    return [MachineSpec("flywheel", "gcc", seed=seed,
                        instructions=SERVE_BUDGET[0],
                        warmup=SERVE_BUDGET[1],
                        clock=ClockPlan(fe_speedup=fe, be_speedup=be,
                                        governor=(GovernorConfig(name=gov)
                                                  if gov else None)))
            for fe in steps for be in steps
            for gov in (None,) + GOVERNOR_NAMES]


class Serve:
    """A ``python -m repro.serve --jobs 2`` daemon on a prefilled store.

    Each request POSTs the stored grid plus one new short turbo point,
    tails the SSE stream to ``summary`` and sends one ``GET /results``.
    Reads dominate: 125 store hits, each an SSE event. The one write per
    request is a process-per-job scheduler run, a store put and an
    index update."""

    name = "serve"
    latency_name = "campaign_s"       # POST to the SSE summary
    round = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.grid = stored_grid(ctx.rng.randrange(1, 2 ** 31))
        self.payloads = [s.to_dict() for s in self.grid]
        self.width = self.grid[0].config.commit_width
        self.used_seeds = set()
        self.daemon = None
        self.client = None
        self.store = None
        self.records = {}             # key -> SimStats of a stored record
        self.first: List[dict] = []

    # ------------------------------------------------------------ daemon

    def _start(self, traced: bool) -> None:
        from repro.serve.client import ServeClient

        args = ["--jobs", "2", "--store", str(self.store),
                "--host", "127.0.0.1", "--port", "0"]
        if traced:
            cmd = [sys.executable, str(HERE / "traced_daemon.py"),
                   str(self.ctx.recorder.trace_dir)] + args
        else:
            cmd = [sys.executable, "-m", "repro.serve"] + args
        self.daemon = subprocess.Popen(cmd, env=self.ctx.env,
                                       stdout=subprocess.PIPE,
                                       stderr=subprocess.DEVNULL, text=True)
        banner = self.daemon.stdout.readline()   # "repro.serve on http://..."
        if not banner.startswith("repro.serve on "):
            self._stop()
            raise RuntimeError(f"daemon did not start: {banner!r}")
        url = banner.split()[2]
        self.client = ServeClient(url, timeout_s=60.0)
        self.client.health()

    def _stop(self) -> None:
        if self.daemon is None:
            return
        self.daemon.send_signal(signal.SIGINT)
        try:
            self.daemon.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.daemon.kill()
            self.daemon.wait()
        self.daemon.stdout.close()
        self.daemon = None

    # --------------------------------------------------------- workload

    def prepare(self) -> None:
        from repro import Session

        self.store = self.ctx.fresh_dir("serve-store")
        Session(store=self.store, jobs=2).map(self.grid)

    def setup(self) -> None:
        self._start(traced=False)

    def trace_on(self, recorder) -> None:
        self._stop()
        self.ctx.recorder = recorder
        self._start(traced=True)

    def _new_point(self):
        from repro import MachineSpec

        seed = self.ctx.rng.randrange(1, 2 ** 31)
        while seed in self.used_seeds:
            seed = self.ctx.rng.randrange(1, 2 ** 31)
        self.used_seeds.add(seed)
        return MachineSpec("baseline", "gcc", seed=seed, engine="turbo",
                           instructions=SERVE_BUDGET[0],
                           warmup=SERVE_BUDGET[1])

    def request(self, i: int) -> Sample:
        new = self._new_point()
        payloads = self.payloads + [new.to_dict()]
        self.ctx.rng.shuffle(payloads)
        sample = Sample()
        events = []
        with self.ctx.span("request"):
            t0 = perf_counter()
            with self.ctx.span("client.post"):
                campaign = self.client.submit({"specs": payloads})
            last = perf_counter()
            for kind, data in self.client.events(campaign["campaign"],
                                                 timeout_s=60.0):
                now = perf_counter()
                sample.gaps.append(now - last)
                last = now
                events.append((kind, data))
                if kind == "result" and sample.first is None:
                    sample.first = now - t0
                if kind in ("summary", "end", "error"):
                    break
            sample.latency = perf_counter() - t0
        with self.ctx.span("query"):
            t1 = perf_counter()
            rows = self.client.results(kind="baseline", bench="gcc",
                                       engine="turbo")
            sample.query = perf_counter() - t1
        sample.error = self._check(events, rows, new)
        if sample.error is None:
            sample.committed = next(
                d["stats"]["committed"] for k, d in events
                if k == "result" and d["key"] == new.cache_key())
        return sample

    def _check(self, events, rows, new) -> Optional[str]:
        from repro.campaign.store import ResultStore

        kind, summary = events[-1]
        if kind != "summary":
            return f"campaign ended with {kind}: {summary}"
        if (summary["quarantined"], summary["executed"],
                summary["hits"]) != (0, 1, len(self.grid)):
            return f"unexpected summary {summary}"
        results = [d for k, d in events if k == "result"]
        if len(results) != len(self.grid) + 1:
            return f"{len(results)} result events"
        first_stats = []
        store = ResultStore(self.store)
        for data in results:
            stats = self.records.get(data["key"])
            if stats is None:
                record = store.get(data["key"])
                if record is None:
                    return f"no stored record for {data['key']}"
                stats = record.stats
                if data["key"] != new.cache_key():   # stored: immutable
                    self.records[data["key"]] = stats
            wire = {"committed": stats.committed,
                    "cycles": stats.total_be_cycles,
                    "ipc": round(stats.ipc, 6),
                    "sim_time_ps": stats.sim_time_ps}
            if data["stats"] != wire:
                return f"SSE stats differ from the store for {data['label']}"
            error = within_budget(stats.to_dict(), SERVE_BUDGET[0],
                                  self.width)
            if error:
                return error
            first_stats.append(stats.to_dict())
        if new.cache_key() not in {row["key"] for row in rows}:
            return "new point missing from GET /results"
        if not self.first:
            self.first = first_stats
        return None

    def model(self) -> Dict[str, int]:
        return model_counts(self.first, [SERVE_BUDGET[0]] * len(self.first))

    def close(self) -> None:
        self._stop()


WORKLOADS = {w.name: w for w in (ColdRun, Sweep, Serve)}
