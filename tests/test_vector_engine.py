"""Edge pins for the vector engine tier and the cross-run stream pool.

The golden suite (tests/test_golden_stats.py) already holds the vector
tier to bit-identical SimStats/cache/metric parity on every pinned
kind x bench, under four governors and a bounded-MSHR memory spec.
This module pins the *edges* the event-horizon scheduler could get
wrong while leaving aggregate counters intact:

* a DVFS interval check must fire on exactly the same cycle (the
  horizon's threshold-aware fallback rejoins the event-bounded tick
  set as a jump nears ``dvfs.next_check``);
* a flight-recorder window opening inside a would-be jumped span must
  capture a byte-identical ring (vector runs the conservative per-tick
  wake/done path whenever the recorder is armed);
* a watchdog trip must fail at the same cycle with the same structured
  snapshot (the lazily-settled wake/done columns are materialized at
  the trip point);
* the NumPy gate rejects ``engine="vector"`` with the same actionable
  hint as ``"turbo"``.

The second half covers the cross-run :class:`StreamPool` cache —
content keying on (program, seed, bpred), FIFO bounds, reuse across a
``Session.map`` fan-out, and growth when a cached pool is shorter than
a later run needs.
"""

import pytest

from repro.core.config import ClockPlan, CoreConfig
from repro.core.engine.turbo import HAVE_NUMPY
from repro.core.sim import execute_kind
from repro.dvfs import GovernorConfig
from repro.errors import ConfigError, DeadlockError
from repro.obs.spec import TraceSpec
from repro.session import MachineSpec, Session
from repro.workloads import generate_program, get_profile

turbo_required = pytest.mark.skipif(
    not HAVE_NUMPY, reason="turbo extra (NumPy) not installed")


def _pair(kind, bench, n=8000, w=3000, clock=None, **cfg_kw):
    out = []
    for engine in ("legacy", "vector"):
        config = CoreConfig(engine=engine, **cfg_kw)
        out.append(execute_kind(kind, bench, config=config, clock=clock,
                                max_instructions=n, warmup=w))
    return out


@turbo_required
class TestVectorSkipAheadEdges:
    @pytest.mark.parametrize("gov", ("occupancy", "ipc_ladder"))
    def test_jump_never_crosses_a_dvfs_interval(self, gov):
        # interval=200 is far shorter than the spans the horizon would
        # otherwise elide, so a jump that ignored ``dvfs.next_check``
        # would skip check cycles and shift the frequency trace.
        clock = ClockPlan(governor=GovernorConfig(name=gov, interval=200))
        legacy, vector = _pair("baseline", "gcc", clock=clock)
        assert legacy.stats.freq_trace == vector.stats.freq_trace
        assert legacy.stats.dvfs_retunes == vector.stats.dvfs_retunes
        assert legacy.stats.to_dict() == vector.stats.to_dict()

    @pytest.mark.parametrize("start", (2500, 5001, 9000))
    def test_trace_window_opening_mid_jump(self, start):
        # Recorder windows are [start, stop) in back-end cycles. With
        # the recorder armed the vector loop must keep every stall and
        # completion emission on its original cycle — the serialized
        # ring must be byte-identical, including drop counts.
        spec = TraceSpec(buffer=1 << 16, start=start, stop=start + 1500)
        legacy, vector = _pair("baseline", "gcc", trace=spec)
        assert legacy.trace == vector.trace
        assert legacy.stats.to_dict() == vector.stats.to_dict()

    @pytest.mark.parametrize("window", (10, 24))
    def test_watchdog_trips_on_the_same_cycle(self, window):
        # pointer_chase stalls the back end long enough to elapse tiny
        # windows mid-run. The trip snapshot reads per-entry done flags,
        # so the lazily-written done column must be materialized to the
        # exact per-cycle truth at the trip point.
        trips = []
        for engine in ("legacy", "vector"):
            config = CoreConfig(engine=engine, deadlock_window=window)
            with pytest.raises(DeadlockError) as err:
                execute_kind("baseline", "pointer_chase", config=config,
                             max_instructions=8000, warmup=3000)
            trips.append((str(err.value), err.value.snapshot))
        assert trips[0] == trips[1]


class TestVectorNumpyGate:
    def test_missing_numpy_is_a_config_error(self, monkeypatch):
        # engine="vector" rides the same extra as "turbo": without
        # NumPy the spec must fail at construction with the same
        # actionable install hint, never deep inside a run.
        import repro.core.engine.turbo as turbo_pkg

        monkeypatch.setattr(turbo_pkg, "HAVE_NUMPY", False)
        with pytest.raises(ConfigError, match=r"repro\[turbo\]"):
            CoreConfig(engine="vector")


# --------------------------------------------------------------------------
# Cross-run stream pool cache (satellite: the pool is the shared state
# behind best-of-N bench repeats and Session.map fan-outs, so its keying
# and growth rules are load-bearing for correctness, not just speed).

if HAVE_NUMPY:
    from repro.core.engine.turbo.pool import (
        _POOL_CACHE,
        RenamePlan,
        StreamPool,
        get_pool,
    )
    from repro.frontend.bpred import BPredConfig


@turbo_required
class TestStreamPoolCache:
    def setup_method(self):
        _POOL_CACHE.clear()

    def test_keyed_on_program_content_seed_and_bpred(self):
        prog = generate_program(get_profile("smoke"))
        pool = get_pool(prog, 0, BPredConfig())
        assert get_pool(prog, 0, BPredConfig()) is pool
        # An *equal* program regenerated from the same profile hits the
        # same entry: keying is content identity, not object identity.
        again = generate_program(get_profile("smoke"))
        assert again is not prog
        assert get_pool(again, 0, BPredConfig()) is pool
        # Any key axis changing means a different pool: the predictor
        # config drives the precomputed taken/target columns, the seed
        # drives value generation.
        assert get_pool(prog, 1, BPredConfig()) is not pool
        other_bp = BPredConfig(history_bits=4)
        assert get_pool(prog, 0, other_bp) is not pool
        assert len(_POOL_CACHE) == 3

    def test_cache_is_a_bounded_fifo(self):
        prog = generate_program(get_profile("smoke"))
        pools = [get_pool(prog, seed, BPredConfig()) for seed in range(6)]
        assert len(_POOL_CACHE) == 4
        # Oldest entries evicted: seed 0 misses (new object), seed 5
        # still hits.
        assert get_pool(prog, 5, BPredConfig()) is pools[5]
        assert get_pool(prog, 0, BPredConfig()) is not pools[0]

    def test_session_map_fanout_shares_one_pool(self):
        # Three vector specs over the same bench/seed differ only in
        # budget — distinct cache keys, one underlying pool. jobs=1
        # keeps the campaign in-process so the cache is observable.
        specs = [MachineSpec("baseline", "smoke", engine="vector",
                             instructions=n, warmup=1000)
                 for n in (2000, 3000, 4000)]
        Session().map(specs, jobs=1)
        assert len(_POOL_CACHE) == 1

    def test_cached_pool_shorter_than_requested_grows(self):
        # A short run primes the cache with a short pool; a later,
        # longer run over the same key must grow it in place (ensure()
        # appends columns) and still land on legacy-identical stats.
        session = Session()

        def stats(engine, n):
            config = CoreConfig(engine=engine)
            return session.run_workload(
                "baseline", "smoke", config=config,
                max_instructions=n, warmup=1000).stats.to_dict()

        short = stats("vector", 2000)
        pool = next(iter(_POOL_CACHE.values()))
        rows_after_short = pool.n
        long = stats("vector", 6000)
        assert next(iter(_POOL_CACHE.values())) is pool
        assert pool.n > rows_after_short
        # Both budgets, served from the same (grown) pool, match the
        # pool-less legacy engine exactly.
        assert short == stats("legacy", 2000)
        assert long == stats("legacy", 6000)

    def test_explicit_ensure_is_idempotent_growth(self):
        prog = generate_program(get_profile("smoke"))
        pool = StreamPool(prog, 0, BPredConfig())
        pool.ensure(100)
        n100 = pool.n
        assert n100 >= 100
        head = (list(pool.pc[:50]), list(pool.dest[:50]))
        pool.ensure(50)                     # shorter request: no-op
        assert pool.n == n100
        pool.ensure(n100 + 500)             # growth keeps the prefix
        assert pool.n >= n100 + 500
        assert list(pool.pc[:50]) == head[0]
        assert list(pool.dest[:50]) == head[1]


def _columns(obj):
    """Every list column of a pool or plan, by attribute name."""
    return {name: value for name, value in vars(obj).items()
            if isinstance(value, list)}


@turbo_required
class TestPoolGrowthSchedule:
    """Growth steps are a cost choice only: the columns a pool or plan
    holds never depend on how they were grown."""

    #: Odd step sizes: 1- and 7-row steps often hold no branch, so the
    #: ``next_branch`` sentinel backfill crosses several step edges.
    STEPS = (1, 7, 333, 1, 4099, 8192, 2500)

    def setup_method(self):
        _POOL_CACHE.clear()

    def test_stream_pool_columns_ignore_the_schedule(self):
        prog = generate_program(get_profile("gcc"))
        stepped = StreamPool(prog, 3, BPredConfig())
        for size in self.STEPS:
            stepped._grow(size)
        whole = StreamPool(prog, 3, BPredConfig())
        whole._grow(sum(self.STEPS))
        assert stepped.n == whole.n == sum(self.STEPS)
        columns = _columns(whole)
        assert {"next_branch", "pre_mem", "pre_store",
                "pre_needs"} <= set(columns)
        assert _columns(stepped) == columns
        assert stepped._nb_pend == whole._nb_pend

    def test_rename_plan_columns_ignore_the_schedule(self):
        prog = generate_program(get_profile("gcc"))
        pool = StreamPool(prog, 3, BPredConfig())
        stepped = RenamePlan(pool, 500, 96)
        for size in self.STEPS:
            stepped._grow(size)
        whole = RenamePlan(pool, 500, 96)
        whole._grow(sum(self.STEPS))
        assert stepped.n == whole.n == 500 + sum(self.STEPS)
        assert _columns(stepped) == _columns(whole)

    def test_ensure_builds_what_a_short_run_needs(self):
        prog = generate_program(get_profile("gcc"))
        pool = StreamPool(prog, 0, BPredConfig())
        pool.ensure(2500)
        assert pool.n == 2500
        pool.ensure(2501)                  # at least doubles: amortized
        assert pool.n == 5000
        pool.ensure(100_000)               # past CHUNK: whole chunks
        assert (pool.n - 5000) % StreamPool.CHUNK == 0

    def test_short_turbo_run_builds_less_than_a_chunk(self):
        config = CoreConfig(engine="turbo")
        turbo = execute_kind("baseline", "gcc", config=config,
                             max_instructions=2000, warmup=500)
        (pool,) = _POOL_CACHE.values()
        assert pool.n < StreamPool.CHUNK
        (plan,) = pool._plans.values()
        assert plan.n - plan.start < RenamePlan.CHUNK
        legacy = execute_kind("baseline", "gcc", max_instructions=2000,
                              warmup=500)
        assert turbo.stats.to_dict() == legacy.stats.to_dict()
