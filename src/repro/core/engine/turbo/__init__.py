"""Turbo engine backend: batched struct-of-arrays execution.

The legacy engine walks one Python object per instruction per stage per
cycle; at ~100k simulated cycles/sec the interpreter overhead — not any
single hot function — is the bottleneck (BENCH_core.json, DESIGN.md §8).
The turbo backend is a second *implementation* of the same machines: it
precomputes everything that is program-order deterministic (the stream
walk, rename tags, branch-predictor outcomes, fetch-group boundaries,
op-indexed latency/FU tables) into parallel plain-list pools, then runs
a fused tick loop over them with batched counter flushes and
event-compiled skip-ahead.

Selection rides ``CoreConfig.engine`` ("legacy" | "turbo"); the golden
rule for any engine backend is bit-identity: every counter, event,
freq-trace point, cache stat and metric snapshot must match the legacy
engine exactly, or the backend is wrong — there is no "close enough"
for an implementation axis (tests/test_golden_stats.py enforces this).

The backend needs nothing beyond the standard library; the run loops
live in submodules imported on demand (``sync`` for the single-clock
kinds, ``fly`` for the flywheel).
"""
