"""Declarative run specifications and sweeps.

A :class:`RunSpec` names one simulation completely: core kind, benchmark,
clock plan, config overrides, seed, instruction budgets and memory scale.
Specs are frozen, hashable and normalized (``None`` configs are resolved
to the defaults the runners would substitute), so two ways of writing the
same run produce the same spec — and the same :meth:`RunSpec.cache_key`.
It is the campaign projection of the public
:class:`~repro.session.MachineSpec` (which delegates its validation,
normalization and content addressing here), and kinds resolve through
the pluggable registry in :mod:`repro.core.registry`.

The cache key is a content hash over the full spec payload *plus a code
fingerprint* of the installed ``repro`` sources, so results memoized by
the :class:`~repro.campaign.store.ResultStore` are invalidated whenever
the simulator itself changes.

A :class:`Sweep` expands cross-products of the axes into a deduplicated
job list (e.g. the baseline leg of a flywheel-config sweep collapses to a
single job).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import asdict, dataclass, fields, is_dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.config import ClockPlan, CoreConfig, FlywheelConfig, stable_hash
from repro.core.registry import KindInfo, get_kind, kind_names
from repro.core.sim import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_WARMUP,
    KIND_BASELINE,
    KIND_FLYWHEEL,
    SimResult,
    default_config,
)
from repro.errors import CampaignError, ConfigError
from repro.frontend.bpred import BPredConfig
from repro.mem.hierarchy import MemoryConfig
from repro.mem.spec import MemorySpec
from repro.workloads.profiles import get_profile

#: Default sweep axis: the paper's headline comparison pair. The
#: pipelined-wakeup machine is opt-in (it only appears in the Fig. 2
#: loop study), so default sweeps don't silently grow a third leg.
DEFAULT_SWEEP_KINDS = (KIND_BASELINE, KIND_FLYWHEEL)


def _kind_info(kind: str) -> KindInfo:
    """Registry lookup re-raised as the campaign layer's error type."""
    try:
        return get_kind(kind)
    except ConfigError:
        raise CampaignError(
            f"unknown run kind {kind!r}; expected one of "
            f"{kind_names()}") from None


#: Subpackages whose code determines simulation output (and therefore
#: stored results). Presentation layers — analysis, experiments tables,
#: power reports, the campaign machinery itself — are derived from the
#: stored stats at read time, so editing them must NOT invalidate the
#: store.
SIM_PACKAGES = ("core", "clocks", "dvfs", "ec", "execute", "frontend",
                "isa", "issue", "mem", "obs", "rename", "rob", "workloads")


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of the simulation-determining ``repro`` sources.

    Folded into every cache key so stale on-disk results cannot survive
    a change to the simulator (the ISSUE's "code version" axis), while
    CLI/docs/report-layer edits leave the store valid.
    """
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for package in SIM_PACKAGES:
        if not (root / package).is_dir():
            # A silently skipped package would quietly drop out of the
            # store-invalidation contract after a rename.
            raise CampaignError(
                f"code_fingerprint: simulation package {package!r} not "
                f"found under {root}; update SIM_PACKAGES")
        for path in sorted((root / package).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


@dataclass(frozen=True)
class RunSpec:
    """One fully specified simulation job."""

    kind: str
    bench: str
    clock: Optional[ClockPlan] = None
    config: Optional[CoreConfig] = None
    fly: Optional[FlywheelConfig] = None
    seed: Optional[int] = None
    instructions: int = DEFAULT_INSTRUCTIONS
    warmup: int = DEFAULT_WARMUP
    mem_scale: float = 1.0

    def __post_init__(self) -> None:
        info = _kind_info(self.kind)
        get_profile(self.bench)  # raises WorkloadError for unknown names
        if not info.dual_clock and self.fly is not None:
            raise CampaignError(
                f"{self.kind} spec for {self.bench!r} cannot carry a "
                "FlywheelConfig")
        if self.instructions < 1 or self.warmup < 0:
            raise CampaignError("instruction budgets must be positive")
        # Equal specs must serialize identically: JSON renders 2 and 2.0
        # differently, so an int-valued mem_scale would split cache keys.
        object.__setattr__(self, "mem_scale", float(self.mem_scale))
        # Normalize: a spec written with None axes is the *same run* as one
        # written with the defaults spelled out, so resolve them here and
        # let equality / hashing / dedup see through the difference.
        clock = self.clock or ClockPlan()
        if not info.dual_clock:
            # The synchronous kinds only see base_mhz (and the governor);
            # dropping the speedup axes collapses their legs of clock
            # sweeps.
            clock = ClockPlan(base_mhz=clock.base_mhz,
                              governor=clock.governor)
        object.__setattr__(self, "clock", clock)
        config = self.config or info.default_config()
        if info.normalize_config is not None:
            # e.g. pipelined_wakeup forces wakeup_extra_delay >= 1; the
            # spec's payload/cache key/variant() must describe the
            # machine actually simulated.
            config = info.normalize_config(config)
        object.__setattr__(self, "config", config)
        if info.dual_clock:
            object.__setattr__(self, "fly", self.fly or FlywheelConfig())

    # ----------------------------------------------------------- identity

    def payload(self) -> Dict[str, object]:
        """JSON-safe dict of everything that defines this run."""
        config = asdict(self.config)
        if config.get("mem") is None:
            # The default (derive-from-``memory``) spec serializes the
            # way pre-MemorySpec payloads did, keeping every historical
            # content address — and the PR 4 pinned hashes — intact.
            del config["mem"]
        if config.get("trace") is None:
            # Same contract for the flight recorder: an untraced run's
            # payload is byte-identical to pre-TraceSpec payloads.
            del config["trace"]
        if config.get("engine", "legacy") == "legacy":
            # And for the engine backend: a legacy-engine run's payload
            # is byte-identical to pre-turbo payloads, so every pinned
            # content address — and every warm store — survives the
            # engine axis. (Turbo runs hash distinctly on purpose: the
            # backend is supposed to be bit-identical, but a store
            # entry must record which engine actually produced it.)
            config.pop("engine", None)
        return {
            "kind": self.kind,
            "bench": self.bench,
            "clock": asdict(self.clock),
            "config": config,
            "fly": asdict(self.fly) if self.fly is not None else None,
            "seed": self.seed,
            "instructions": self.instructions,
            "warmup": self.warmup,
            "mem_scale": self.mem_scale,
        }

    def cache_key(self,
                  payload: Optional[Dict[str, object]] = None) -> str:
        """Content address: spec payload + simulator code fingerprint.

        Memoized on the spec next to the fingerprint it was computed
        under: a spec is frozen, so only the fingerprint can change its
        key, and a different fingerprint recomputes it. The memo rides
        along when a spec is pickled into a worker. A caller that
        already holds :meth:`payload` passes it to skip rebuilding it;
        it is not modified.
        """
        code = code_fingerprint()
        memo = self.__dict__.get("_key_memo")
        if memo is None or memo[0] != code:
            payload = dict(payload or self.payload(), code=code)
            memo = (code, stable_hash(payload, length=40))
            object.__setattr__(self, "_key_memo", memo)
        return memo[1]

    def variant(self) -> Dict[str, object]:
        """Non-default config/fly fields — the axes a sweep varied.

        Keys are field names (``fly.``-prefixed for FlywheelConfig),
        values the overridden settings; empty for an all-defaults run.
        Used to make config-sweep jobs distinguishable in labels,
        ``ls`` and CSV exports, where the clock/seed axes alone are
        identical across e.g. the sensitivity or ablation sweeps.
        """
        # mem/trace/engine are rendered compactly by ``label``.
        out = dict(_differing(self.config, default_config(self.kind),
                              skip=("mem", "trace", "engine")))
        if self.fly is not None:
            out.update((f"fly.{name}", value) for name, value
                       in _differing(self.fly, FlywheelConfig()))
        return out

    @cached_property
    def label(self) -> str:
        """Short human-readable job name for progress lines and ``ls``
        (computed once per spec)."""
        bits = [f"{self.kind}/{self.bench}"]
        if self.clock.fe_speedup or self.clock.be_speedup:
            bits.append(f"fe+{self.clock.fe_speedup:.0%}"
                        f",be+{self.clock.be_speedup:.0%}")
        if self.clock.base_mhz != ClockPlan().base_mhz:
            bits.append(f"{self.clock.base_mhz:.0f}MHz")
        if self.clock.governor is not None:
            gov = self.clock.governor
            bits.append(f"gov={gov.name}@{gov.interval}")
        if self.config.mem is not None:
            bits.append(f"mem={self.config.mem.label}")
        if self.config.trace is not None:
            bits.append(self.config.trace.label)
        if self.config.engine != "legacy":
            bits.append(f"engine={self.config.engine}")
        if self.seed is not None:
            bits.append(f"seed={self.seed}")
        if self.mem_scale != 1.0:
            bits.append(f"mem×{self.mem_scale:g}")
        variant = ",".join(f"{k}={v}" for k, v in self.variant().items())
        if variant:
            bits.append(variant if len(variant) <= 48
                        else variant[:45] + "...")
        return " ".join(bits)

    # ---------------------------------------------------------- execution

    def execute(self) -> SimResult:
        """Run the simulation this spec describes (in this process)."""
        return _kind_info(self.kind).runner(
            self.bench, config=self.config, fly=self.fly,
            clock=self.clock, max_instructions=self.instructions,
            warmup=self.warmup, seed=self.seed, mem_scale=self.mem_scale)

    # ----------------------------------------------- (de)serialization

    def to_dict(self) -> Dict[str, object]:
        return self.payload()

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunSpec":
        config = data.get("config")
        if config is not None:
            config = dict(config)
            config["bpred"] = BPredConfig(**config["bpred"])
            config["memory"] = MemoryConfig(**config["memory"])
            config = CoreConfig(**config)
        fly = data.get("fly")
        if fly is not None:
            fly = FlywheelConfig(**fly)
        return cls(
            kind=data["kind"],
            bench=data["bench"],
            clock=ClockPlan(**data["clock"]) if data.get("clock") else None,
            config=config,
            fly=fly,
            seed=data.get("seed"),
            instructions=data.get("instructions", DEFAULT_INSTRUCTIONS),
            warmup=data.get("warmup", DEFAULT_WARMUP),
            mem_scale=data.get("mem_scale", 1.0),
        )


def _differing(value, base, skip: Tuple[str, ...] = ()) -> Iterator[
        Tuple[str, object]]:
    """``(name, value)`` of the dataclass fields where ``value`` differs
    from ``base``. Only a differing nested config is converted, to the
    dict ``asdict`` renders, so labels read as they always have."""
    for f in fields(value):
        if f.name in skip:
            continue
        mine = getattr(value, f.name)
        if mine != getattr(base, f.name):
            yield f.name, asdict(mine) if is_dataclass(mine) else mine


def dedup(specs: Iterable[RunSpec]) -> List[RunSpec]:
    """Drop duplicate specs, keeping first-seen order.

    Specs are normalized, so duplicates are exact dataclass equals; no
    hashing of payloads is needed here.
    """
    seen = set()
    out: List[RunSpec] = []
    for spec in specs:
        if spec not in seen:
            seen.add(spec)
            out.append(spec)
    return out


@dataclass(frozen=True)
class Sweep:
    """Cross-product of run axes, expanded into a deduplicated job list.

    Every axis is a sequence; ``expand()`` yields the full product of
    kinds × benchmarks × clocks × configs × flys × seeds × mem_scales.
    Axes that do not apply to a kind are normalized away (a baseline job
    ignores the ``flys`` axis), which is where the dedup earns its keep.

    Budgets default to the library's ``run_*`` defaults (60k measured
    instructions); the experiments CLI and presets measure 30k. Budgets
    are part of the cache key, so pass ``instructions=``/``warmup=``
    explicitly when a sweep should share store entries with a
    ``python -m repro.campaign run``-warmed cache.
    """

    kinds: Tuple[str, ...] = DEFAULT_SWEEP_KINDS
    benchmarks: Tuple[str, ...] = ()
    clocks: Tuple[Optional[ClockPlan], ...] = (None,)
    configs: Tuple[Optional[CoreConfig], ...] = (None,)
    flys: Tuple[Optional[FlywheelConfig], ...] = (None,)
    seeds: Tuple[Optional[int], ...] = (None,)
    mem_scales: Tuple[float, ...] = (1.0,)
    #: Memory-system axis: each entry overrides ``config.mem`` on top of
    #: whatever the ``configs`` axis supplies (``None`` = leave as-is),
    #: so memory specs sweep first-class without hand-building configs.
    mems: Tuple[Optional[MemorySpec], ...] = (None,)
    instructions: int = DEFAULT_INSTRUCTIONS
    warmup: int = DEFAULT_WARMUP

    def expand(self) -> List[RunSpec]:
        specs = []
        for kind, bench, clock, config, fly, seed, mem_scale, mem in (
                itertools.product(self.kinds, self.benchmarks, self.clocks,
                                  self.configs, self.flys, self.seeds,
                                  self.mem_scales, self.mems)):
            if mem is not None:
                base = config or _kind_info(kind).default_config()
                config = base.with_variant(mem=mem)
            specs.append(RunSpec(
                kind=kind, bench=bench, clock=clock, config=config,
                fly=fly if _kind_info(kind).dual_clock else None,
                seed=seed, instructions=self.instructions,
                warmup=self.warmup, mem_scale=mem_scale))
        return dedup(specs)
