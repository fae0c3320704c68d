"""In-memory span recorder and the layer wrappers of the traced run.

Spans are recorded from outside the package: :func:`install` wraps the
public entry points of each ``repro`` layer (by replacing module and
class attributes) and every call through them becomes one span with a
name, start, end, parent and request id. Modules are patched as they
are imported, through a meta-path hook, so a fresh process can trace
its own ``import repro``; already imported modules are patched in
place. Forked workers inherit the wrappers and the open span stack, so
a worker's spans name the scheduler or executor span that forked them
as their parent; spawned processes (the cold-run child, the traced
daemon) are linked to the driver's spans by time containment when the
trace is analysed.

Spans stay in memory. A worker writes its spans to ``spans-<pid>.jsonl``
in the trace directory after each job (pool workers end by signal, so
there is no later point); other processes write theirs once, at exit.
All timestamps are ``time.perf_counter()``, which on Linux reads the
system-wide monotonic clock, so spans from different processes share
one time axis.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import itertools
import json
import os
import sys
import threading
from pathlib import Path
from time import perf_counter

__all__ = ["Recorder", "install"]


class Recorder:
    """Span buffer of one process, plus the per-thread open-span stack."""

    def __init__(self, trace_dir, proc: str, level: int):
        self.trace_dir = Path(trace_dir)
        self.proc = proc
        self.level = level          # 0 driver, 1 its children, 2 theirs
        self.pid = os.getpid()
        self.rid = None             # request id (driver only)
        self.spans = []
        self.dispatch_t = None      # scheduler dispatch time, seen by forks
        self.worker_span = None     # open "scheduler.exec" of a worker
        self._seq = itertools.count(1)
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The forking thread's open spans stay on the child's stack, so
        # the worker's first spans take the span that forked it as parent.
        self.pid = os.getpid()
        self.proc = "worker"
        self.level += 1
        self.spans = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, wait: bool = False, start=None) -> dict:
        """Start a span; ``wait`` marks a span that mostly blocks."""
        stack = self._stack()
        parent = stack[-1]["id"] if stack else None
        span = {"name": name, "id": f"{self.pid}:{next(self._seq)}",
                "parent": parent, "pid": self.pid, "proc": self.proc,
                "level": self.level, "rid": self.rid, "wait": wait,
                "start": perf_counter() if start is None else start,
                "end": None, "attrs": {}}
        stack.append(span)
        return span

    def close(self, span: dict, end=None) -> None:
        span["end"] = perf_counter() if end is None else end
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        self.spans.append(span)

    def mark(self, name: str, **attrs) -> None:
        """A zero-length span carrying a count or a key."""
        span = self.open(name)
        span["attrs"].update(attrs)
        span["end"] = span["start"]
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, fn, wait: bool = False, after=None):
        """``fn`` recorded as span ``name``; ``after(span, result, args)``
        may attach attributes from the call's result."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder.open(name, wait=wait)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(span, result, args)
            return result

        return traced

    def flush(self) -> None:
        """Append this process's finished spans to its own file."""
        if not self.spans:
            return
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def _patch_method(rec: Recorder, cls, attr: str, name: str, **kw) -> None:
    original = cls.__dict__[attr]
    if isinstance(original, classmethod):
        setattr(cls, attr, classmethod(rec.wrap(name, original.__func__,
                                                **kw)))
    else:
        setattr(cls, attr, rec.wrap(name, original, **kw))


# --------------------------------------------------------------- patches
# One function per module: (recorder, module) -> None. Each is applied
# once, right after the module body runs.

def _patch_sim(rec, mod) -> None:
    mod.generate_program = rec.wrap("workloads.generate", mod.generate_program)
    _patch_method(rec, mod.SimResult, "to_dict", "result.to_dict")
    _patch_method(rec, mod.SimResult, "from_dict", "result.from_dict")


def _patch_pool(rec, mod) -> None:
    get_pool = mod.get_pool

    @functools.wraps(get_pool)
    def traced_get_pool(program, seed, bpred_config):
        cached = set(map(id, mod._POOL_CACHE.values()))
        pool = get_pool(program, seed, bpred_config)
        rec.mark("pool.get", hit=int(id(pool) in cached))
        return pool

    mod.get_pool = traced_get_pool
    # The engines bind get_pool by name at their own import.
    for name in ("sync", "fly", "vector"):
        engine = sys.modules.get(f"repro.core.engine.turbo.{name}")
        if engine is not None:
            engine.get_pool = traced_get_pool
    init = mod.StreamPool.__init__

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        rec.mark("pool.new")
        init(self, *args, **kwargs)

    mod.StreamPool.__init__ = traced_init
    _patch_method(rec, mod.StreamPool, "_grow", "pool.build")
    _patch_method(rec, mod.RenamePlan, "_grow", "pool.build")


def _cycles(span, stats, _args) -> None:
    span["attrs"]["cycles"] = stats.total_be_cycles


def _patch_baseline(rec, mod) -> None:
    _patch_method(rec, mod.BaselineCore, "run", "core.run", after=_cycles)


def _patch_flywheel(rec, mod) -> None:
    _patch_method(rec, mod.FlywheelCore, "run", "core.run", after=_cycles)


def _patch_spec(rec, mod) -> None:
    _patch_method(rec, mod.RunSpec, "cache_key", "spec.cache_key")
    _patch_method(rec, mod.RunSpec, "execute", "spec.execute")


def _patch_executor(rec, mod) -> None:
    mod.run_campaign = rec.wrap("executor.run", mod.run_campaign, wait=True)
    session = sys.modules.get("repro.session")
    if session is not None:
        session.run_campaign = mod.run_campaign
    execute = mod._execute_detached

    @functools.wraps(execute)
    def traced_execute(spec):
        span = rec.open("executor.job")
        try:
            key, payload, elapsed_s = execute(spec)
        finally:
            rec.close(span)
        span["attrs"]["key"] = key
        rec.flush()
        return key, payload, elapsed_s

    mod._execute_detached = traced_execute
    finish = mod._finish

    @functools.wraps(finish)
    def traced_finish(spec, key, *args, **kwargs):
        rec.mark("executor.arrive", key=key)
        return finish(spec, key, *args, **kwargs)

    mod._finish = traced_finish


def _patch_scheduler(rec, mod) -> None:
    cls = mod.CampaignScheduler
    init = cls.__init__

    def dispatch_hook(spec, index, attempt):
        rec.dispatch_t = perf_counter()

    def worker_hook(spec):
        # Runs in the forked worker: dispatch until here is spawn time.
        rec.close(rec.open("scheduler.spawn", start=rec.dispatch_t))
        rec.worker_span = rec.open("scheduler.exec")

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        # The benchmark's schedulers take no hooks of their own.
        init(self, *args, **kwargs)
        self.dispatch_hook = dispatch_hook
        self.worker_hook = worker_hook

    cls.__init__ = traced_init
    worker = mod._worker

    @functools.wraps(worker)
    def traced_worker(*args, **kwargs):
        rec.worker_span = None
        try:
            worker(*args, **kwargs)
        finally:
            if rec.worker_span is not None:
                rec.close(rec.worker_span)
            rec.flush()

    mod._worker = traced_worker

    def retried(span, report, _args):
        span["attrs"]["retried"] = report.retried

    _patch_method(rec, cls, "execute", "scheduler.loop", after=retried)
    _patch_method(rec, cls, "_collect", "scheduler.collect", wait=True)


def _patch_store(rec, mod) -> None:
    def hit(span, result, _args):
        span["attrs"]["hit"] = int(result is not None)

    def size(span, _result, args):
        store, key = args[0], args[1]
        span["attrs"]["bytes"] = store._path(key).stat().st_size

    _patch_method(rec, mod.ResultStore, "get", "store.get", after=hit)
    _patch_method(rec, mod.ResultStore, "put", "store.put", after=size)
    scan = mod.ResultStore._scan_records

    @functools.wraps(scan)
    def traced_scan(self, filters):
        # A generator: count the fallback; its time is its caller's.
        rec.mark("index.fallback_scan")
        return scan(self, filters)

    mod.ResultStore._scan_records = traced_scan


def _patch_journal(rec, mod) -> None:
    _patch_method(rec, mod.CampaignRun, "create", "journal.create")
    _patch_method(rec, mod.CampaignRun, "record", "journal.record")
    _patch_method(rec, mod.CampaignRun, "record_complete", "journal.record")


def _patch_index(rec, mod) -> None:
    _patch_method(rec, mod.StoreIndex, "query", "index.query")
    _patch_method(rec, mod.StoreIndex, "refresh", "index.refresh")
    _patch_method(rec, mod.StoreIndex, "note_put", "index.update")


def _patch_serve(rec, mod) -> None:
    _patch_method(rec, mod.ServeApp, "submit", "serve.submit")
    _patch_method(rec, mod.ServeApp, "results", "serve.results")


PATCHES = {
    "repro.core.sim": _patch_sim,
    "repro.core.engine.turbo.pool": _patch_pool,
    "repro.core.baseline": _patch_baseline,
    "repro.core.flywheel": _patch_flywheel,
    "repro.campaign.spec": _patch_spec,
    "repro.campaign.executor": _patch_executor,
    "repro.campaign.scheduler": _patch_scheduler,
    "repro.campaign.store": _patch_store,
    "repro.campaign.journal": _patch_journal,
    "repro.campaign.index": _patch_index,
    "repro.serve.app": _patch_serve,
}


#: Modules loaded on first use of the turbo engine (``MachineSpec``
#: checks for NumPy); their import is an ``import`` span of its own.
LAZY_IMPORTS = ("numpy", "repro.core.engine.turbo")


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Applies a module's patch right after the module body runs, and
    records the lazy imports as ``import`` spans."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    def find_spec(self, fullname, path, target=None):
        patch = PATCHES.get(fullname)
        timed = fullname in LAZY_IMPORTS
        if patch is None and not timed:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        exec_module = spec.loader.exec_module
        recorder = self.recorder

        def exec_and_patch(module):
            span = recorder.open("import") if timed else None
            try:
                exec_module(module)
            finally:
                if span is not None:
                    recorder.close(span)
            if patch is not None:
                patch(recorder, module)

        spec.loader.exec_module = exec_and_patch
        return spec


def install(trace_dir, proc: str, level: int) -> Recorder:
    """Create this process's recorder and wrap every traced layer."""
    recorder = Recorder(trace_dir, proc, level)
    for name, patch in PATCHES.items():
        if name in sys.modules:
            patch(recorder, sys.modules[name])
    sys.meta_path.insert(0, _PatchOnImport(recorder))
    return recorder
