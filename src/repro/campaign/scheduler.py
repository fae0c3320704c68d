"""Resumable asynchronous campaign scheduler.

Where :func:`repro.campaign.executor.run_campaign` is a synchronous
batch primitive (and raises on the first worker failure), the
:class:`CampaignScheduler` is the serving-stack executor: it streams a
:class:`~repro.campaign.journal.CampaignRun`'s jobs to a pool of worker
*processes* (one process per job, at most ``jobs`` in flight) and
survives everything short of the host catching fire:

* **per-job timeout** — a wedged simulation is terminated and counted
  as a failed attempt, never stalling the rest of the campaign;
* **bounded retry with backoff** — a failed attempt re-queues with
  exponential backoff until ``retries`` is exhausted;
* **quarantine** — a spec that keeps failing is recorded in the journal
  with its final traceback and the campaign *continues*; the report
  lists the quarantined jobs instead of raising mid-flight;
* **crash resume** — every transition is journaled before/after the
  fact, so ``campaign resume <id>`` (→ :func:`resume_campaign`) rebuilds
  the remaining work from the journal + store alone after a SIGKILL.

A pass runs in three phases: classify every job by whether its store
record exists (a ``stat``, no parse), fork the misses into the free
worker slots, then read and emit the store hits while those workers
run; the pool loop then collects completions and refills the slots.
Events therefore arrive as ``plan``, every hit's ``result``, each
run's ``result``, ``summary``, and a miss's ``running`` journal line
may precede the hits' ``done`` lines.

Progress surfaces as :class:`~repro.session.SessionEvent` s — the same
``plan``/``result``/``summary`` schema ``Session.stream`` yields, plus
``quarantine`` — which is what the serve daemon bridges onto SSE.

Hooks (both optional, test/fault-injection seams):

* ``dispatch_hook(spec, index, attempt)`` runs in the *scheduler*
  process right before a job is dispatched; raising here aborts the
  scheduler mid-campaign exactly like a crash (the journal keeps the
  done/pending split).
* ``worker_hook(spec)`` runs in the *worker* process right before the
  simulation; raising makes that attempt fail (retry → quarantine
  path). It must be picklable on spawn-based platforms; under the
  default fork start method any callable works.
"""

from __future__ import annotations

import json
import multiprocessing
import queue as queue_mod
import time
import traceback
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.campaign.journal import CampaignRun, JobEntry, list_campaigns
from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore
from repro.core.sim import SimResult
from repro.errors import CampaignError

if TYPE_CHECKING:                 # runtime import is lazy: repro.session
    from repro.session import SessionEvent  # imports repro.campaign back


def _event(**kwargs) -> "SessionEvent":
    """Build a SessionEvent without a module-level cyclic import."""
    from repro.session import SessionEvent

    return SessionEvent(**kwargs)

__all__ = [
    "CampaignScheduler",
    "ScheduleReport",
    "list_campaigns",
    "resume_campaign",
    "submit_campaign",
]

#: Event callback: receives each SessionEvent as the campaign advances.
EventFn = Callable[["SessionEvent"], None]


@dataclass
class ScheduleReport:
    """Outcome of one scheduler pass over a campaign."""

    campaign_id: str = ""
    results: Dict[str, SimResult] = field(default_factory=dict)
    hits: int = 0                 # jobs satisfied by the store
    executed: int = 0             # jobs simulated (this pass)
    retried: int = 0              # failed attempts that were re-queued
    quarantined: List[Dict[str, str]] = field(default_factory=list)
    elapsed_s: float = 0.0
    jobs: int = 1

    @property
    def total(self) -> int:
        return self.hits + self.executed + len(self.quarantined)

    def result_for(self, spec: RunSpec) -> SimResult:
        return self.results[spec.cache_key()]

    def summary(self) -> str:
        bits = [f"{self.total} jobs: {self.hits} from cache, "
                f"{self.executed} simulated on {self.jobs} worker(s) "
                f"in {self.elapsed_s:.1f}s"]
        if self.retried:
            bits.append(f"{self.retried} retried")
        if self.quarantined:
            bits.append(f"{len(self.quarantined)} quarantined")
        return ", ".join(bits)

    def stats_payload(self) -> bytes:
        """Canonical bytes of every result's stats, keyed by cache key.

        Deliberately excludes wall-clock metadata (elapsed, created), so
        an interrupted-then-resumed campaign and an uninterrupted one
        produce **byte-identical** payloads — the crash-resume
        acceptance check compares exactly this.
        """
        stats = {key: result.stats.to_dict()
                 for key, result in sorted(self.results.items())}
        return json.dumps(stats, sort_keys=True).encode("utf-8")


def _worker(payload: Dict[str, object], index: int,
            out: "multiprocessing.Queue",
            worker_hook: Optional[Callable[[RunSpec], None]]) -> None:
    """Worker-process entry: run one spec, ship a dict (never objects)."""
    try:
        spec = RunSpec.from_dict(payload)
        if worker_hook is not None:
            worker_hook(spec)
        t0 = time.perf_counter()
        result = spec.execute()
        elapsed_s = time.perf_counter() - t0
        out.put(("ok", index, result.to_dict(), elapsed_s))
    except BaseException:
        out.put(("err", index, traceback.format_exc(), 0.0))


#: A job waiting for a worker slot: (not_before, job, spec, attempt).
_Waiting = Tuple[float, JobEntry, RunSpec, int]


@dataclass
class _Flight:
    """One in-flight worker process."""

    job: JobEntry
    spec: RunSpec
    attempt: int
    process: "multiprocessing.process.BaseProcess"
    deadline: Optional[float]


class CampaignScheduler:
    """Stream a journaled campaign's jobs through worker processes."""

    def __init__(self,
                 run: CampaignRun,
                 store: ResultStore,
                 jobs: int = 1,
                 timeout_s: Optional[float] = None,
                 retries: int = 2,
                 backoff_s: float = 0.25,
                 on_event: Optional[EventFn] = None,
                 dispatch_hook: Optional[Callable] = None,
                 worker_hook: Optional[Callable] = None):
        self.run = run
        self.store = store
        self.jobs = max(1, jobs)
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.on_event = on_event
        self.dispatch_hook = dispatch_hook
        self.worker_hook = worker_hook

    # ---------------------------------------------------------- internals

    def _emit(self, event: SessionEvent) -> None:
        if self.on_event is not None:
            self.on_event(event)

    def _spec_of(self, job: JobEntry) -> RunSpec:
        try:
            return job.spec()
        except Exception as exc:
            raise CampaignError(
                f"campaign {self.run.campaign_id}: job {job.index} payload "
                f"does not reconstruct ({exc}); was the journal written by "
                "an incompatible code version?") from exc

    # --------------------------------------------------------------- run

    def execute(self) -> ScheduleReport:
        """Drive the campaign to completion (or total quarantine).

        Jobs are classified by record existence alone (one ``stat``
        each, nothing parsed), the misses fill the worker slots, and
        only then are the store hits read and emitted, while those
        workers run. Hits include jobs a previous, crashed pass already
        simulated — that is what makes resume cheap. Existence is only
        a hint: a record that does not parse is simulated like any
        other miss. Raises only for *scheduler* faults (e.g. a
        ``dispatch_hook`` crash-injection); job failures end in
        quarantine, not an exception.
        """
        t0 = time.monotonic()
        report = ScheduleReport(campaign_id=self.run.campaign_id,
                                jobs=self.jobs)
        total = len(self.run.jobs)
        self._emit(_event(event="plan", total=total))

        # The store is the truth: on resume its records cover both
        # previously-done jobs and records another campaign produced.
        # Quarantined jobs ride with the presumed hits, so the hit pass
        # counts them in job order.
        stored: List[JobEntry] = []
        waiting: List[_Waiting] = []
        for job in self.run.jobs:
            if job.state == "quarantined" or job.key in self.store:
                stored.append(job)
            else:
                waiting.append(self._owed(job))
        done = self._drain(stored, waiting, report, total)

        report.elapsed_s = time.monotonic() - t0
        self.run.record_complete(hits=report.hits, executed=report.executed,
                                 quarantined=len(report.quarantined),
                                 retried=report.retried)
        self._emit(_event(
            event="summary", done=done, total=total, hits=report.hits,
            executed=report.executed, quarantined=len(report.quarantined),
            elapsed_s=report.elapsed_s))
        return report

    def _drain(self, stored: List[JobEntry], waiting: List[_Waiting],
               report: ScheduleReport, total: int) -> int:
        """Fork the waiting jobs, run the hit pass over ``stored`` while
        they simulate, then keep the slots filled and collect
        completions until nothing is owed; returns the jobs done."""
        out = multiprocessing.get_context().Queue()
        flights: Dict[int, _Flight] = {}
        done = 0
        try:
            self._fill(out, waiting, flights)
            for job in stored:
                if job.state == "quarantined":
                    done += 1
                    report.quarantined.append(
                        {"key": job.key, "error": job.error,
                         "label": job.label})
                    continue
                cached = self.store.get(job.key)
                if cached is None:        # torn, foreign or damaged record
                    waiting.append(self._owed(job))
                    continue
                if job.state != "done":
                    self.run.record(job.index, "done", source="store")
                report.results[job.key] = cached
                report.hits += 1
                done += 1
                self._emit(_event(
                    event="result", spec=self._spec_of(job), result=cached,
                    source="store", done=done, total=total))
            while waiting or flights:
                self._fill(out, waiting, flights)
                done = self._collect(out, flights, waiting, report,
                                     done, total)
        except BaseException:
            # Scheduler fault (crash injection, ^C): reap the flights —
            # their journal entries stay "running" and fold back to
            # pending on the next load; finished-but-uncollected work
            # is already in the store, so resume still counts it.
            for flight in flights.values():
                flight.process.terminate()
            raise
        return done

    def _owed(self, job: JobEntry) -> _Waiting:
        """A waiting-list entry for a job the store cannot answer."""
        if job.state == "done":
            # Journal says done but the record vanished (store cleaned
            # between passes) or no longer parses: owe the work again.
            job.state = "pending"
        return (0.0, job, self._spec_of(job), job.attempts + 1)

    def _fill(self, out, waiting: List[_Waiting],
              flights: Dict[int, _Flight]) -> None:
        """Dispatch waiting jobs whose backoff has elapsed into the free
        worker slots (at most ``jobs`` in flight)."""
        now = time.monotonic()
        ready = [w for w in waiting if w[0] <= now]
        while ready and len(flights) < self.jobs:
            entry = ready.pop(0)
            waiting.remove(entry)
            _nb, job, spec, attempt = entry
            if self.dispatch_hook is not None:
                self.dispatch_hook(spec, job.index, attempt)
            process = multiprocessing.get_context().Process(
                target=_worker,
                args=(job.payload, job.index, out, self.worker_hook),
                daemon=True)
            process.start()
            self.run.record(job.index, "running", attempt=attempt)
            deadline = now + self.timeout_s if self.timeout_s else None
            flights[job.index] = _Flight(job, spec, attempt, process,
                                         deadline)

    def _collect(self, out, flights: Dict[int, _Flight],
                 waiting, report: ScheduleReport,
                 done: int, total: int) -> int:
        """Collect queued completions; sweep timeouts and deaths.

        All queued messages are drained before the death sweep so a
        finished worker whose message sits behind another completion is
        never misdeclared dead. (If the one message-in-transit window
        is still hit, the attempt is retried — the store put is
        idempotent, so a spurious retry only costs wall time.)
        """
        block = True
        while True:
            try:
                tag, index, payload, elapsed_s = (
                    out.get(timeout=0.05) if block else out.get_nowait())
            except queue_mod.Empty:
                break
            block = False
            if index not in flights:
                continue          # late duplicate after a spurious retry
            flight = flights.pop(index)
            flight.process.join()
            if tag == "ok":
                result = SimResult.from_dict(payload)
                self.store.put(flight.job.key, flight.spec, result,
                               elapsed_s=elapsed_s)
                self.run.record(index, "done", source="run",
                                elapsed_s=round(elapsed_s, 6))
                report.results[flight.job.key] = result
                report.executed += 1
                done += 1
                self._emit(_event(
                    event="result", spec=flight.spec, result=result,
                    source="run", done=done, total=total))
            else:
                done = self._failed(flight, payload, waiting, report,
                                    done, total)
        now = time.monotonic()
        for index, flight in list(flights.items()):
            if flight.deadline is not None and now > flight.deadline:
                flight.process.terminate()
                flight.process.join()
                flights.pop(index)
                done = self._failed(
                    flight, f"job exceeded {self.timeout_s:g}s timeout",
                    waiting, report, done, total)
            elif not flight.process.is_alive():
                # Died without reporting (OOM-kill, segfault): drain any
                # late message, else treat as a failed attempt.
                flights.pop(index)
                done = self._failed(
                    flight, "worker process died without a result "
                    f"(exitcode {flight.process.exitcode})",
                    waiting, report, done, total)
        return done

    def _failed(self, flight: _Flight, error: str, waiting,
                report: ScheduleReport, done: int, total: int) -> int:
        if flight.attempt <= self.retries:
            self.run.record(flight.job.index, "failed",
                            attempt=flight.attempt, error=error)
            report.retried += 1
            not_before = (time.monotonic()
                          + self.backoff_s * (2 ** (flight.attempt - 1)))
            waiting.append((not_before, flight.job, flight.spec,
                            flight.attempt + 1))
            return done
        self.run.record(flight.job.index, "quarantined",
                        attempt=flight.attempt, error=error)
        report.quarantined.append({"key": flight.job.key, "error": error,
                                   "label": flight.spec.label})
        done += 1
        self._emit(_event(
            event="quarantine", spec=flight.spec, done=done, total=total,
            error=error))
        return done


def submit_campaign(specs,
                    store: Union[ResultStore, str, None],
                    jobs: int = 1,
                    timeout_s: Optional[float] = None,
                    retries: int = 2,
                    backoff_s: float = 0.25,
                    campaign_id: Optional[str] = None,
                    on_event: Optional[EventFn] = None,
                    dispatch_hook: Optional[Callable] = None,
                    worker_hook: Optional[Callable] = None
                    ) -> CampaignScheduler:
    """Journal a new campaign and return its (not yet run) scheduler.

    The scheduler options are persisted in the journal header so
    ``resume`` re-runs with the submitter's settings by default.
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    run = CampaignRun.create(
        store.root, specs, campaign_id=campaign_id,
        options={"jobs": jobs, "timeout_s": timeout_s,
                 "retries": retries, "backoff_s": backoff_s})
    return CampaignScheduler(run, store, jobs=jobs, timeout_s=timeout_s,
                             retries=retries, backoff_s=backoff_s,
                             on_event=on_event, dispatch_hook=dispatch_hook,
                             worker_hook=worker_hook)


def resume_campaign(campaign_id: str,
                    store: Union[ResultStore, str, None],
                    jobs: Optional[int] = None,
                    timeout_s: Optional[float] = None,
                    retries: Optional[int] = None,
                    on_event: Optional[EventFn] = None,
                    dispatch_hook: Optional[Callable] = None,
                    worker_hook: Optional[Callable] = None
                    ) -> CampaignScheduler:
    """Rebuild a campaign's scheduler from its journal + the store.

    Explicit arguments override the journaled submit-time options
    (``None`` keeps them). Works on complete campaigns too — every job
    then resolves as a store hit, which doubles as verification.
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    run = CampaignRun.load(store.root, campaign_id)
    opts = run.options or {}
    return CampaignScheduler(
        run, store,
        jobs=jobs if jobs is not None else int(opts.get("jobs") or 1),
        timeout_s=(timeout_s if timeout_s is not None
                   else opts.get("timeout_s")),
        retries=(retries if retries is not None
                 else int(opts.get("retries", 2))),
        backoff_s=float(opts.get("backoff_s", 0.25)),
        on_event=on_event, dispatch_hook=dispatch_hook,
        worker_hook=worker_hook)
