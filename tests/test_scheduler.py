"""Resumable scheduler: journal replay, retry/backoff, quarantine,
per-job timeout, and crash-resume equivalence."""

import hashlib
import json
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignRun,
    CampaignScheduler,
    ResultStore,
    RunSpec,
    list_campaigns,
    resume_campaign,
    submit_campaign,
)
from repro.errors import CampaignError

#: Tiny budgets: every simulated spec in this file finishes in ~50ms.
N, W = 1200, 2500


def spec(kind="baseline", bench="smoke", **kw):
    kw.setdefault("instructions", N)
    kw.setdefault("warmup", W)
    return RunSpec(kind=kind, bench=bench, **kw)


def specs(n):
    return [spec(seed=i + 1) for i in range(n)]


def fail_once_hook(marker_dir):
    """Worker hook: first attempt per key raises, later attempts pass."""
    def hook(s):
        marker = Path(marker_dir) / s.cache_key()
        if not marker.exists():
            marker.write_text("seen")
            raise RuntimeError("injected first-attempt failure")
    return hook


def always_fail_hook(s):
    raise ValueError("this spec is poisoned")


def sleepy_hook(s):
    time.sleep(30)


class TestSchedulerBasics:
    def test_cold_run_then_resume_is_all_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        scheduler = submit_campaign(specs(3), store, jobs=2)
        report = scheduler.execute()
        assert report.executed == 3 and report.hits == 0
        assert not report.quarantined
        assert scheduler.run.complete

        resumed = resume_campaign(scheduler.run.campaign_id, store)
        report2 = resumed.execute()
        assert report2.hits == 3 and report2.executed == 0
        assert report2.stats_payload() == report.stats_payload()

    def test_event_stream_shape(self, tmp_path):
        events = []
        scheduler = submit_campaign(specs(2), ResultStore(tmp_path),
                                    jobs=2, on_event=events.append)
        scheduler.execute()
        kinds = [e.event for e in events]
        assert kinds[0] == "plan" and kinds[-1] == "summary"
        assert kinds.count("result") == 2
        assert all(e.source == "run" for e in events
                   if e.event == "result")
        summary = events[-1]
        assert summary.executed == 2 and summary.hits == 0
        assert summary.done == summary.total == 2

    def test_options_journaled_and_overridable(self, tmp_path):
        store = ResultStore(tmp_path)
        scheduler = submit_campaign(specs(1), store, jobs=3,
                                    timeout_s=42.0, retries=5)
        cid = scheduler.run.campaign_id
        resumed = resume_campaign(cid, store)
        assert resumed.jobs == 3
        assert resumed.timeout_s == 42.0
        assert resumed.retries == 5
        overridden = resume_campaign(cid, store, jobs=1, retries=0)
        assert overridden.jobs == 1 and overridden.retries == 0
        assert overridden.timeout_s == 42.0


class TestFailureHandling:
    def test_retry_with_backoff_then_success(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        markers = tmp_path / "markers"
        markers.mkdir()
        scheduler = submit_campaign(
            specs(2), store, jobs=2, retries=2, backoff_s=0.01,
            worker_hook=fail_once_hook(str(markers)))
        report = scheduler.execute()
        assert report.executed == 2
        assert report.retried == 2          # one failed attempt per job
        assert not report.quarantined
        # The journal kept the failed attempts on record.
        run = CampaignRun.load(store.root, scheduler.run.campaign_id)
        assert all(job.state == "done" for job in run.jobs)
        assert all(job.attempts == 2 for job in run.jobs)

    def test_quarantine_does_not_abort_campaign(self, tmp_path):
        store = ResultStore(tmp_path)
        good, bad = spec(seed=1), spec(seed=2, bench="gcc")

        def poison_gcc(s):
            if s.bench == "gcc":
                raise ValueError("this spec is poisoned")

        events = []
        scheduler = submit_campaign(
            [good, bad], store, jobs=1, retries=1, backoff_s=0.01,
            worker_hook=poison_gcc, on_event=events.append)
        report = scheduler.execute()
        assert report.executed == 1
        assert len(report.quarantined) == 1
        assert "poisoned" in report.quarantined[0]["error"]
        assert "Traceback" in report.quarantined[0]["error"]
        assert "quarantined" in report.summary()
        assert any(e.event == "quarantine" and e.error for e in events)
        # Journal: quarantined state with traceback, campaign complete.
        run = CampaignRun.load(store.root, scheduler.run.campaign_id)
        states = {job.key: job.state for job in run.jobs}
        assert states[bad.cache_key()] == "quarantined"
        assert states[good.cache_key()] == "done"
        assert run.complete
        # Resume does not retry quarantined jobs.
        report2 = resume_campaign(scheduler.run.campaign_id, store,
                                  worker_hook=poison_gcc).execute()
        assert report2.hits == 1 and report2.executed == 0
        assert len(report2.quarantined) == 1

    def test_timeout_terminates_wedged_worker(self, tmp_path):
        store = ResultStore(tmp_path)
        scheduler = submit_campaign(
            specs(1), store, jobs=1, timeout_s=0.5, retries=0,
            backoff_s=0.01, worker_hook=sleepy_hook)
        t0 = time.monotonic()
        report = scheduler.execute()
        assert time.monotonic() - t0 < 20   # nowhere near the 30s sleep
        assert len(report.quarantined) == 1
        assert "timeout" in report.quarantined[0]["error"]


class _Crash(BaseException):
    """Raised by the dispatch hook; BaseException so nothing swallows it."""


class TestCrashResume:
    def test_resume_executes_exactly_the_remaining_jobs(self, tmp_path):
        jobs = specs(4)
        store = ResultStore(tmp_path / "a")
        dispatches = []

        def crash_on_third(s, index, attempt):
            dispatches.append(index)
            if len(dispatches) == 3:
                raise _Crash("injected scheduler crash")

        scheduler = submit_campaign(jobs, store, jobs=1,
                                    dispatch_hook=crash_on_third)
        cid = scheduler.run.campaign_id
        with pytest.raises(_Crash):
            scheduler.execute()

        # The journal alone knows the split: 2 done, 2 owed.
        run = CampaignRun.load(store.root, cid)
        counts = run.state_counts()
        assert counts["done"] == 2 and counts["pending"] == 2
        assert not run.complete

        events = []
        report = resume_campaign(cid, store,
                                 on_event=events.append).execute()
        assert report.executed == 2          # exactly N - K, no rework
        assert report.hits == 2
        assert report.total == 4
        assert CampaignRun.load(store.root, cid).complete
        sources = [e.source for e in events if e.event == "result"]
        assert sources.count("store") == 2 and sources.count("run") == 2

        # Byte-identical final report vs. an uninterrupted campaign.
        clean = submit_campaign(jobs, ResultStore(tmp_path / "b"),
                                jobs=1).execute()
        assert report.stats_payload() == clean.stats_payload()

    def test_kill_mid_flight_folds_running_back_to_pending(self, tmp_path):
        store = ResultStore(tmp_path)
        run = CampaignRun.create(store.root, specs(2))
        run.record(0, "running", attempt=1)   # then the process dies
        reloaded = CampaignRun.load(store.root, run.campaign_id)
        assert [j.state for j in reloaded.jobs] == ["pending", "pending"]


def _truncate(record):
    return json.dumps(record)[:40]           # a torn write: invalid JSON


def _foreign_schema(record):
    return json.dumps(dict(record, schema=99))


def _damaged_result(record):
    return json.dumps(dict(record, result={"stats": "garbage"}))


class TestPhaseOrder:
    """Misses fork first, then the hit pass runs while they simulate."""

    def test_misses_dispatch_before_the_first_store_read(self, tmp_path,
                                                         monkeypatch):
        store = ResultStore(tmp_path)
        jobs = specs(4)
        submit_campaign(jobs[::2], store, jobs=2).execute()
        calls = []
        get = ResultStore.get

        def counted_get(self, key):
            calls.append("get")
            return get(self, key)

        monkeypatch.setattr(ResultStore, "get", counted_get)
        report = submit_campaign(
            jobs, store, jobs=2,
            dispatch_hook=lambda *args: calls.append("dispatch")).execute()
        assert report.hits == 2 and report.executed == 2
        assert calls.index("dispatch") < calls.index("get")

    def test_mixed_campaign_event_order(self, tmp_path):
        store = ResultStore(tmp_path)
        jobs = specs(4)
        submit_campaign(jobs[1::2], store, jobs=2).execute()
        events = []
        report = submit_campaign(jobs, store, jobs=2,
                                 on_event=events.append).execute()
        assert [e.event for e in events] == (
            ["plan"] + ["result"] * 4 + ["summary"])
        results = events[1:-1]
        # Every hit, in job order, before any run's result.
        assert [(e.source, e.done) for e in results] == [
            ("store", 1), ("store", 2), ("run", 3), ("run", 4)]
        assert [e.spec for e in results[:2]] == jobs[1::2]
        assert {e.spec for e in results[2:]} == set(jobs[::2])
        summary = events[-1]
        assert (summary.done, summary.total, summary.hits,
                summary.executed, summary.quarantined) == (4, 4, 2, 2, 0)
        assert (report.hits, report.executed, report.retried) == (2, 2, 0)

    @pytest.mark.parametrize("damage", [_truncate, _foreign_schema,
                                        _damaged_result])
    def test_unreadable_record_is_simulated_not_a_hit(self, tmp_path,
                                                      damage):
        store = ResultStore(tmp_path)
        jobs = specs(3)
        clean = submit_campaign(jobs, store, jobs=2).execute()
        key = jobs[1].cache_key()
        path = store._path(key)
        path.write_text(damage(json.loads(path.read_text())))
        assert key in store                  # exists, but does not parse

        events = []
        scheduler = submit_campaign(jobs, store, jobs=2,
                                    on_event=events.append)
        report = scheduler.execute()
        assert (report.hits, report.executed) == (2, 1)
        sources = [(e.spec.cache_key(), e.source) for e in events
                   if e.event == "result"]
        assert [source for k, source in sources if k == key] == ["run"]
        assert events[-1].hits == 2 and events[-1].executed == 1
        run = CampaignRun.load(store.root, scheduler.run.campaign_id)
        assert run.jobs[1].state == "done" and run.jobs[1].source == "run"
        assert store.get(key) is not None    # the record was rewritten
        assert report.stats_payload() == clean.stats_payload()


#: SHA-256 of a journal header and of store records (minus wall-clock
#: fields and results) for ``pinned_specs()`` under a fixed code
#: fingerprint, campaign id and clock. Captured before spec identities
#: were memoized; the bytes on disk must not change.
PINNED_HEADER = (
    "15d2a9c7daabfb1f2b1658d67e4a741a3db9e9fade518e91671d17eb0430f0b2")
PINNED_RECORDS = {
    "2ffe50556832e722b884311f8e3114e2f069fcbc":
        "0a54907d5af5b7a126faa7e696054b6843856d69daf25f380b197ef9d12f0e96",
    "a304c95528794c0e91049291c8fa94a2fa0fb2c4":
        "5995667a071cc067c62614850319a23af20c38683543ade5e264b9b361c5c6e8",
    "5d34c652139f6de5d58cf59934fc72896935d468":
        "3e0f655d1f0dca30608b7141c47f80fc27a22ebb36df4990f20fad7a894b81da",
}


def pinned_specs():
    from repro.core.config import ClockPlan, CoreConfig

    return [spec(seed=1),
            spec(kind="flywheel", clock=ClockPlan(fe_speedup=0.5)),
            spec(config=CoreConfig(iw_entries=64), mem_scale=2.0)]


class TestJournal:
    def test_header_and_records_keep_their_bytes(self, tmp_path,
                                                 monkeypatch):
        for module in ("repro.campaign.spec", "repro.campaign.store"):
            monkeypatch.setattr(f"{module}.code_fingerprint",
                                lambda: "feedc0de0000")
        store = ResultStore(tmp_path)
        with monkeypatch.context() as clock:
            clock.setattr(time, "time", lambda: 1000.0)
            run = CampaignRun.create(store.root, pinned_specs(),
                                     campaign_id="pinned",
                                     options={"jobs": 1})
        header = run.path.read_bytes().splitlines()[0]
        assert hashlib.sha256(header).hexdigest() == PINNED_HEADER
        report = CampaignScheduler(run, store).execute()
        digests = {}
        for key, result in report.results.items():
            record = json.loads(store._path(key).read_text())
            assert record["result"] == result.to_dict()
            fixed = {name: value for name, value in record.items()
                     if name not in ("created", "elapsed_s", "result")}
            digests[key] = hashlib.sha256(json.dumps(
                fixed, sort_keys=True).encode()).hexdigest()
        assert digests == PINNED_RECORDS

    def test_create_rejects_empty_and_duplicate(self, tmp_path):
        with pytest.raises(CampaignError):
            CampaignRun.create(tmp_path, [])
        CampaignRun.create(tmp_path, specs(1), campaign_id="dup")
        with pytest.raises(CampaignError):
            CampaignRun.create(tmp_path, specs(1), campaign_id="dup")

    def test_load_tolerates_torn_tail(self, tmp_path):
        run = CampaignRun.create(tmp_path, specs(2))
        run.record(0, "done", source="run")
        with open(run.path, "a", encoding="utf-8") as fh:
            fh.write('{"job": 1, "state": "don')   # SIGKILL mid-append
        reloaded = CampaignRun.load(tmp_path, run.campaign_id)
        assert reloaded.jobs[0].state == "done"
        assert reloaded.jobs[1].state == "pending"

    def test_load_ignores_foreign_lines(self, tmp_path):
        run = CampaignRun.create(tmp_path, specs(1))
        with open(run.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"job": 99, "state": "done"}) + "\n")
            fh.write(json.dumps({"job": 0, "state": "warp"}) + "\n")
        reloaded = CampaignRun.load(tmp_path, run.campaign_id)
        assert reloaded.jobs[0].state == "pending"

    def test_load_unknown_campaign_raises(self, tmp_path):
        with pytest.raises(CampaignError):
            CampaignRun.load(tmp_path, "missing")

    def test_status_and_listing(self, tmp_path):
        first = CampaignRun.create(tmp_path, specs(2), campaign_id="one")
        first.record(0, "done", source="run")
        first.record(1, "quarantined", error="Traceback ... boom")
        first.record_complete(hits=0, executed=1)
        time.sleep(0.01)
        CampaignRun.create(tmp_path, specs(1), campaign_id="two")

        status = CampaignRun.load(tmp_path, "one").status()
        assert status["complete"] is True
        assert status["states"]["done"] == 1
        assert status["quarantined"][0]["error"].endswith("boom")
        json.dumps(status)                   # JSON-safe end to end

        listed = list_campaigns(tmp_path)
        assert [s["campaign"] for s in listed] == ["two", "one"]
