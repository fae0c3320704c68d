"""HTTP/SSE campaign service: payload translation, routes, the SSE
lifecycle, cache-warm resubmission, and journal replay."""

import json
import threading
import urllib.request

import pytest

from repro.campaign import CampaignRun, ResultStore, RunSpec
from repro.errors import CampaignError
from repro.serve import ServeApp, ServeClient, make_server
from repro.serve.payload import event_payload, specs_from_payload

#: Tiny budgets: every simulated spec in this file finishes in ~50ms.
N, W = 1200, 2500

SWEEP = {"kinds": ["baseline", "flywheel"], "benchmarks": ["smoke"],
         "clocks": [400, 600], "instructions": N, "warmup": W}


@pytest.fixture()
def service(tmp_path):
    store = ResultStore(tmp_path)
    app = ServeApp(store, jobs=2, retries=0, backoff_s=0.01)
    server = make_server(app, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield app, ServeClient(f"http://{host}:{port}", timeout_s=60)
    finally:
        server.shutdown()
        server.server_close()


class TestPayload:
    def test_sweep_expansion(self):
        specs = specs_from_payload(SWEEP)
        assert len(specs) == 4
        assert {s.kind for s in specs} == {"baseline", "flywheel"}
        assert {s.clock.base_mhz for s in specs} == {400.0, 600.0}
        assert all(s.instructions == N for s in specs)

    def test_clock_forms(self):
        bare = specs_from_payload({"benchmarks": ["smoke"], "clocks": [500],
                                   "instructions": N, "warmup": W})
        rich = specs_from_payload(
            {"benchmarks": ["smoke"],
             "clocks": [{"base_mhz": 500.0,
                         "governor": {"name": "occupancy"}}],
             "instructions": N, "warmup": W})
        assert bare[0].clock.base_mhz == 500.0
        assert rich[0].clock.governor.name == "occupancy"

    def test_explicit_specs_roundtrip_and_dedup(self):
        payload = RunSpec(kind="baseline", bench="smoke",
                          instructions=N, warmup=W).to_dict()
        specs = specs_from_payload({"specs": [payload, payload]})
        assert len(specs) == 1
        assert specs[0].bench == "smoke"

    @pytest.mark.parametrize("bad", [
        [],                                  # not an object
        {},                                  # no benchmarks
        {"specs": []},                       # empty spec list
        {"benchmarks": ["smoke"], "clocks": ["fast"]},
        {"benchmarks": ["smoke"], "kinds": ["no-such-kind"]},
    ])
    def test_bad_payloads_raise(self, bad):
        with pytest.raises(CampaignError):
            specs_from_payload(bad)

    def test_event_payload_is_json_safe(self, tmp_path):
        from repro.campaign.scheduler import submit_campaign

        captured = []
        submit_campaign(
            [RunSpec(kind="baseline", bench="smoke",
                     instructions=N, warmup=W)],
            ResultStore(tmp_path),
            on_event=lambda e: captured.append(event_payload(e))).execute()
        for body in captured:
            json.dumps(body)
        result = next(b for b in captured if b["event"] == "result")
        assert result["kind"] == "baseline" and result["source"] == "run"
        assert result["stats"]["committed"] > 0
        summary = captured[-1]
        assert summary["event"] == "summary"
        assert summary["executed"] == 1


class TestService:
    def test_healthz(self, service, monkeypatch):
        _, client = service
        health = client.health()
        assert health["ok"] is True and health["records"] == 0
        cid = client.submit(SWEEP)["campaign"]
        list(client.events(cid))

        def replay(*args, **kwargs):
            raise AssertionError("/healthz replayed a journal")

        monkeypatch.setattr(CampaignRun, "load", replay)
        assert client.health()["campaigns"] == 1

    def test_submit_tail_results_lifecycle(self, service):
        app, client = service
        response = client.submit(SWEEP)
        assert response["total"] == 4
        cid = response["campaign"]

        events = list(client.events(cid))
        kinds = [k for k, _ in events]
        assert kinds[0] == "plan" and kinds[-1] == "summary"
        assert kinds.count("result") == 4
        summary = events[-1][1]
        assert summary["executed"] == 4 and summary["quarantined"] == 0

        # Indexed /results answers filters without a full listing.
        rows = client.results(kind="flywheel")
        assert len(rows) == 2
        assert {row["kind"] for row in rows} == {"flywheel"}
        assert client.results(limit=3) and len(client.results(limit=3)) == 3

        status = client.status(cid)
        assert status["complete"] is True
        assert status["states"]["done"] == 4
        assert [c["campaign"] for c in client.campaigns()] == [cid]

    def test_warm_resubmission_is_all_hits(self, service):
        _, client = service
        first = client.submit(SWEEP)
        assert list(client.events(first["campaign"]))[-1][1]["executed"] == 4
        second = client.submit(SWEEP)
        assert second["campaign"] != first["campaign"]
        summary = list(client.events(second["campaign"]))[-1][1]
        assert summary["hits"] == 4 and summary["executed"] == 0

    def test_mixed_campaign_event_order(self, service):
        _, client = service
        # The 400 MHz half is stored: the 600 MHz half forks first, and
        # its results still arrive after both hits.
        list(client.events(
            client.submit(dict(SWEEP, clocks=[400]))["campaign"]))
        events = list(client.events(client.submit(SWEEP)["campaign"]))
        assert [k for k, _ in events] == (
            ["plan"] + ["result"] * 4 + ["summary"])
        results = [d for k, d in events if k == "result"]
        assert [(d["source"], d["done"]) for d in results] == [
            ("store", 1), ("store", 2), ("run", 3), ("run", 4)]
        assert all("400MHz" in d["label"] for d in results[:2])
        summary = events[-1][1]
        assert {name: summary[name] for name in (
            "done", "total", "hits", "executed", "quarantined")} == {
            "done": 4, "total": 4, "hits": 2, "executed": 2,
            "quarantined": 0}

    def test_replay_after_feed_is_gone(self, service):
        app, client = service
        # Half the sweep is stored first: the campaign mixes hits and runs.
        list(client.events(
            client.submit(dict(SWEEP, clocks=[400]))["campaign"]))
        cid = client.submit(SWEEP)["campaign"]
        live = list(client.events(cid))
        app.feeds.clear()              # daemon restarted, journal remains
        replay = list(client.events(cid))
        kinds = [k for k, _ in replay]
        assert kinds[0] == "plan" and kinds[-1] == "summary"
        assert kinds.count("result") == 4
        assert replay[-1][1]["replayed"] is True
        # Replayed results carry the stored stats.
        live_stats = sorted(json.dumps(d["stats"], sort_keys=True)
                            for k, d in live if k == "result")
        replay_stats = sorted(json.dumps(d["stats"], sort_keys=True)
                              for k, d in replay if k == "result")
        assert live_stats == replay_stats

        def sources(events):
            return {d["key"]: (d["source"], d["label"])
                    for k, d in events if k == "result"}

        assert sorted(s for s, _ in sources(live).values()) == [
            "run", "run", "store", "store"]
        assert sources(replay) == sources(live)

        def counters(summary):
            return {name: value for name, value in summary.items()
                    if name not in ("elapsed_s", "replayed")}

        assert counters(replay[-1][1]) == counters(live[-1][1])

    def test_closed_feeds_are_bounded(self, service, monkeypatch):
        monkeypatch.setattr("repro.serve.app.CLOSED_FEEDS_KEPT", 2)
        app, client = service
        cids = []
        for _ in range(4):
            cids.append(client.submit(SWEEP)["campaign"])
            list(client.events(cids[-1]))
        assert sorted(app.feeds) == sorted(cids[-2:])
        # An evicted campaign's tail replays from its journal.
        replay = list(client.events(cids[0]))
        assert replay[-1][0] == "summary" and replay[-1][1]["replayed"]
        assert replay[-1][1]["executed"] == 4

    def test_submit_hashes_each_spec_once(self, service, monkeypatch):
        import repro.campaign.spec as spec_module

        hashes = []
        stable_hash = spec_module.stable_hash

        def counted(*args, **kwargs):
            hashes.append(args)
            return stable_hash(*args, **kwargs)

        monkeypatch.setattr(spec_module, "stable_hash", counted)
        _, client = service
        response = client.submit(SWEEP)
        events = list(client.events(response["campaign"]))
        assert events[-1][1]["executed"] == 4
        # Journal, response keys and every SSE event share one key each.
        assert len(hashes) == len(response["keys"]) == 4

    def test_posted_jobs_capped_at_daemon_jobs(self, service):
        app, client = service
        for asked, used in ((64, app.jobs), (1, 1)):
            cid = client.submit(dict(SWEEP, jobs=asked))["campaign"]
            list(client.events(cid))
            run = CampaignRun.load(app.store.root, cid)
            assert run.options["jobs"] == used

    def test_error_statuses(self, service):
        _, client = service
        with pytest.raises(CampaignError, match="HTTP 400"):
            client.submit({"clocks": [400]})            # no benchmarks
        with pytest.raises(CampaignError, match="HTTP 404"):
            client.status("nonexistent")
        with pytest.raises(CampaignError, match="HTTP 404"):
            list(client.events("nonexistent"))
        base = client.base_url
        with urllib.request.urlopen(f"{base}/healthz") as response:
            assert response.status == 200
        request = urllib.request.Request(f"{base}/campaigns",
                                         data=b"{not json",
                                         headers={"Content-Type":
                                                  "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{base}/nope")
        assert err.value.code == 404
        # Malformed numbers are the client's error, not a dropped
        # connection, and a rejected POST journals nothing.
        for jobs in ("many", 2.5, True, 0, -3):
            with pytest.raises(CampaignError, match="HTTP 400"):
                client.submit(dict(SWEEP, jobs=jobs))
        for limit in ("abc", "-1"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/results?limit={limit}")
            assert err.value.code == 400
        assert client.campaigns() == []

    def test_sse_wire_format(self, service):
        _, client = service
        cid = client.submit({"benchmarks": ["smoke"], "instructions": N,
                             "warmup": W})["campaign"]
        url = f"{client.base_url}/campaigns/{cid}/events"
        with urllib.request.urlopen(url) as response:
            assert response.headers["Content-Type"] == "text/event-stream"
            raw = response.read().decode("utf-8")
        frames = [f for f in raw.split("\n\n") if f]
        assert frames[0].startswith("id: 0\nevent: plan\ndata: ")
        for frame in frames:
            lines = frame.splitlines()
            assert lines[0].startswith("id: ")
            assert lines[1].startswith("event: ")
            json.loads(lines[2][len("data: "):])
        assert "event: summary" in frames[-1]
