"""Crash-safe campaign journals (:class:`CampaignRun`).

A campaign submitted to the resumable scheduler persists everything
needed to finish it — the campaign id, every spec payload, and a
per-job state machine — as an **append-only JSONL file** next to the
store::

    <store root>/campaigns/<id>.jsonl

Line 1 is the header (schema, id, created, options, the full spec
payloads and their cache keys); every later line is one state
transition::

    {"job": 3, "state": "running", "attempt": 1, "ts": ...}
    {"job": 3, "state": "done", "source": "run", "elapsed_s": 0.41}
    {"job": 5, "state": "failed", "attempt": 1, "error": "..."}
    {"job": 5, "state": "quarantined", "error": "Traceback ..."}
    {"campaign": "...", "state": "complete", "hits": 2, "executed": 4}

Because the file is append-only and each line is written with a single
``write`` + flush, a SIGKILL can at worst tear the final line; replay
ignores any undecodable line, so :meth:`CampaignRun.load` after a crash
reconstructs the exact pre-crash state: ``done`` jobs stay done,
``running`` jobs (the ones the dead scheduler had in flight) fold back
to ``pending``, ``quarantined`` jobs stay quarantined. Combined with
the content-addressed store this is everything ``campaign resume <id>``
needs — no scheduler state survives in memory, by design.

Job states: ``pending`` → ``running`` → ``done`` | ``failed`` (will be
retried) | ``quarantined`` (retry budget exhausted; traceback kept).
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.campaign.spec import RunSpec
from repro.errors import CampaignError

#: Bumped when the journal layout changes incompatibly.
JOURNAL_SCHEMA = 1

#: Job states a journal line may record.
JOB_STATES = ("pending", "running", "done", "failed", "quarantined")


def campaigns_dir(store_root: Union[str, Path]) -> Path:
    return Path(store_root).expanduser() / "campaigns"


@dataclass
class JobEntry:
    """Replayed state of one job in a campaign."""

    index: int
    payload: Dict[str, object]
    key: str
    state: str = "pending"
    attempts: int = 0
    source: str = ""              # "store" | "run" once done
    error: str = ""               # last traceback for failed/quarantined
    #: The job's spec: the submitted object on a new journal, parsed
    #: from ``payload`` on first use after a replay.
    parsed: Optional[RunSpec] = field(default=None, repr=False,
                                      compare=False)

    @property
    def open(self) -> bool:
        """True while the scheduler still owes this job work."""
        return self.state not in ("done", "quarantined")

    def spec(self) -> RunSpec:
        if self.parsed is None:
            self.parsed = RunSpec.from_dict(self.payload)
        return self.parsed

    @property
    def label(self) -> str:
        """Best-effort job label (payloads from other code versions may
        not reconstruct into a RunSpec)."""
        try:
            return self.spec().label
        except Exception:
            return (f"{self.payload.get('kind', '?')}/"
                    f"{self.payload.get('bench', '?')}")


class CampaignRun:
    """One campaign's persisted journal: header + replayed job states."""

    def __init__(self, path: Path, campaign_id: str,
                 jobs: List[JobEntry], created: float,
                 options: Optional[Dict[str, object]] = None,
                 complete: bool = False):
        self.path = path
        self.campaign_id = campaign_id
        self.jobs = jobs
        self.created = created
        self.options = options or {}
        self.complete = complete
        #: Counters of the last ``complete`` line (hits, executed, ...).
        self.counters: Dict[str, object] = {}

    # ------------------------------------------------------ construction

    @classmethod
    def create(cls, store_root: Union[str, Path],
               specs: Iterable[RunSpec],
               options: Optional[Dict[str, object]] = None,
               campaign_id: Optional[str] = None) -> "CampaignRun":
        """Start a new journal (header written and flushed before return).

        ``specs`` are deduplicated in first-seen order — a campaign's
        job list is a set, exactly like the executor's.
        """
        from repro.campaign.spec import dedup

        specs = dedup(specs)
        if not specs:
            raise CampaignError("campaign has no jobs")
        campaign_id = campaign_id or uuid.uuid4().hex[:12]
        directory = campaigns_dir(store_root)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{campaign_id}.jsonl"
        if path.exists():
            raise CampaignError(
                f"campaign {campaign_id!r} already exists at {path}")
        created = time.time()
        jobs = []
        for i, spec in enumerate(specs):
            payload = spec.to_dict()          # built once: header and key
            jobs.append(JobEntry(index=i, payload=payload,
                                 key=spec.cache_key(payload), parsed=spec))
        header = {
            "journal": JOURNAL_SCHEMA,
            "campaign": campaign_id,
            "created": created,
            "options": options or {},
            "specs": [j.payload for j in jobs],
            "keys": [j.key for j in jobs],
        }
        run = cls(path, campaign_id, jobs, created, options)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        return run

    @classmethod
    def load(cls, store_root: Union[str, Path],
             campaign_id: str) -> "CampaignRun":
        """Replay a journal into its current state (crash-tolerant)."""
        path = campaigns_dir(store_root) / f"{campaign_id}.jsonl"
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError:
            raise CampaignError(
                f"no campaign {campaign_id!r} under "
                f"{campaigns_dir(store_root)}") from None
        header = None
        if lines:
            try:
                header = json.loads(lines[0])
            except ValueError:
                header = None
        if (not isinstance(header, dict)
                or header.get("journal") != JOURNAL_SCHEMA
                or not isinstance(header.get("specs"), list)):
            raise CampaignError(
                f"campaign journal {path} is unreadable or from a "
                "different schema")
        keys = header.get("keys") or []
        jobs = [JobEntry(index=i, payload=payload,
                         key=(keys[i] if i < len(keys) else
                              RunSpec.from_dict(payload).cache_key()))
                for i, payload in enumerate(header["specs"])]
        run = cls(path, header.get("campaign", campaign_id), jobs,
                  header.get("created", 0.0), header.get("options"))
        for line in lines[1:]:
            try:
                entry = json.loads(line)
            except ValueError:
                continue          # torn tail from a crash mid-append
            run._apply(entry)
        # In-flight jobs died with the scheduler: they owe work again.
        for job in run.jobs:
            if job.state in ("running", "failed"):
                job.state = "pending"
        return run

    def _apply(self, entry: Dict[str, object]) -> None:
        if entry.get("state") == "complete":
            self.complete = True
            self.counters = {name: value for name, value in entry.items()
                             if name not in ("campaign", "state", "ts")}
            return
        index = entry.get("job")
        state = entry.get("state")
        if (not isinstance(index, int) or not (0 <= index < len(self.jobs))
                or state not in JOB_STATES):
            return                # foreign/damaged line: ignore
        job = self.jobs[index]
        job.state = state
        job.attempts = int(entry.get("attempt", job.attempts) or 0)
        if "source" in entry:
            job.source = entry["source"]
        if "error" in entry:
            job.error = entry["error"]

    # ------------------------------------------------------- transitions

    def record(self, index: int, state: str, **extra) -> None:
        """Append one job transition (applied in memory too) and flush.

        A flush is enough to survive ``kill -9`` (the data is in the
        kernel); only power loss could lose a tail line, and replay
        tolerates that.
        """
        if state not in JOB_STATES:
            raise CampaignError(f"unknown job state {state!r}")
        entry = {"job": index, "state": state, "ts": round(time.time(), 3)}
        entry.update(extra)
        self._append(entry)
        self._apply(entry)

    def record_complete(self, **counters) -> None:
        entry = {"campaign": self.campaign_id, "state": "complete",
                 "ts": round(time.time(), 3)}
        entry.update(counters)
        self._append(entry)
        self._apply(entry)

    def _append(self, entry: Dict[str, object]) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
            fh.flush()

    # ------------------------------------------------------------ status

    def state_counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs:
            counts[job.state] += 1
        return counts

    def pending(self) -> List[JobEntry]:
        return [job for job in self.jobs if job.open]

    def status(self) -> Dict[str, object]:
        """JSON-safe summary (the serve daemon's /campaigns payload)."""
        counts = self.state_counts()
        return {
            "campaign": self.campaign_id,
            "created": self.created,
            "total": len(self.jobs),
            "complete": self.complete,
            "states": counts,
            "quarantined": [
                {"label": job.label, "key": job.key, "error": job.error}
                for job in self.jobs if job.state == "quarantined"],
        }


def list_campaigns(store_root: Union[str, Path]) -> List[Dict[str, object]]:
    """Status summaries for every readable journal, newest first."""
    directory = campaigns_dir(store_root)
    if not directory.is_dir():
        return []
    out = []
    for path in directory.glob("*.jsonl"):
        try:
            run = CampaignRun.load(store_root, path.stem)
        except CampaignError:
            continue
        out.append(run.status())
    out.sort(key=lambda status: status["created"], reverse=True)
    return out
