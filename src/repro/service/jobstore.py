"""Durable async jobs: append-only JSONL journal + dispatch manager.

The job API decouples submission from execution: ``POST /v2/jobs``
answers immediately with a job id, and the work — one run or a whole
sweep expansion — proceeds in the background while clients poll
``GET /v2/jobs/{id}``.  Durability comes from a tiny append-only
journal under the cache directory: every state transition is one JSON
line (``create`` / ``running`` / ``result`` / ``finish``), flushed on
write, so a job survives client disconnects *and* daemon restarts.

On startup the journal is replayed into memory and **compacted** —
rewritten as one ``create`` line per live job carrying its current
state — so the file stays proportional to the job population, not the
event history.  Any job that was ``queued``/``running`` when the
previous process died is re-entered as ``queued`` with its completed
points intact; the manager then re-dispatches only the indices whose
results are still missing.  Results are byte-identical either way
because specs are content-addressed (the artifact cache answers
repeats).

:class:`JobManager` is execution-agnostic: it drives an async
``runner(spec_payload, *, priority, timeout_s)`` callable returning
``(status, envelope)``.  The single-node server plugs its admission
pipeline in; the gateway plugs its shard-forwarding client in.  Both
get the same journal semantics for free.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path

from repro.service import protocol as P

#: Journal format tag written on every line.
JOURNAL_FORMAT = "repro-jobs-v1"


@dataclass
class JobRecord:
    """One async job: a run or a sweep expansion, with its progress."""

    job_id: str
    tenant: str
    kind: str                      # "run" | "sweep"
    spec_payloads: list            # serialized JobSpec dicts, in order
    priority: int = 0
    timeout_s: float | None = None
    label: str | None = None
    state: str = P.JOB_QUEUED
    created: float = 0.0
    updated: float = 0.0
    #: Per-index response envelopes; ``None`` marks a pending spec.
    results: list = field(default_factory=list)
    error: str | None = None

    def __post_init__(self) -> None:
        if not self.results:
            self.results = [None] * len(self.spec_payloads)

    @property
    def total(self) -> int:
        return len(self.spec_payloads)

    @property
    def done(self) -> int:
        return sum(1 for r in self.results if r is not None)

    @property
    def terminal(self) -> bool:
        return self.state in P.TERMINAL_JOB_STATES

    def status_payload(self, *, results: bool = False) -> dict:
        """The ``GET /v2/jobs/{id}`` rendering of this record."""
        doc = {
            "id": self.job_id,
            "kind": self.kind,
            "tenant": self.tenant,
            "state": self.state,
            "label": self.label,
            "priority": self.priority,
            "created": round(self.created, 3),
            "updated": round(self.updated, 3),
            "progress": {"done": self.done, "total": self.total},
            "error": self.error,
        }
        if results:
            doc["results"] = list(self.results)
        return doc

    def to_journal(self) -> dict:
        """Full snapshot for a compacted ``create`` line."""
        return {
            "id": self.job_id,
            "tenant": self.tenant,
            "kind": self.kind,
            "specs": self.spec_payloads,
            "priority": self.priority,
            "timeout_s": self.timeout_s,
            "label": self.label,
            "state": self.state,
            "created": self.created,
            "updated": self.updated,
            "results": self.results,
            "error": self.error,
        }

    @classmethod
    def from_journal(cls, doc: dict) -> "JobRecord":
        record = cls(
            job_id=doc["id"], tenant=doc.get("tenant", P.DEFAULT_TENANT),
            kind=doc.get("kind", P.JOB_KIND_RUN),
            spec_payloads=list(doc.get("specs", [])),
            priority=int(doc.get("priority", 0)),
            timeout_s=doc.get("timeout_s"),
            label=doc.get("label"),
            state=doc.get("state", P.JOB_QUEUED),
            created=float(doc.get("created", 0.0)),
            updated=float(doc.get("updated", 0.0)),
            error=doc.get("error"))
        results = doc.get("results")
        if isinstance(results, list) and len(results) == record.total:
            record.results = list(results)
        return record


class JobStore:
    """Append-only JSONL journal of job state, replayed on startup.

    ``path=None`` gives a purely in-memory store — same interface, no
    durability — which is what the single-node test harness uses.
    """

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.jobs: dict[str, JobRecord] = {}
        self._fh = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._replay()
            self.compact()

    # -- journal plumbing ---------------------------------------------

    def _replay(self) -> None:
        if self.path is None or not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError:
                    continue  # torn tail write from a crash
                self._apply(event)
        # A crash mid-execution leaves queued/running jobs: both come
        # back as queued — the manager re-dispatches pending indices.
        for record in self.jobs.values():
            if record.state == P.JOB_RUNNING:
                record.state = P.JOB_QUEUED

    def _apply(self, event: dict) -> None:
        kind = event.get("event")
        if kind == "create":
            record = JobRecord.from_journal(event.get("job", {}))
            if record.job_id:
                self.jobs[record.job_id] = record
            return
        record = self.jobs.get(event.get("id", ""))
        if record is None:
            return
        if kind == "running":
            record.state = P.JOB_RUNNING
            record.updated = float(event.get("t", record.updated))
        elif kind == "result":
            index = event.get("index")
            if isinstance(index, int) and 0 <= index < record.total:
                record.results[index] = event.get("envelope")
                record.updated = float(event.get("t", record.updated))
        elif kind == "finish":
            state = event.get("state")
            if state in P.TERMINAL_JOB_STATES:
                record.state = state
            record.error = event.get("error")
            record.updated = float(event.get("t", record.updated))

    def _append(self, event: dict) -> None:
        if self.path is None:
            return
        if self._fh is None:
            self._fh = self.path.open("a", encoding="utf-8")
        event["format"] = JOURNAL_FORMAT
        self._fh.write(json.dumps(event, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        self._fh.flush()

    def compact(self) -> None:
        """Rewrite the journal as one snapshot line per live job."""
        if self.path is None:
            return
        self.close()
        tmp = self.path.with_suffix(".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            for record in self.jobs.values():
                fh.write(json.dumps(
                    {"format": JOURNAL_FORMAT, "event": "create",
                     "job": record.to_journal()},
                    sort_keys=True, separators=(",", ":")) + "\n")
        tmp.replace(self.path)

    def close(self) -> None:
        if self._fh is not None:
            with contextlib.suppress(OSError):
                self._fh.close()
            self._fh = None

    # -- mutations (journal + memory stay in lockstep) -----------------

    def create(self, record: JobRecord) -> None:
        self.jobs[record.job_id] = record
        self._append({"event": "create", "job": record.to_journal()})

    def mark_running(self, record: JobRecord) -> None:
        record.state = P.JOB_RUNNING
        record.updated = time.time()
        self._append({"event": "running", "id": record.job_id,
                      "t": record.updated})

    def record_result(self, record: JobRecord, index: int,
                      envelope: dict) -> None:
        record.results[index] = envelope
        record.updated = time.time()
        self._append({"event": "result", "id": record.job_id,
                      "index": index, "envelope": envelope,
                      "t": record.updated})

    def finish(self, record: JobRecord, state: str,
               error: str | None = None) -> None:
        record.state = state
        record.error = error
        record.updated = time.time()
        self._append({"event": "finish", "id": record.job_id,
                      "state": state, "error": error,
                      "t": record.updated})


class JobManager:
    """Drives queued jobs to completion over an abstract runner.

    ``runner`` is ``async (spec_payload, *, priority, timeout_s,
    tenant) -> (status, envelope)`` — the per-spec execution hook.  A
    spec whose status is not 2xx-served still records its envelope (so
    a sweep with one rejected point finishes ``failed`` with the
    diagnostics preserved), except ``throttled``/``draining`` which
    retry with backoff: an async job has no client to re-submit, so
    admission pressure must not abort it.
    """

    #: Statuses that mean "ran to a verdict" rather than "try later".
    _SERVED = P.SERVED_STATUSES | {P.STATUS_REJECTED, P.STATUS_FAILED,
                                   P.STATUS_EXPIRED}

    def __init__(self, store: JobStore, runner, *,
                 max_attempts: int = 64,
                 retry_floor_s: float = 0.02) -> None:
        self.store = store
        self.runner = runner
        self.max_attempts = max_attempts
        self.retry_floor_s = retry_floor_s
        self._seq = itertools.count(1)
        self._tasks: dict[str, asyncio.Task] = {}
        self._cancelling: set[str] = set()
        #: Set during drain/abort: stop retrying backpressure and let
        #: interrupted jobs fall back to the journal for replay.
        self.stopping = False

    # -- identity ------------------------------------------------------

    def _job_id(self, spec_payloads: list) -> str:
        digest = sha256(json.dumps(spec_payloads, sort_keys=True)
                        .encode("utf-8")).hexdigest()
        return f"j-{digest[:10]}-{next(self._seq):04d}"

    # -- API -----------------------------------------------------------

    def submit(self, kind: str, spec_payloads: list, *,
               priority: int = 0, timeout_s: float | None = None,
               tenant: str = P.DEFAULT_TENANT,
               label: str | None = None) -> JobRecord:
        now = time.time()
        record = JobRecord(
            job_id=self._job_id(spec_payloads), tenant=tenant,
            kind=kind, spec_payloads=list(spec_payloads),
            priority=priority, timeout_s=timeout_s, label=label,
            created=now, updated=now)
        self.store.create(record)
        self._dispatch(record)
        return record

    def get(self, job_id: str) -> JobRecord | None:
        return self.store.jobs.get(job_id)

    def list_jobs(self, state: str | None = None,
                  tenant: str | None = None) -> list[JobRecord]:
        records = sorted(self.store.jobs.values(),
                         key=lambda r: (r.created, r.job_id))
        if state is not None:
            records = [r for r in records if r.state == state]
        if tenant is not None:
            records = [r for r in records if r.tenant == tenant]
        return records

    def cancel(self, job_id: str) -> JobRecord | None:
        """Request cancellation; returns the record or None."""
        record = self.store.jobs.get(job_id)
        if record is None:
            return None
        if not record.terminal:
            self._cancelling.add(job_id)
            task = self._tasks.get(job_id)
            if task is None:
                # Not dispatched (e.g. recovered but not resumed yet).
                self.store.finish(record, P.JOB_CANCELLED,
                                  "cancelled before dispatch")
        return record

    def recover(self) -> int:
        """Re-dispatch every journal-replayed non-terminal job."""
        resumed = 0
        for record in self.store.jobs.values():
            if not record.terminal and record.job_id not in self._tasks:
                self._dispatch(record)
                resumed += 1
        return resumed

    async def quiesce(self, timeout: float | None = None) -> None:
        """Wait for all running dispatch tasks (drain path)."""
        tasks = [t for t in self._tasks.values() if not t.done()]
        if tasks:
            await asyncio.wait(tasks, timeout=timeout)

    def abort(self) -> None:
        """Hard-cancel all dispatch tasks (crash simulation)."""
        for task in self._tasks.values():
            task.cancel()

    # -- execution -----------------------------------------------------

    def _dispatch(self, record: JobRecord) -> None:
        task = asyncio.get_running_loop().create_task(
            self._drive(record), name=f"repro-job-{record.job_id}")
        self._tasks[record.job_id] = task
        task.add_done_callback(
            lambda _t: self._tasks.pop(record.job_id, None))

    async def _drive(self, record: JobRecord) -> None:
        try:
            self.store.mark_running(record)
            failed = False
            for index, payload in enumerate(record.spec_payloads):
                if record.job_id in self._cancelling:
                    self._cancelling.discard(record.job_id)
                    self.store.finish(record, P.JOB_CANCELLED,
                                      "cancelled by request")
                    return
                if record.results[index] is not None:
                    continue  # replayed from the journal
                status, envelope = await self._run_spec(record, payload)
                if status not in self._SERVED and self.stopping:
                    # Interrupted by shutdown: record nothing so the
                    # journal replays this job (pending indices only).
                    return
                self.store.record_result(record, index, envelope)
                if status not in P.SERVED_STATUSES:
                    failed = True
            self._cancelling.discard(record.job_id)
            if failed:
                bad = sum(1 for r in record.results
                          if not (r or {}).get("ok"))
                self.store.finish(
                    record, P.JOB_FAILED,
                    f"{bad}/{record.total} spec(s) not served")
            else:
                self.store.finish(record, P.JOB_SUCCEEDED)
        except asyncio.CancelledError:
            # Process going down hard: leave the journal as-is; the
            # job replays as queued on the next startup.
            raise
        except Exception as exc:  # noqa: BLE001 — job must terminate
            self.store.finish(record, P.JOB_FAILED,
                              f"{type(exc).__name__}: {exc}")

    async def _run_spec(self, record: JobRecord,
                        payload: dict) -> tuple[str, dict]:
        delay = self.retry_floor_s
        last: tuple[str, dict] | None = None
        for _attempt in range(self.max_attempts):
            status, envelope = await self.runner(
                payload, priority=record.priority,
                timeout_s=record.timeout_s, tenant=record.tenant)
            last = (status, envelope)
            if status in self._SERVED:
                return status, envelope
            if self.stopping or record.job_id in self._cancelling:
                return status, envelope
            # Backpressure (throttled/draining/denied): wait and
            # retry — the job is durable, pressure is transient.
            hint = (envelope.get("error") or {}).get("retry_after_s")
            if not isinstance(hint, (int, float)) or hint <= 0:
                hint = delay
            await asyncio.sleep(min(2.0, max(self.retry_floor_s, hint)))
            delay = min(2.0, delay * 2)
        assert last is not None
        return last
