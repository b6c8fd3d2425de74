"""Scheduling: bounded priority queue + micro-batched engine dispatch.

Admitted jobs wait in a priority queue (lower ``priority`` value runs
first; FIFO within a priority level via a monotonic sequence number).
A single dispatcher task drains the queue into *micro-batches*: it
waits ``batch_window_s`` after the first job arrives so closely spaced
requests ride one :func:`repro.engine.pool.run_jobs` submission —
amortizing pool startup when ``jobs > 1`` and letting the engine's
dedup/cache/lint machinery see the whole batch at once.  The blocking
engine call runs on a worker thread (``loop.run_in_executor``), so the
event loop keeps admitting requests and serving scrapes while a batch
simulates.

Backpressure is bounded end-to-end, not just at the queue: the
capacity check counts every admitted-but-unanswered job (queued *and*
executing), so a slow batch cannot hide unbounded buffering behind an
"empty" queue.  When the bound is hit, admission answers 429 with a
``Retry-After`` hint instead of enqueueing.

Each job carries an optional deadline.  A job whose deadline has
already passed when the dispatcher pops it is answered ``expired``
(504) without burning an engine slot; deadlines during execution are
governed by the engine's own per-job ``timeout`` (pooled mode).
"""

from __future__ import annotations

import asyncio
import contextlib
import heapq
import itertools
import time
from dataclasses import dataclass, field

from repro.engine.cache import ArtifactCache, result_to_dict
from repro.engine.jobs import JobSpec
from repro.engine.pool import run_jobs
from repro.engine.report import DUPLICATE, EXECUTED, HIT, REJECTED

from repro.service import protocol as P


class QueueFull(Exception):
    """Raised by :meth:`Scheduler.submit` when the bound is hit."""


@dataclass
class JobOutcome:
    """Terminal verdict for one admitted job."""

    status: str
    payload: dict | None = None
    error: str | None = None
    diagnostics: list = field(default_factory=list)


@dataclass(order=True)
class _QueueEntry:
    priority: int
    seq: int
    job: "Job" = field(compare=False)


class Job:
    """One admitted run request travelling through the scheduler."""

    __slots__ = ("spec", "job_hash", "priority", "future", "enqueued_at",
                 "deadline", "waiters", "cost")

    def __init__(self, spec: JobSpec, job_hash: str, priority: int,
                 future: asyncio.Future, deadline: float | None,
                 cost: int | None = None) -> None:
        self.spec = spec
        self.job_hash = job_hash
        self.priority = priority
        self.future = future
        self.enqueued_at = time.perf_counter()
        self.deadline = deadline
        #: How many coalesced requests share this job's future.
        self.waiters = 1
        #: Cycles a finished run of the job's shape took (None for a
        #: shape never run); feeds queue-wait estimates.
        self.cost = cost


class Scheduler:
    """Owns the queue, the in-flight registry, and the dispatch loop."""

    def __init__(self, *, queue_limit: int = 64, jobs: int = 1,
                 batch_window_s: float = 0.005, batch_max: int = 16,
                 cache: ArtifactCache | None = None,
                 timeout: float | None = None, retries: int = 1,
                 worker=None, instruments=None, events=None) -> None:
        self.queue_limit = max(1, int(queue_limit))
        self.jobs = max(1, int(jobs))
        self.batch_window_s = max(0.0, float(batch_window_s))
        self.batch_max = max(1, int(batch_max))
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.worker = worker
        self.instruments = instruments
        self.events = events

        self._heap: list[_QueueEntry] = []
        self._seq = itertools.count()
        #: job_hash -> Job for every admitted-but-unanswered primary.
        self.inflight: dict[str, Job] = {}
        self._wakeup = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._task: asyncio.Task | None = None
        self._executing = 0
        #: Throughput calibration from executed jobs: simulated
        #: cycles delivered vs wall seconds spent executing them.
        self._cycles_done = 0
        self._wall_done = 0.0

    # -- capacity ------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Admitted jobs not yet answered (queued + executing)."""
        return len(self.inflight)

    @property
    def queue_depth(self) -> int:
        return len(self._heap)

    def cycles_per_s(self) -> float | None:
        """Calibrated simulation throughput, or None before any job
        executed."""
        if self._cycles_done > 0 and self._wall_done > 0.0:
            return self._cycles_done / self._wall_done
        return None

    def estimated_wait_s(self) -> float | None:
        """Predicted time to drain the current queue.

        Needs both a calibrated throughput and a cost estimate on
        every queued job; returns None otherwise (callers fall back to
        the latency-histogram heuristic).
        """
        rate = self.cycles_per_s()
        if rate is None or not self._heap:
            return None
        costs = [entry.job.cost for entry in self._heap]
        if any(cost is None for cost in costs):
            return None
        return sum(costs) / rate

    def retry_after_s(self) -> float:
        """Backpressure hint: rough time for one queued job to clear.

        Prefers the cost-model estimate (predicted queued cycles over
        calibrated throughput); falls back to the observed latency
        histogram, then to a flat 0.5s before any data exists.
        """
        estimate = self.estimated_wait_s()
        if estimate is not None:
            return max(0.05, min(30.0, estimate))
        hist = getattr(self.instruments, "latency_ms", None)
        if hist is not None and hist.count:
            return max(0.05, min(30.0, hist.mean / 1000.0))
        return 0.5

    # -- submission (event-loop thread only) ---------------------------

    def submit(self, spec: JobSpec, *, priority: int = 0,
               deadline: float | None = None,
               cost: int | None = None) -> Job:
        """Enqueue a new primary job; raises :class:`QueueFull`."""
        if self.outstanding >= self.queue_limit:
            raise QueueFull(
                f"{self.outstanding} outstanding jobs "
                f"(limit {self.queue_limit})")
        future = asyncio.get_running_loop().create_future()
        job = Job(spec, spec.job_hash, priority, future, deadline,
                  cost=cost)
        self.inflight[job.job_hash] = job
        heapq.heappush(self._heap,
                       _QueueEntry(priority, next(self._seq), job))
        self._idle.clear()
        self._wakeup.set()
        self._gauges()
        return job

    def find_inflight(self, job_hash: str) -> Job | None:
        """The in-flight primary for ``job_hash``, for coalescing."""
        return self.inflight.get(job_hash)

    def _gauges(self) -> None:
        if self.instruments is not None:
            self.instruments.queue_depth.set(len(self._heap))
            self.instruments.inflight.set(len(self.inflight))

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(
            self._dispatch_loop(), name="repro-service-dispatch")

    async def drain(self) -> None:
        """Flush the queue and wait for every in-flight job to answer."""
        self._draining = True
        self._wakeup.set()
        await self._idle.wait()

    async def stop(self) -> None:
        await self.drain()
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None

    def abort(self) -> None:
        """Hard-stop without draining (crash simulation).

        Queued jobs are dropped unanswered; a batch already on the
        executor thread runs to completion in the background (the
        engine call cannot be interrupted), but nothing consumes its
        outcome.
        """
        if self._task is not None:
            self._task.cancel()
            self._task = None

    # -- dispatch ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if not self._heap:
                if not self.inflight:
                    self._idle.set()
                continue
            # Micro-batch window: let closely spaced requests pile up,
            # unless draining (then flush immediately).
            if self.batch_window_s and not self._draining \
                    and len(self._heap) < self.batch_max:
                await asyncio.sleep(self.batch_window_s)
            batch: list[Job] = []
            now = loop.time()
            while self._heap and len(batch) < self.batch_max:
                job = heapq.heappop(self._heap).job
                if job.deadline is not None and now > job.deadline:
                    self._resolve(job, JobOutcome(
                        P.STATUS_EXPIRED,
                        error=f"deadline expired after "
                              f"{now - (job.deadline or now):.3f}s "
                              f"in queue"))
                    if self.instruments is not None:
                        self.instruments.expired.inc()
                    continue
                batch.append(job)
            self._gauges()
            if not batch:
                if not self._heap and not self.inflight:
                    self._idle.set()
                if self._heap:
                    self._wakeup.set()
                continue
            self._executing += len(batch)
            try:
                await self._run_batch(loop, batch)
            finally:
                self._executing -= len(batch)
            if self._heap:
                self._wakeup.set()
            elif not self.inflight:
                self._idle.set()

    async def _run_batch(self, loop, batch: list[Job]) -> None:
        specs = [job.spec for job in batch]
        if self.instruments is not None:
            self.instruments.batches.inc()
            self.instruments.batch_size.observe(len(batch))
        try:
            report = await loop.run_in_executor(
                None, self._run_jobs_blocking, specs)
        except Exception as exc:  # noqa: BLE001 — daemon must survive
            for job in batch:
                self._resolve(job, JobOutcome(
                    P.STATUS_FAILED,
                    error=f"engine dispatch failed: "
                          f"{type(exc).__name__}: {exc}"))
                if self.instruments is not None:
                    self.instruments.failed.inc()
            return
        for job, record, result in zip(batch, report.records,
                                       report.results, strict=True):
            if record.status == EXECUTED and result is not None \
                    and record.wall_s > 0.0:
                self._cycles_done += result.stats.cycles
                self._wall_done += record.wall_s
            if record.status in (EXECUTED, HIT, DUPLICATE) \
                    and result is not None:
                status = (P.STATUS_HIT if record.status == HIT
                          else P.STATUS_EXECUTED)
                self._resolve(job, JobOutcome(
                    status, payload=result_to_dict(result)))
                if self.instruments is not None:
                    self.instruments.executed.inc()
            elif record.status == REJECTED:
                # Admission lints first, so this only happens for a
                # worker-injected lint disagreement; surface it as 422.
                self._resolve(job, JobOutcome(
                    P.STATUS_REJECTED, error=record.error,
                    diagnostics=[d.to_dict()
                                 for d in record.diagnostics]))
                if self.instruments is not None:
                    self.instruments.rejected.inc()
            else:
                self._resolve(job, JobOutcome(
                    P.STATUS_FAILED,
                    error=record.error or "job failed"))
                if self.instruments is not None:
                    self.instruments.failed.inc()

    def _run_jobs_blocking(self, specs: list[JobSpec]):
        """One engine submission for the batch (executor thread)."""
        return run_jobs(
            specs, jobs=self.jobs, cache=self.cache,
            timeout=self.timeout, retries=self.retries,
            worker=self.worker, events=self.events,
            progress=self._progress_record)

    def _progress_record(self, record) -> None:
        """Engine progress hook → obs event stream (executor thread)."""
        if self.events is not None:
            self.events.instant(
                "job_progress", "service.job",
                time.perf_counter() * 1e6, domain="wall",
                spec=record.spec.describe(), status=record.status)

    def _resolve(self, job: Job, outcome: JobOutcome) -> None:
        self.inflight.pop(job.job_hash, None)
        if not job.future.done():
            job.future.set_result(outcome)
        self._gauges()
