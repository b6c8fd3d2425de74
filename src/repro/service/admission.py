"""Admission control: validate → lint → cache → coalesce → enqueue.

Every ``run`` (and each expanded ``sweep`` point) passes four gates
before it can cost an engine slot, in strictly increasing price order:

1. **Schema validation** — the JSON body must name real
   :class:`~repro.engine.jobs.JobSpec` fields with well-typed values
   (:func:`repro.service.protocol.spec_from_payload`); a misspelled
   knob is a 400, never a silently different design point.
2. **Pre-flight lint** — :func:`repro.analysis.speclint.lint_spec`
   runs in-process; error-severity findings answer 422 with the
   structured diagnostics, and no worker is burned discovering the
   problem dynamically.
3. **Artifact-cache probe** — the spec's content hash is looked up in
   the persistent :class:`~repro.engine.cache.ArtifactCache`; a warm
   entry is answered immediately from the event loop (this is the
   sub-10ms dispatch path the service benchmark measures).
4. **Request coalescing** — an identical spec already queued or
   executing shares that job's future instead of enqueueing a second
   copy; N callers asking for the same point cost one simulation.

Only a request that clears all four gates reaches the scheduler's
bounded queue, where backpressure (429) is the final gate.  On the way
in, the job is annotated with its cycle cost: the ``stats.cycles`` of
a finished run of its shape (the spec without its seed), looked up in
:func:`repro.analysis.perf.estimate_job_cost`.  Every run the
scheduler's engine submissions finish and every cache hit answered
here records its cycles, so a restarted daemon over a warm disk cache
learns from its hits; a shape never seen queues without a cost.  The
scheduler calibrates cycles-per-second from executed jobs, turns
queued cost into a queue-wait estimate and a cost-aware
``Retry-After``, and a deadline that the calibrated estimate already
exceeds is answered 504 at admission instead of after the wait.
"""

from __future__ import annotations

import asyncio
import time

from repro.analysis import perf
from repro.analysis.speclint import lint_spec
from repro.engine.cache import ArtifactCache, result_from_dict
from repro.engine.jobs import JobSpec

from repro.service import protocol as P
from repro.service.scheduler import JobOutcome, QueueFull, Scheduler


def probe_run(cache: ArtifactCache | None, spec: JobSpec) -> dict | None:
    """A warm run summary for ``spec``, or None.

    The raw stored payload is returned (not a re-serialization), so
    a cache-hit response is byte-identical to the payload the
    executing request stored — and therefore to
    ``run_workload(config).to_dict()`` for the same config.
    """
    if cache is None:
        return None
    payload = cache.load_run(spec)
    if payload is None:
        return None
    try:
        result_from_dict(payload)   # stale/foreign entry == miss
    except (KeyError, TypeError, ValueError):
        return None
    return payload


class AdmissionController:
    """The admission pipeline in front of a :class:`Scheduler`."""

    def __init__(self, scheduler: Scheduler,
                 cache: ArtifactCache | None = None,
                 instruments=None, events=None) -> None:
        self.scheduler = scheduler
        self.cache = cache
        self.instruments = instruments
        self.events = events
        #: lint verdicts memoized by job hash (specs are immutable and
        #: the service sees the same hot specs over and over).
        self._lint_memo: dict[str, tuple[bool, list]] = {}

    # -- observability -------------------------------------------------

    def _mark(self, name: str, spec: JobSpec) -> None:
        if self.events is not None:
            self.events.instant(name, "service.request",
                                time.perf_counter() * 1e6, domain="wall",
                                spec=spec.describe())

    # -- the pipeline --------------------------------------------------

    def lint_verdict(self, spec: JobSpec) -> tuple[bool, list]:
        """(ok, diagnostics-as-dicts) for a spec, memoized by hash."""
        h = spec.job_hash
        memo = self._lint_memo.get(h)
        if memo is None:
            report = lint_spec(spec)
            memo = (report.ok, [d.to_dict() for d in report.diagnostics])
            if len(self._lint_memo) > 4096:
                self._lint_memo.clear()   # bound the memo, keep it dumb
            self._lint_memo[h] = memo
        return memo

    async def admit_run(self, spec: JobSpec, *, priority: int = 0,
                        timeout_s: float | None = None,
                        draining: bool = False) -> JobOutcome:
        """Run one spec through every gate; always returns an outcome."""
        ok, diagnostics = self.lint_verdict(spec)
        if not ok:
            if self.instruments is not None:
                self.instruments.rejected.inc()
            self._mark("request_rejected", spec)
            errors = [d for d in diagnostics
                      if d.get("severity") == "error"]
            return JobOutcome(
                P.STATUS_REJECTED,
                error="; ".join(f"{d['code']}: {d['message']}"
                                for d in errors),
                diagnostics=diagnostics)

        payload = probe_run(self.cache, spec)
        if payload is not None:
            if self.instruments is not None:
                self.instruments.cache_hits.inc()
            self._mark("request_cache_hit", spec)
            perf.record_job_cycles(spec, payload["stats"]["cycles"])
            return JobOutcome(P.STATUS_HIT, payload=payload,
                              diagnostics=diagnostics)

        existing = self.scheduler.find_inflight(spec.job_hash)
        if existing is not None:
            existing.waiters += 1
            if self.instruments is not None:
                self.instruments.coalesced.inc()
            self._mark("request_coalesced", spec)
            outcome = await asyncio.shield(existing.future)
            if outcome.status in (P.STATUS_EXECUTED, P.STATUS_HIT):
                return JobOutcome(P.STATUS_COALESCED,
                                  payload=outcome.payload,
                                  diagnostics=diagnostics)
            return outcome

        if draining:
            return JobOutcome(
                P.STATUS_DRAINING,
                error="service is draining; resubmit elsewhere")

        # Observed cycles of the shape, or None for a shape never run:
        # they feed the scheduler's queue-wait estimate and cost-aware
        # Retry-After.
        cost = perf.estimate_job_cost(spec)

        deadline = None
        if timeout_s is not None:
            # Fail fast when the calibrated queue-wait estimate already
            # exceeds the caller's deadline: a predictable 504 now beats
            # one after timeout_s of queueing.  Without calibration (or
            # without full cost data) jobs queue as before and expiry
            # is decided at dispatch.
            wait = self.scheduler.estimated_wait_s()
            if wait is not None and wait > timeout_s:
                if self.instruments is not None:
                    self.instruments.expired.inc()
                self._mark("request_predicted_expired", spec)
                return JobOutcome(
                    P.STATUS_EXPIRED,
                    error=f"predicted queue wait {wait:.3f}s exceeds "
                          f"deadline {timeout_s:.3f}s")
            deadline = asyncio.get_running_loop().time() + timeout_s
        try:
            job = self.scheduler.submit(spec, priority=priority,
                                        deadline=deadline, cost=cost)
        except QueueFull as exc:
            if self.instruments is not None:
                self.instruments.throttled.inc()
            self._mark("request_throttled", spec)
            return JobOutcome(P.STATUS_THROTTLED, error=str(exc))
        if self.instruments is not None:
            self.instruments.admitted.inc()
        self._mark("request_admitted", spec)
        outcome = await asyncio.shield(job.future)
        if diagnostics and not outcome.diagnostics:
            outcome.diagnostics = diagnostics
        return outcome
