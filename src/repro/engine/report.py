"""Engine run accounting: per-job records and the sweep-level report.

A sweep never aborts because one point failed; failures are recorded in
the :class:`EngineReport` and surfaced at the end, the way a nightly
design-space exploration wants it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError

from repro.engine.jobs import JobSpec

#: Job statuses.
HIT = "hit"            # served from the persistent result cache
EXECUTED = "executed"  # compiled/simulated this run
DUPLICATE = "duplicate"  # identical spec earlier in the sweep; shared
FAILED = "failed"      # exhausted retries (error recorded)
REJECTED = "rejected"  # failed pre-flight lint; never dispatched


class EngineFailure(ReproError):
    """Raised by :meth:`EngineReport.raise_on_failure`."""


@dataclass
class JobRecord:
    """Outcome of one submitted job."""

    spec: JobSpec
    status: str = "pending"
    wall_s: float = 0.0
    attempts: int = 0
    error: str | None = None
    #: Pre-flight lint findings (:class:`repro.analysis.diagnostics.
    #: Diagnostic`); populated for REJECTED jobs, and for jobs whose
    #: spec linted with warnings but still ran.
    diagnostics: list = field(default_factory=list)
    #: Cycles a finished run of the job's shape took, as the pooled
    #: pre-flight (longest-first dispatch) priced it; None when the
    #: pre-flight was skipped or the shape had not run yet.
    cost: int | None = None


@dataclass
class EngineReport:
    """What a sweep did: results, cache traffic, failures, wall time."""

    jobs: int = 1
    records: list[JobRecord] = field(default_factory=list)
    #: Aligned with the submitted spec list; ``None`` for failed jobs.
    results: list = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.status == HIT)

    @property
    def cache_misses(self) -> int:
        # Rejected jobs never probe the cache, so they are not misses.
        return self.executed + sum(
            1 for r in self.records if r.status == FAILED)

    @property
    def executed(self) -> int:
        return sum(1 for r in self.records if r.status == EXECUTED)

    @property
    def duplicates(self) -> int:
        return sum(1 for r in self.records if r.status == DUPLICATE)

    @property
    def failures(self) -> list[JobRecord]:
        """Jobs that produced no result: FAILED or lint-REJECTED."""
        return [r for r in self.records
                if r.status in (FAILED, REJECTED)]

    @property
    def rejected(self) -> list[JobRecord]:
        return [r for r in self.records if r.status == REJECTED]

    def result_for(self, spec: JobSpec):
        """The result of the first record matching ``spec``'s hash."""
        want = spec.job_hash
        for record, result in zip(self.records, self.results,
                                  strict=True):
            if record.spec.job_hash == want:
                return result
        raise KeyError(spec.describe())

    def summary(self) -> str:
        parts = [
            f"{len(self.records)} jobs @ {self.jobs} worker"
            f"{'s' if self.jobs != 1 else ''}",
            f"{self.cache_hits} cache hits",
            f"{self.executed} executed",
        ]
        if self.duplicates:
            parts.append(f"{self.duplicates} deduplicated")
        if self.rejected:
            parts.append(f"{len(self.rejected)} REJECTED by lint")
        failed = sum(1 for r in self.records if r.status == FAILED)
        if failed:
            parts.append(f"{failed} FAILED")
        parts.append(f"{self.wall_s:.2f}s wall")
        return "engine: " + ", ".join(parts)

    def raise_on_failure(self) -> None:
        if not self.failures:
            return
        lines = [f"{len(self.failures)} job(s) failed:"]
        lines += [
            f"  {r.spec.describe()}: {r.error} "
            f"(after {r.attempts} attempt{'s' if r.attempts != 1 else ''})"
            for r in self.failures
        ]
        raise EngineFailure("\n".join(lines))
