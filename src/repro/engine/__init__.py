"""Parallel sweep engine with a persistent artifact cache.

The substrate every design-space exploration in this repo runs on:

- :mod:`repro.engine.jobs` — declarative :class:`JobSpec` with a stable
  content hash;
- :mod:`repro.engine.sweeps` — first-class :class:`SweepSpec` sweep
  descriptions with a stable ``sweep_hash``, consumed by ``repro
  sweep``, :func:`run_jobs` and the service's sweep jobs
  (``POST /v2/jobs``);
- :mod:`repro.engine.cache` — persistent, content-addressed store for
  compiled-program bundles and finished run summaries, invalidated by a
  code-version fingerprint of ``src/repro``;
- :mod:`repro.engine.pool` — serial or process-pool execution with
  per-job timeout, bounded retry on worker crashes, and dedup of
  identical specs;
- :mod:`repro.engine.report` — per-job records and sweep accounting
  (cache hits/misses, wall time, failures).

Typical use::

    from repro.engine import ArtifactCache, run_comparisons

    comps, report = run_comparisons(
        ["saxpy", "mm"], scale="tiny", jobs=4, cache=ArtifactCache())
    print(report.summary())
"""

from repro.engine.cache import (
    ArtifactCache,
    code_fingerprint,
    default_cache_dir,
    result_from_dict,
    result_to_dict,
)
from repro.engine.jobs import (
    SPEC_VERSION,
    JobSpec,
)
from repro.engine.sweeps import SWEEP_VERSION, SweepSpec
from repro.engine.pool import execute_job, run_comparisons, run_jobs
from repro.engine.report import (
    DUPLICATE,
    EXECUTED,
    FAILED,
    HIT,
    EngineFailure,
    EngineReport,
    JobRecord,
)

__all__ = [
    "ArtifactCache",
    "DUPLICATE",
    "EXECUTED",
    "EngineFailure",
    "EngineReport",
    "FAILED",
    "HIT",
    "JobRecord",
    "JobSpec",
    "SPEC_VERSION",
    "SWEEP_VERSION",
    "SweepSpec",
    "code_fingerprint",
    "default_cache_dir",
    "execute_job",
    "result_from_dict",
    "result_to_dict",
    "run_comparisons",
    "run_jobs",
]
