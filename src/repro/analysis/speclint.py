"""JobSpec pre-flight lint (RPR25x): reject garbage before a worker runs.

The engine can be asked to execute millions of :class:`repro.engine.jobs.
JobSpec` points.  A spec with an unknown workload, a zero-depth FIFO or
a misspelled energy-override field would otherwise be discovered inside
a worker process — after the pool slot, the cache probe and (worst
case) a simulation timeout have already been paid.  ``lint_spec`` is a
cheap, pure check the pool runs *before* dispatch; error-severity
findings turn the job into a ``REJECTED`` record carrying the
diagnostics (see :mod:`repro.engine.pool`).
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields

from repro.analysis.diagnostics import DiagnosticReport
from repro.cpu.memory import WORD_BYTES
from repro.engine.jobs import _KNOBS, JobSpec

_SOURCE = "speclint"

#: Scale names every suite workload defines; anything else is probably a
#: typo (workload-specific extra scales still run — this is a warning).
STANDARD_SCALES = ("tiny", "small", "medium")

#: The int-typed knobs of the ``JobSpec`` knob table that a ``RunConfig``
#: parameter object owns, in field order: each counts something and
#: must be >= 1.  Those of the compiler options are compiler knobs
#: (RPR256), the others hardware knobs (RPR253).
_POSITIVE_KNOBS = [k for k in _KNOBS
                   if k.owner and type(getattr(JobSpec, k.name)) is int]
_POSITIVE_HW_KNOBS = tuple(
    k.name for k in _POSITIVE_KNOBS if k.owner != "options")
_POSITIVE_COMPILER_KNOBS = tuple(
    k.name for k in _POSITIVE_KNOBS if k.owner == "options")

#: Smallest memory image the harness can stage inputs into.  Every
#: suite workload places arrays above the 64 KiB line even at the tiny
#: scale, so anything smaller faults during preparation, not execution.
MIN_MEMORY_BYTES = 1 << 16
#: Largest memory image, 16x the default: an image grows to the highest
#: word stored, so one store near the top could otherwise take gigabytes.
MAX_MEMORY_BYTES = 1 << 26


def lint_spec(spec, report: DiagnosticReport | None = None
              ) -> DiagnosticReport:
    """Pre-flight checks for one :class:`~repro.engine.jobs.JobSpec`.

    Never raises; returns a report whose ``ok`` property says whether
    the spec is worth dispatching.
    """
    from repro.energy import EnergyParams
    from repro.errors import WorkloadError
    from repro.workloads import SUITE
    from repro.workloads import suite as suite_mod

    report = report if report is not None else DiagnosticReport(
        subject=f"spec {spec.describe()}")

    if spec.workload not in SUITE:
        # ``dsl:`` names may resolve lazily through the kernel store;
        # only reject if the dynamic lookup also comes up empty.
        try:
            suite_mod.get(spec.workload)
        except WorkloadError:
            report.emit(
                "RPR251",
                f"unknown workload {spec.workload!r}; "
                f"have {sorted(SUITE)}",
                source=_SOURCE, workload=spec.workload)
    if spec.scale not in STANDARD_SCALES:
        report.emit(
            "RPR252",
            f"scale {spec.scale!r} is not one of the standard scales "
            f"{list(STANDARD_SCALES)}; the workload harness may reject it",
            source=_SOURCE, scale=spec.scale,
            standard=list(STANDARD_SCALES))

    for name in _POSITIVE_HW_KNOBS:
        value = getattr(spec, name)
        if value < 1:
            report.emit(
                "RPR253",
                f"hardware knob {name}={value} must be >= 1",
                location=name, source=_SOURCE, knob=name, value=value)
    for name in _POSITIVE_COMPILER_KNOBS:
        value = getattr(spec, name)
        if value < 1:
            report.emit(
                "RPR256",
                f"compiler knob {name}={value} must be >= 1",
                location=name, source=_SOURCE, knob=name, value=value)
    if spec.max_region_ops is not None \
            and spec.max_region_ops < spec.min_region_ops:
        report.emit(
            "RPR256",
            f"max_region_ops={spec.max_region_ops} is below "
            f"min_region_ops={spec.min_region_ops}; no region can ever "
            f"be accepted",
            location="max_region_ops", source=_SOURCE,
            knob="max_region_ops", value=spec.max_region_ops,
            floor=spec.min_region_ops)

    known_energy = {f.name for f in dataclass_fields(EnergyParams)}
    for name, value in spec.energy_overrides:
        if name not in known_energy:
            report.emit(
                "RPR254",
                f"energy override {name!r} is not an EnergyParams "
                f"field; known fields: {sorted(known_energy)}",
                location=name, source=_SOURCE, field=name, value=value)

    if spec.memory_bytes < MIN_MEMORY_BYTES:
        report.emit(
            "RPR255",
            f"memory_bytes={spec.memory_bytes} is below the "
            f"{MIN_MEMORY_BYTES}-byte floor the workload harness needs "
            f"to stage inputs",
            location="memory_bytes", source=_SOURCE,
            value=spec.memory_bytes, floor=MIN_MEMORY_BYTES)
    elif spec.memory_bytes > MAX_MEMORY_BYTES:
        report.emit(
            "RPR255",
            f"memory_bytes={spec.memory_bytes} is above the "
            f"{MAX_MEMORY_BYTES}-byte ceiling",
            location="memory_bytes", source=_SOURCE,
            value=spec.memory_bytes, ceiling=MAX_MEMORY_BYTES)
    if spec.memory_bytes % WORD_BYTES:
        report.emit(
            "RPR255", f"memory_bytes={spec.memory_bytes} is not a multiple of {WORD_BYTES}",
            location="memory_bytes", source=_SOURCE, value=spec.memory_bytes)
    return report
