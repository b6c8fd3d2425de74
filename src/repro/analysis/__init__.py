"""Static analysis: IR verifier, configuration linter, diagnostics.

Four analyses over four stable code banks:

- :mod:`repro.analysis.verifier` — SSA/IR well-formedness and the
  access/execute interface contract (``RPR1xx``), runnable after every
  compiler pass via ``CompilerOptions.verify_passes``;
- :mod:`repro.analysis.lint` — :class:`~repro.dyser.dfg.Dfg` /
  :class:`~repro.dyser.config.DyserConfig` structural, placement and
  routing checks (``RPR2xx``);
- :mod:`repro.analysis.speclint` — :class:`~repro.engine.jobs.JobSpec`
  pre-flight checks (``RPR25x``), run by the engine before dispatch;
- :mod:`repro.analysis.perf` — the static performance-bound analyzer
  (``RPR4xx``): predicted cycles, a sound lower bound, and per-region
  bottleneck attribution with zero simulation, surfaced through
  :func:`perf_report` / ``repro lint --perf``; it also holds the
  engine/service cost pre-flight (:func:`estimate_job_cost`), which
  prices jobs from observed cycles, not walks;

plus the ``RPR3xx`` control-flow shape advisories emitted by
:func:`repro.compiler.shapes.region_advisories` and surfaced through
:func:`lint_workload` / ``repro lint``.
"""

from repro.analysis.api import lint_workload
from repro.analysis.diagnostics import (
    CODES,
    CodeInfo,
    Diagnostic,
    DiagnosticReport,
    Severity,
    describe_code,
)
from repro.analysis.lint import lint_config, lint_dfg
from repro.analysis.perf import (
    PerfPrediction,
    RegionPerf,
    analyze_program,
    analyze_workload,
    estimate_job_cost,
    perf_report,
)
from repro.analysis.speclint import lint_spec
from repro.analysis.verifier import check_function, verify_function

__all__ = [
    "CODES",
    "CodeInfo",
    "Diagnostic",
    "DiagnosticReport",
    "PerfPrediction",
    "RegionPerf",
    "Severity",
    "analyze_program",
    "analyze_workload",
    "check_function",
    "describe_code",
    "estimate_job_cost",
    "lint_config",
    "lint_dfg",
    "lint_spec",
    "lint_workload",
    "perf_report",
    "verify_function",
]
