"""SPARC-DySER prototype reproduction.

Reimplementation, in pure Python, of the system evaluated in
"Performance evaluation of a DySER FPGA prototype system spanning the
compiler, microarchitecture, and hardware implementation" (ISPASS 2015):

- :mod:`repro.isa` — SPARC-flavoured host ISA with the DySER extension;
- :mod:`repro.cpu` — OpenSPARC-T1-like in-order core timing model;
- :mod:`repro.dyser` — the DySER fabric (configurations, dataflow
  execution, flow control, configuration cache);
- :mod:`repro.compiler` — the co-designed compiler (kernel language to
  ISA, with access/execute partitioning and spatial scheduling);
- :mod:`repro.energy` / :mod:`repro.fpga` — power and FPGA resource models;
- :mod:`repro.workloads` — the benchmark suite;
- :mod:`repro.harness` — experiment runner reproducing the paper's
  tables and figures, behind the :class:`RunConfig` run API;
- :mod:`repro.engine` — parallel sweep engine with a persistent,
  content-addressed artifact cache (the substrate for design-space
  exploration);
- :mod:`repro.obs` — observability: structured tracing, named metrics,
  Chrome/Perfetto timeline export, ``repro profile``;
- :mod:`repro.service` — simulation-as-a-service: the ``repro serve``
  asyncio daemon (admission control, micro-batched scheduling,
  Prometheus ``/metrics``) and its ``repro submit`` client;
- :mod:`repro.harness.fuzz` — differential fuzzing and chaos harness
  (``repro fuzz``): seeded interface-aware program generation,
  parity/lint/IR oracles, service fault injection, and a replayable
  shrunk-case corpus under ``tests/corpus/``;
- :mod:`repro.lang` — the validated kernel DSL (``repro kernel``,
  ``POST /v2/kernels``): parse → check (stable ``RPR5xx``
  diagnostics, fail-closed) → lower into the same workload form the
  built-in suite uses, persisted content-addressed as ``dsl:<hash>``.

This module is the **stable public facade**: everything in ``__all__``
is importable as ``from repro import ...`` and the CLI goes through it
exclusively.  The canonical entry points::

    from repro import RunConfig, run_workload, compare

    config = RunConfig(workload="mm", mode="dyser")
    result = run_workload(config)
    traced = run_workload(config.traced())     # result.events set
    comparison = compare(config)               # scalar vs dyser
"""

# NOTE: repro.cpu must be imported before repro.compiler/repro.dyser —
# the machine models participate in an import cycle (cpu.core ↔
# dyser.interface) whose safe entry point is the cpu package.
from repro.cpu import BatchCore, Core, CoreConfig, ExecStats, Memory
from repro.analysis import (
    Diagnostic,
    DiagnosticReport,
    PerfPrediction,
    RegionPerf,
    Severity,
    analyze_program,
    analyze_workload,
    describe_code,
    estimate_job_cost,
    lint_config,
    lint_spec,
    lint_workload,
    perf_report,
    verify_function,
)
from repro.dyser import (
    Dfg,
    DyserConfig,
    DyserDevice,
    DyserTimingParams,
    Fabric,
    FabricGeometry,
    SteadyState,
)
from repro.compiler import (
    CompileResult,
    CompilerOptions,
    RegionReport,
    compile_dyser,
    compile_scalar,
)
from repro.energy import EnergyModel, EnergyParams, EnergyReport
from repro.engine import (
    ArtifactCache,
    EngineFailure,
    EngineReport,
    JobSpec,
    SweepSpec,
    run_comparisons,
    run_jobs,
)
from repro.errors import ReproError, WorkloadError, stable_error_string
from repro.fpga import utilization_table
from repro.harness import (
    Backend,
    Comparison,
    DEFAULT_BACKEND,
    ParityReport,
    RunConfig,
    RunResult,
    TraceOptions,
    backend_names,
    compare,
    format_series,
    format_table,
    geomean,
    get_backend,
    resolve_backend,
    run_workload,
    verify_parity,
)
from repro.harness.backends import temporary_backend, unregister_backend
from repro.harness.fuzz import (
    CaseGenerator,
    Finding,
    FuzzCase,
    FuzzOptions,
    FuzzReport,
    chaos_scenario_names,
    iter_corpus,
    replay_entry,
    run_chaos,
    run_fuzz,
)
from repro.isa import Instruction, Opcode, Program, assemble
from repro.lang import (
    KernelSpec,
    KernelStore,
    check_source,
    lower_spec,
    lowered_source,
    parse_kernel_source,
    set_default_kernel_dir,
)
from repro.obs import (
    EventStream,
    MetricsRegistry,
    ProfileReport,
    invocation_table,
    profile_workload,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.service import (
    Client,
    GatewayService,
    GatewayThread,
    JobHandle,
    JobStatus,
    ReproService,
    ServiceError,
    TenancyController,
    controller_from_config,
)
from repro.workloads import SUITE, get as get_workload
from repro.workloads.suite import register_workload

__version__ = "1.3.0"

__all__ = [
    # run API
    "RunConfig",
    "RunResult",
    "Comparison",
    "TraceOptions",
    "run_workload",
    "compare",
    # simulation backends
    "Backend",
    "DEFAULT_BACKEND",
    "ParityReport",
    "backend_names",
    "get_backend",
    "resolve_backend",
    "temporary_backend",
    "unregister_backend",
    "verify_parity",
    # fuzzing & chaos
    "CaseGenerator",
    "Finding",
    "FuzzCase",
    "FuzzOptions",
    "FuzzReport",
    "chaos_scenario_names",
    "iter_corpus",
    "replay_entry",
    "run_chaos",
    "run_fuzz",
    # observability
    "EventStream",
    "MetricsRegistry",
    "ProfileReport",
    "profile_workload",
    "invocation_table",
    "to_chrome_trace",
    "write_chrome_trace",
    # service
    "Client",
    "GatewayService",
    "GatewayThread",
    "JobHandle",
    "JobStatus",
    "ReproService",
    "ServiceError",
    "TenancyController",
    "controller_from_config",
    # engine
    "ArtifactCache",
    "EngineFailure",
    "EngineReport",
    "JobSpec",
    "SweepSpec",
    "run_comparisons",
    "run_jobs",
    # compiler
    "CompileResult",
    "CompilerOptions",
    "RegionReport",
    "compile_dyser",
    "compile_scalar",
    # machine models
    "BatchCore",
    "Core",
    "CoreConfig",
    "ExecStats",
    "Memory",
    "SteadyState",
    "Dfg",
    "DyserConfig",
    "DyserDevice",
    "DyserTimingParams",
    "Fabric",
    "FabricGeometry",
    "EnergyModel",
    "EnergyParams",
    "EnergyReport",
    "utilization_table",
    # ISA
    "Instruction",
    "Opcode",
    "Program",
    "assemble",
    # kernel DSL
    "KernelSpec",
    "KernelStore",
    "check_source",
    "lower_spec",
    "lowered_source",
    "parse_kernel_source",
    "set_default_kernel_dir",
    # workloads + reporting
    "SUITE",
    "get_workload",
    "register_workload",
    "format_series",
    "format_table",
    "geomean",
    # static analysis
    "Diagnostic",
    "DiagnosticReport",
    "PerfPrediction",
    "RegionPerf",
    "Severity",
    "analyze_program",
    "analyze_workload",
    "describe_code",
    "estimate_job_cost",
    "lint_config",
    "lint_spec",
    "lint_workload",
    "perf_report",
    "verify_function",
    # errors
    "ReproError",
    "WorkloadError",
    "stable_error_string",
    "__version__",
]
