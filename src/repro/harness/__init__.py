"""Experiment harness: run workloads, compare builds, format tables."""

from repro.harness.backends import (
    DEFAULT_BACKEND,
    Backend,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.harness.bundle import (
    bundle_from_dict,
    bundle_to_dict,
    load_bundle,
    save_bundle,
)
from repro.harness.batch import (
    BatchOutcome,
    execute_batch,
    lane_key,
    plan_batches,
    verify_batch_parity,
)
from repro.harness.config import RunConfig
from repro.harness.parity import (
    ParityMismatch,
    ParityReport,
    suite_configs,
    verify_parity,
)
from repro.harness.report import format_series, format_table, geomean
from repro.harness.runner import (
    Comparison,
    RunResult,
    clear_caches,
    compare,
    run_workload,
    source_hash,
)
from repro.obs.events import TraceOptions

__all__ = [
    "Backend",
    "BatchOutcome",
    "Comparison",
    "DEFAULT_BACKEND",
    "ParityMismatch",
    "ParityReport",
    "RunConfig",
    "RunResult",
    "TraceOptions",
    "backend_names",
    "bundle_from_dict",
    "bundle_to_dict",
    "clear_caches",
    "compare",
    "execute_batch",
    "format_series",
    "format_table",
    "geomean",
    "get_backend",
    "lane_key",
    "load_bundle",
    "plan_batches",
    "register_backend",
    "resolve_backend",
    "run_workload",
    "save_bundle",
    "source_hash",
    "suite_configs",
    "verify_batch_parity",
    "verify_parity",
]
