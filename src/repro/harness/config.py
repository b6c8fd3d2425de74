"""The run API's parameter object: :class:`RunConfig`.

``run_workload`` historically grew one keyword argument per subsystem
knob (eleven at last count), and every layer above it — ``compare``,
the engine's :class:`~repro.engine.jobs.JobSpec`, the benchmarks, the
CLI — re-encoded the same tuple by hand.  :class:`RunConfig` replaces
that seam with one frozen parameter object that:

- carries every knob a run consumes (compiler options, core config,
  fabric timing, config cache, energy model, memory size);
- carries the observability request (``trace:``
  :class:`~repro.obs.events.TraceOptions`), so tracing threads through
  harness, engine, benchmarks and CLI without a twelfth kwarg;
- carries the simulation ``backend`` selection, validated against the
  registered-backend table (:mod:`repro.harness.backends`);
- converts to and from :class:`~repro.engine.jobs.JobSpec` (see
  ``JobSpec.to_run_config`` / ``JobSpec.from_run_config``): a spec
  round-trips with its hash, and a config that sets a parameter no
  spec knob carries (a core latency, a non-uniform fabric) is refused
  by name rather than mapped to another design point.  Observability
  options and the backend deliberately do **not** participate in the
  spec's content hash, because neither changes a run's outcome
  (tracing by construction, the backend by the parity contract).

Every entry point that runs, compares, profiles or statically walks a
workload — ``run_workload``, ``compare``, ``profile_workload``,
``analyze_workload`` and ``perf_report`` — takes exactly one
:class:`RunConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.compiler import CompilerOptions
from repro.cpu import CoreConfig
from repro.dyser import DyserTimingParams
from repro.dyser.config_cache import ConfigCacheParams
from repro.energy import EnergyParams
from repro.errors import WorkloadError
from repro.harness.backends import DEFAULT_BACKEND, get_backend
from repro.obs.events import TraceOptions

#: run_workload modes.
MODES = ("scalar", "dyser")


@dataclass(frozen=True)
class RunConfig:
    """Everything one workload execution needs, in one object.

    ``None`` for a parameter-object field means "use that subsystem's
    defaults" — identical to the historical kwargs behaviour, so a
    config constructed with only ``workload=`` reproduces the old
    ``run_workload(name)`` exactly.
    """

    workload: str
    mode: str = "dyser"
    scale: str = "small"
    seed: int = 7
    options: CompilerOptions | None = None
    core_config: CoreConfig | None = None
    timing: DyserTimingParams | None = None
    cache_params: ConfigCacheParams | None = None
    energy_params: EnergyParams | None = None
    memory_bytes: int = 1 << 22
    trace: TraceOptions = field(default_factory=TraceOptions)
    #: Simulation backend name; validated against the backend registry
    #: (``"batched"`` by default, ``"reference"`` is the oracle).
    backend: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise WorkloadError(f"unknown mode {self.mode!r}")
        if not self.workload:
            raise WorkloadError("RunConfig.workload must be set")
        get_backend(self.backend)   # raises WorkloadError if unknown
        object.__setattr__(self, "memory_bytes", int(self.memory_bytes))

    # -- derivation helpers -------------------------------------------

    def with_(self, **changes) -> "RunConfig":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return replace(self, **changes)

    def traced(self, **trace_kwargs) -> "RunConfig":
        """A copy with tracing enabled (``capacity=``, ``categories=``,
        ``instructions=`` pass through to :class:`TraceOptions`)."""
        return replace(self, trace=TraceOptions(enabled=True,
                                                **trace_kwargs))

    def describe(self) -> str:
        text = f"{self.workload}/{self.mode}@{self.scale} seed={self.seed}"
        if self.backend != DEFAULT_BACKEND:
            text += f" backend={self.backend}"
        if self.trace.enabled:
            text += " [traced]"
        return text
