"""Experiment runner: compile, execute and account a workload.

The single entry point the E-series benchmarks use::

    result = run_workload(RunConfig(workload="mm", mode="dyser"))
    comparison = compare(RunConfig(workload="mm", scale="small"))

A run is fully described by a :class:`~repro.harness.config.RunConfig`
— workload, mode, scale, seed, every subsystem parameter object, the
observability request (``trace=TraceOptions(...)``) and the simulation
``backend``.  Backend selection happens in exactly one place —
:func:`repro.harness.backends.resolve_backend`, called from
:func:`run_workload` — so ``compare``, ``profile_workload``, the
engine and the CLI all inherit it.

Every run validates outputs against the workload's numpy reference;
``RunResult.correct`` is part of the result, and the benchmarks assert
it.  When tracing is enabled the structured event stream is attached to
the result as ``RunResult.events`` (never serialized).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, is_dataclass

from repro.compiler import CompileResult, CompilerOptions, RegionReport
from repro.compiler import compile_dyser, compile_scalar
from repro.cpu import CoreConfig, ExecStats, Memory, clear_decode_caches
from repro.dyser import DyserDevice, DyserTimingParams
from repro.dyser.config_cache import ConfigCacheParams
from repro.energy import EnergyModel, EnergyParams, EnergyReport
from repro.harness.backends import resolve_backend
from repro.harness.config import RunConfig
from repro.obs.events import EventStream
from repro.workloads import Instance, get as get_workload

#: Serialization format tag for run summaries (artifact cache entries).
RESULT_FORMAT = "repro-run-v1"


@dataclass
class RunResult:
    """One (workload, mode) execution."""

    workload: str
    mode: str
    scale: str
    correct: bool
    stats: ExecStats
    energy: EnergyReport
    compile_result: CompileResult
    work_items: int
    #: The structured trace recorded during the run (None unless the
    #: run's ``TraceOptions.enabled`` was set; never serialized).
    events: EventStream | None = field(default=None, compare=False,
                                       repr=False)

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def instructions(self) -> int:
        return self.stats.instructions

    @property
    def cycles_per_item(self) -> float:
        return self.cycles / self.work_items if self.work_items else 0.0

    # -- (de)serialization --------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe run summary (everything but program + trace)."""
        return {
            "format": RESULT_FORMAT,
            "workload": self.workload,
            "mode": self.mode,
            "scale": self.scale,
            "correct": self.correct,
            "work_items": self.work_items,
            "stats": self.stats.to_dict(),
            "energy": self.energy.to_dict(),
            "regions": [r.to_dict() for r in
                        (self.compile_result.regions
                         if self.compile_result else [])],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """Rebuild a run summary.

        The reconstructed ``compile_result`` carries the region reports
        but ``program=None`` — summaries are for accounting (cycles,
        energy, correctness), not for re-execution.
        """
        if data.get("format") != RESULT_FORMAT:
            raise ValueError(f"not a run summary: {data.get('format')!r}")
        return cls(
            workload=data["workload"],
            mode=data["mode"],
            scale=data["scale"],
            correct=bool(data["correct"]),
            stats=ExecStats.from_dict(data["stats"]),
            energy=EnergyReport.from_dict(data["energy"]),
            compile_result=CompileResult(
                program=None, ir_dump="",
                regions=[RegionReport.from_dict(r)
                         for r in data["regions"]]),
            work_items=data["work_items"],
        )


@dataclass
class Comparison:
    """Scalar vs DySER for one workload."""

    workload: str
    scalar: RunResult
    dyser: RunResult

    @property
    def speedup(self) -> float:
        return self.scalar.cycles / self.dyser.cycles

    @property
    def energy_ratio(self) -> float:
        """scalar energy / dyser energy (>1 means DySER saves energy)."""
        return self.scalar.energy.total_j / self.dyser.energy.total_j

    @property
    def edp_ratio(self) -> float:
        return (self.scalar.energy.energy_delay_product()
                / self.dyser.energy.energy_delay_product())

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "scalar": self.scalar.to_dict(),
            "dyser": self.dyser.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Comparison":
        return cls(
            workload=data["workload"],
            scalar=RunResult.from_dict(data["scalar"]),
            dyser=RunResult.from_dict(data["dyser"]),
        )


def source_hash(source: str) -> str:
    """Stable hash of a kernel's source text (compile-cache key part)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def options_key(options: CompilerOptions) -> tuple:
    """Every :class:`CompilerOptions` field but ``verify_passes`` (which
    never changes the output), as a hashable value: the compile memo's
    and the lockstep lanes' key for the compiler's knobs."""
    return tuple(_hashable(getattr(options, f.name))
                 for f in fields(CompilerOptions)
                 if f.name != "verify_passes")


def compile_key(mode: str, options: CompilerOptions | None) -> tuple:
    """What a build reads of the compiler options, as a hashable value:
    nothing for a scalar build, :func:`options_key` for a DySER one,
    with ``None`` read as the default options (keyed once, at import).
    The compile memo and the lockstep lanes key on it."""
    if mode != "dyser":
        return ()
    return _DEFAULT_OPTIONS_KEY if options is None else options_key(options)


def _hashable(value):
    """``value`` with sets and dicts as frozensets and dataclasses as
    tuples of their fields, so equal options key equal.  (Copying a set
    into a frozenset reuses its stored hashes, which keeps enum members
    off their Python-level ``__hash__``.)"""
    if isinstance(value, set):
        return frozenset(value)
    if isinstance(value, dict):
        return frozenset((k, _hashable(v)) for k, v in value.items())
    if is_dataclass(value) and not isinstance(value, type):
        return tuple(_hashable(getattr(value, f.name))
                     for f in fields(value))
    return value


_DEFAULT_OPTIONS_KEY = options_key(CompilerOptions())

#: Process-local compile memo, cleared once past
#: :data:`_COMPILE_MEMO_LIMIT` entries.  Keyed on the workload's *source
#: text*, not just its name: re-registering or editing a kernel in a
#: running process can never serve a stale compile.
_COMPILE_MEMO: dict[tuple, CompileResult] = {}
_COMPILE_MEMO_LIMIT = 256


def _compile(workload_name: str, mode: str,
             options: CompilerOptions) -> CompileResult:
    """Compile a suite workload through the memo."""
    workload = get_workload(workload_name)
    key = (workload_name, source_hash(workload.source), mode,
           compile_key(mode, options))
    result = _COMPILE_MEMO.get(key)
    if result is None:
        result = (compile_scalar(workload.source) if mode == "scalar"
                  else compile_dyser(workload.source, options))
        if len(_COMPILE_MEMO) >= _COMPILE_MEMO_LIMIT:
            _COMPILE_MEMO.clear()
        _COMPILE_MEMO[key] = result
    return result


def clear_caches() -> None:
    """Drop all process-local memoized state: compiles, the decode
    cache of the predecoding backend **and** the cost memo of the
    engine/service pre-flight.

    The engine calls this in worker processes after code-fingerprint
    changes, and tests use it to guarantee cold-compile (and
    cold-decode) behaviour.
    """
    from repro.analysis.perf import clear_cost_memo

    _COMPILE_MEMO.clear()
    clear_decode_caches()
    clear_cost_memo()


def _default_options(config: RunConfig) -> CompilerOptions:
    return config.options or CompilerOptions()


def _core_config(config: RunConfig) -> CoreConfig:
    return config.core_config or CoreConfig(
        has_dyser=(config.mode == "dyser"))


class _RunSetup:
    """Everything around the core that a solo run (:func:`run_workload`),
    a lockstep lane (:func:`repro.harness.batch.execute_batch_group`)
    and a static walk (:func:`repro.analysis.perf.analyze_workload`)
    share: compile (unless ``compiled`` is given), memory image and
    workload instance, and per config the DySER device and the result
    assembly."""

    def __init__(self, config: RunConfig,
                 compiled: CompileResult | None = None,
                 events: EventStream | None = None) -> None:
        workload = get_workload(config.workload)
        options = self.options = _default_options(config)
        if compiled is None:
            if events is not None:
                # Tracing wants per-pass wall times: compile fresh,
                # outside the memo (a memo hit would have no passes to
                # time).
                with events.span("compile", "compiler",
                                 workload=config.workload,
                                 mode=config.mode):
                    compiled = (
                        compile_scalar(workload.source, events=events)
                        if config.mode == "scalar"
                        else compile_dyser(workload.source, options,
                                           events=events))
            else:
                compiled = _compile(config.workload, config.mode, options)
        self.compiled: CompileResult = compiled
        self.memory = Memory(config.memory_bytes)
        self.instance: Instance = workload.prepare(
            self.memory, config.scale, config.seed)

    def device(self, config: RunConfig, cls: type = DyserDevice,
               **extra) -> DyserDevice | None:
        """``config``'s DySER device (None for a scalar run)."""
        if config.mode != "dyser":
            return None
        return cls(fabric=self.options.fabric,
                   timing=config.timing or DyserTimingParams(),
                   cache_params=config.cache_params or ConfigCacheParams(),
                   **extra)

    def result(self, config: RunConfig, stats: ExecStats, correct: bool,
               events: EventStream | None = None) -> RunResult:
        """``config``'s :class:`RunResult`, energy accounted."""
        eparams = config.energy_params or EnergyParams(
            dyser_present=(config.mode == "dyser"))
        return RunResult(
            workload=config.workload, mode=config.mode, scale=config.scale,
            correct=correct, stats=stats,
            energy=EnergyModel(eparams).account(stats),
            compile_result=self.compiled,
            work_items=self.instance.work_items, events=events,
        )


def run_workload(config: RunConfig, /,
                 compiled: CompileResult | None = None) -> RunResult:
    """Compile and run one workload; returns stats + energy + check.

    ``compiled`` lets callers (the engine's artifact cache) supply a
    pre-built :class:`CompileResult` and skip compilation.
    """
    if not isinstance(config, RunConfig):
        raise TypeError(
            "run_workload() takes a RunConfig; the legacy "
            "run_workload(name, **kwargs) form was removed — use "
            "run_workload(RunConfig(workload=..., mode=...)) instead"
        )
    events = config.trace.stream()
    run = _RunSetup(config, compiled, events)
    device = run.device(config)
    if device is not None:
        device.events = events
    backend = resolve_backend(config)
    core = backend.core_cls(
        run.compiled.program, run.memory, dyser=device,
        config=_core_config(config), events=events,
        trace_instructions=(config.trace.instructions
                            and events is not None))
    core.set_args(run.instance.int_args, run.instance.fp_args)
    stats = core.run()
    correct = run.instance.check(run.memory)
    if events is not None:
        events.instant("run_end", "cpu", stats.cycles,
                       correct=bool(correct))
    return run.result(config, stats, correct, events)


def compare(config: RunConfig) -> Comparison:
    """Run scalar and DySER builds of ``config``'s workload on identical
    inputs: ``config`` with its ``mode`` set to each in turn.  The
    scalar build ignores ``config.options``."""
    return Comparison(workload=config.workload,
                      scalar=run_workload(config.with_(mode="scalar")),
                      dyser=run_workload(config.with_(mode="dyser")))
