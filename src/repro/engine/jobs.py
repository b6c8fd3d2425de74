"""Declarative job specifications.

A :class:`JobSpec` names one (workload, mode, scale, seed) point in the
design space together with every knob that can change its outcome:
compiler options, fabric geometry, FIFO depths, configuration-cache
capacity, host-core port width, and energy-model overrides.  It is a
frozen dataclass of plain values, so it pickles cleanly into worker
processes and carries a stable content hash that keys the persistent
artifact cache (:mod:`repro.engine.cache`).

:class:`~repro.engine.sweeps.SweepSpec` expands cartesian grids over
those knobs — the E9/E10 axes (geometry 2x2..8x8, unroll, vectorize,
port width, FIFO depth, config-cache capacity) and anything else a
future experiment sweeps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, asdict, dataclass, fields, replace

from repro.compiler import CompilerOptions
from repro.cpu import CoreConfig
from repro.dyser import DyserTimingParams, Fabric, FabricGeometry
from repro.dyser.config_cache import ConfigCacheParams
from repro.energy import EnergyParams
from repro.errors import WorkloadError

#: Bump when JobSpec semantics change in a way that must invalidate
#: previously cached results even though field values look identical.
SPEC_VERSION = "jobspec-v1"

#: Fields that cannot affect a scalar-mode run.  They are normalized to
#: their defaults in the canonical (hashed) form so the scalar baseline
#: of a DySER knob sweep maps to one cache entry instead of many.
_DYSER_ONLY_FIELDS = (
    "geometry",
    "min_region_ops",
    "unroll",
    "vectorize",
    "reassociate",
    "pipeline_invocations",
    "if_convert",
    "max_region_ops",
    "input_fifo_depth",
    "output_fifo_depth",
    "initiation_interval",
    "config_cache_capacity",
    "vector_port_words_per_cycle",
)

#: Fields that determine the compiled artifact (independent of the
#: simulated run's scale/seed/timing knobs).
_COMPILE_FIELDS = (
    "workload",
    "mode",
    "geometry",
    "min_region_ops",
    "unroll",
    "vectorize",
    "reassociate",
    "pipeline_invocations",
    "if_convert",
    "max_region_ops",
)


@dataclass(frozen=True)
class JobSpec:
    """One fully specified experiment point."""

    workload: str
    mode: str = "dyser"
    scale: str = "small"
    seed: int = 7

    # Compiler knobs (mirror repro.compiler.CompilerOptions defaults).
    geometry: tuple = (8, 8)
    min_region_ops: int = 2
    unroll: int = 8
    vectorize: bool = True
    reassociate: bool = True
    pipeline_invocations: bool = True
    if_convert: bool = True
    max_region_ops: int | None = None

    # Fabric timing knobs (repro.dyser.DyserTimingParams).
    input_fifo_depth: int = 4
    output_fifo_depth: int = 4
    initiation_interval: int = 1

    # Configuration cache (repro.dyser.config_cache.ConfigCacheParams).
    config_cache_capacity: int = 4

    # Host-core integration knobs.
    vector_port_words_per_cycle: int = 2

    # Energy model overrides, as a sorted tuple of (field, value).
    energy_overrides: tuple = ()

    memory_bytes: int = 1 << 22

    #: Simulation backend (see :mod:`repro.harness.backends`).  By the
    #: parity contract the backend never changes a run's *outcome*, so
    #: it is deliberately excluded from :meth:`canonical_dict` and
    #: therefore from :attr:`job_hash` — results computed on either
    #: backend share one artifact-cache entry.
    backend: str = "batched"

    def __post_init__(self) -> None:
        if self.mode not in ("scalar", "dyser"):
            raise WorkloadError(f"unknown mode {self.mode!r}")
        from repro.harness.backends import get_backend

        get_backend(self.backend)   # raises WorkloadError if unknown
        geometry = tuple(int(v) for v in self.geometry)
        if len(geometry) != 2 or min(geometry) < 1:
            raise WorkloadError(f"bad geometry {self.geometry!r}")
        object.__setattr__(self, "geometry", geometry)
        # Normalize knob types so e.g. vectorize=1 and vectorize=True
        # produce the same canonical form and content hash.
        for name in ("vectorize", "reassociate", "pipeline_invocations",
                     "if_convert"):
            object.__setattr__(self, name, bool(getattr(self, name)))
        for name in ("seed", "min_region_ops", "unroll",
                     "input_fifo_depth", "output_fifo_depth",
                     "initiation_interval", "config_cache_capacity",
                     "vector_port_words_per_cycle", "memory_bytes"):
            object.__setattr__(self, name, int(getattr(self, name)))
        overrides = tuple(sorted(
            (str(k), v) for k, v in tuple(self.energy_overrides)))
        object.__setattr__(self, "energy_overrides", overrides)

    # -- hashing -------------------------------------------------------

    def canonical_dict(self) -> dict:
        """Field dict with dyser-only knobs normalized away for scalar.

        ``backend`` is removed: both registered backends are
        cycle-exact-equal (enforced by :mod:`repro.harness.parity`), so
        the backend choice cannot change a cached result.
        """
        data = asdict(self)
        data.pop("backend")
        data["version"] = SPEC_VERSION
        if self.mode == "scalar":
            defaults = _FIELD_DEFAULTS
            for name in _DYSER_ONLY_FIELDS:
                data[name] = defaults[name]
        data["geometry"] = list(data["geometry"])
        data["energy_overrides"] = [list(p) for p in data["energy_overrides"]]
        return data

    @property
    def job_hash(self) -> str:
        """Stable content hash of the canonical spec (hex sha256)."""
        blob = json.dumps(self.canonical_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @property
    def compile_hash(self) -> str:
        """Hash of everything that determines the compiled artifact.

        Includes a hash of the workload's *source text* so an edited
        kernel can never be served a stale compiled program.
        """
        from repro.harness.runner import source_hash
        from repro.workloads import get

        data = self.canonical_dict()
        data = {k: data[k] for k in _COMPILE_FIELDS}
        data["version"] = SPEC_VERSION
        data["source"] = source_hash(get(self.workload).source)
        blob = json.dumps(data, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # -- parameter-object construction ---------------------------------

    def options(self) -> CompilerOptions:
        return CompilerOptions(
            fabric=Fabric(FabricGeometry(*self.geometry)),
            min_region_ops=self.min_region_ops,
            unroll=self.unroll,
            vectorize=self.vectorize,
            reassociate=self.reassociate,
            pipeline_invocations=self.pipeline_invocations,
            if_convert=self.if_convert,
            max_region_ops=self.max_region_ops,
        )

    def timing(self) -> DyserTimingParams:
        return DyserTimingParams(
            input_fifo_depth=self.input_fifo_depth,
            output_fifo_depth=self.output_fifo_depth,
            initiation_interval=self.initiation_interval,
        )

    def cache_params(self) -> ConfigCacheParams:
        return ConfigCacheParams(capacity=self.config_cache_capacity)

    def core_config(self) -> CoreConfig:
        return CoreConfig(
            has_dyser=(self.mode == "dyser"),
            vector_port_words_per_cycle=self.vector_port_words_per_cycle,
        )

    def energy_params(self) -> EnergyParams:
        params = EnergyParams(dyser_present=(self.mode == "dyser"))
        if self.energy_overrides:
            params = replace(params, **dict(self.energy_overrides))
        return params

    # -- RunConfig bridge ----------------------------------------------

    def to_run_config(self, trace=None):
        """The :class:`repro.harness.RunConfig` this spec describes.

        ``trace`` (a :class:`repro.obs.events.TraceOptions`) rides along
        without affecting :attr:`job_hash` — observability never changes
        a run's outcome, so traced and untraced runs share cache keys.
        The ``backend`` transfers too (also hash-excluded, by the parity
        contract).
        """
        from repro.harness.config import RunConfig
        from repro.obs.events import TraceOptions

        return RunConfig(
            workload=self.workload,
            mode=self.mode,
            scale=self.scale,
            seed=self.seed,
            options=self.options(),
            core_config=self.core_config(),
            timing=self.timing(),
            cache_params=self.cache_params(),
            energy_params=self.energy_params(),
            memory_bytes=self.memory_bytes,
            trace=trace or TraceOptions(),
            backend=self.backend,
        )

    @classmethod
    def from_run_config(cls, config) -> "JobSpec":
        """Recover the spec a :meth:`to_run_config` output came from.

        Lossless for configs built by :meth:`to_run_config` (round-trip
        preserves :attr:`job_hash`); configs with ``None`` parameter
        objects map to the corresponding field defaults, mirroring how
        the harness substitutes defaults at execution time.
        """
        from repro.energy import EnergyParams
        from dataclasses import fields as dc_fields

        options = config.options
        timing = config.timing
        cache_params = config.cache_params
        core_config = config.core_config
        data: dict = {
            "workload": config.workload,
            "mode": config.mode,
            "scale": config.scale,
            "seed": config.seed,
            "memory_bytes": config.memory_bytes,
            "backend": config.backend,
        }
        if options is not None:
            g = options.fabric.geometry
            data.update(
                geometry=(g.width, g.height),
                min_region_ops=options.min_region_ops,
                unroll=options.unroll,
                vectorize=options.vectorize,
                reassociate=options.reassociate,
                pipeline_invocations=options.pipeline_invocations,
                if_convert=options.if_convert,
                max_region_ops=options.max_region_ops,
            )
        if timing is not None:
            data.update(
                input_fifo_depth=timing.input_fifo_depth,
                output_fifo_depth=timing.output_fifo_depth,
                initiation_interval=timing.initiation_interval,
            )
        if cache_params is not None:
            data["config_cache_capacity"] = cache_params.capacity
        if core_config is not None:
            data["vector_port_words_per_cycle"] = (
                core_config.vector_port_words_per_cycle)
        if config.energy_params is not None:
            baseline = EnergyParams(
                dyser_present=(config.mode == "dyser"))
            overrides = tuple(
                (f.name, getattr(config.energy_params, f.name))
                for f in dc_fields(EnergyParams)
                if f.name != "dyser_present"
                and getattr(config.energy_params, f.name)
                != getattr(baseline, f.name))
            data["energy_overrides"] = overrides
        return cls(**data)

    def describe(self) -> str:
        w, h = self.geometry
        return (f"{self.workload}/{self.mode}@{self.scale} "
                f"g{w}x{h} u{self.unroll} "
                f"v{int(self.vectorize)} cc{self.config_cache_capacity}")


_FIELD_DEFAULTS = {
    f.name: f.default for f in fields(JobSpec) if f.default is not MISSING
}
_FIELD_NAMES = frozenset(f.name for f in fields(JobSpec))
