"""Declarative job specifications.

A :class:`JobSpec` names one (workload, mode, scale, seed) point in the
design space together with every knob that can change its outcome:
compiler options, fabric geometry, FIFO depths, configuration-cache
capacity, host-core port width, and energy-model overrides.  It is a
frozen dataclass of plain values, so it pickles cleanly into worker
processes and carries a stable content hash that keys the persistent
artifact cache (:mod:`repro.engine.cache`).

The field declarations are the knob table: each field but
``energy_overrides`` is a :func:`_knob` naming where it lives in a
:class:`~repro.harness.config.RunConfig` (``owner``, ``""`` for the
config itself, and ``attr``: ``config_cache_capacity`` is
``cache_params.capacity``), whether only DySER runs read it
(``dyser_only``: a scalar spec hashes its default) and whether it
shapes the compiled program (``compile``).  Type normalisation, the
hashes and the ``RunConfig`` bridge all read that table.

:class:`~repro.engine.sweeps.SweepSpec` expands cartesian grids over
those knobs — the E9/E10 axes (geometry 2x2..8x8, unroll, vectorize,
port width, FIFO depth, config-cache capacity) and anything else a
future experiment sweeps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import (MISSING, asdict, dataclass, field, fields,
                         is_dataclass, replace)
from functools import cached_property
from typing import Callable, NamedTuple

from repro.compiler import CompilerOptions
from repro.cpu import CoreConfig
from repro.dyser import DyserTimingParams, Fabric, FabricGeometry
from repro.dyser.config_cache import ConfigCacheParams
from repro.energy import EnergyParams
from repro.errors import WorkloadError

#: Bump when JobSpec semantics change in a way that must invalidate
#: previously cached results even though field values look identical.
SPEC_VERSION = "jobspec-v1"

#: Part of the hash format, not knobs: two compiler options that
#: nothing ever read were deleted, and every canonical form still
#: carries them at the only value a spec can now have, so job, shape
#: and compile hashes stay those of earlier releases.
RETIRED_KNOBS = {"pipeline_invocations": True, "if_convert": True}


class _Knob(NamedTuple):
    """One row of the knob table (see the module docstring); ``build``
    maps the spec's value to the owner's and ``read`` maps it back."""

    name: str
    owner: str
    attr: str
    dyser_only: bool
    compile: bool
    build: Callable
    read: Callable


def _same(value):
    return value


def _knob(default=MISSING, owner: str = "", attr: str = "", *,
          dyser_only: bool = False, compile: bool = False,
          build: Callable = _same, read: Callable = _same):
    return field(default=default, metadata={"knob": _Knob(
        "", owner, attr, dyser_only, compile, build, read)})


@dataclass(frozen=True)
class JobSpec:
    """One fully specified experiment point."""

    workload: str = _knob(compile=True)
    mode: str = _knob("dyser", compile=True)
    scale: str = _knob("small")
    seed: int = _knob(7)

    # Compiler knobs (repro.compiler.CompilerOptions).
    geometry: tuple = _knob(
        (8, 8), "options", "fabric", dyser_only=True, compile=True,
        build=lambda g: Fabric(FabricGeometry(*g)),
        read=lambda fabric: (fabric.geometry.width, fabric.geometry.height))
    unroll: int = _knob(8, "options", dyser_only=True, compile=True)
    min_region_ops: int = _knob(2, "options", dyser_only=True, compile=True)
    vectorize: bool = _knob(True, "options", dyser_only=True, compile=True)
    reassociate: bool = _knob(True, "options", dyser_only=True, compile=True)
    max_region_ops: int | None = _knob(None, "options", dyser_only=True,
                                       compile=True)

    # Fabric timing knobs (repro.dyser.DyserTimingParams).
    input_fifo_depth: int = _knob(4, "timing", dyser_only=True)
    output_fifo_depth: int = _knob(4, "timing", dyser_only=True)
    initiation_interval: int = _knob(1, "timing", dyser_only=True)

    # Configuration cache (repro.dyser.config_cache.ConfigCacheParams).
    config_cache_capacity: int = _knob(4, "cache_params", "capacity",
                                       dyser_only=True)

    # Host-core integration knobs (repro.cpu.CoreConfig).
    vector_port_words_per_cycle: int = _knob(2, "core_config",
                                             dyser_only=True)

    # Energy model overrides, as a sorted tuple of (field, value).
    energy_overrides: tuple = ()

    memory_bytes: int = _knob(1 << 22)

    #: Simulation backend (see :mod:`repro.harness.backends`).  By the
    #: parity contract the backend never changes a run's *outcome*, so
    #: it is deliberately excluded from :meth:`canonical_dict` and
    #: therefore from :attr:`job_hash` — results computed on either
    #: backend share one artifact-cache entry.
    backend: str = _knob("batched")

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
        for name, kind in _NORMALISED:
            object.__setattr__(self, name, kind(getattr(self, name)))
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
        data.update(RETIRED_KNOBS)
        data["version"] = SPEC_VERSION
        if self.mode == "scalar":
            data.update(_SCALAR_DEFAULTS)
        data["geometry"] = list(data["geometry"])
        data["energy_overrides"] = [list(p) for p in data["energy_overrides"]]
        return data

    # The two hashes below are computed once per spec and kept in the
    # instance ``__dict__`` (a frozen dataclass only blocks
    # ``__setattr__``).  Fields, equality and ``asdict`` never see
    # them; a pickle to a pool worker carries them along, which is
    # safe because the spec cannot change.

    @cached_property
    def job_hash(self) -> str:
        """Stable content hash of the canonical spec (hex sha256)."""
        return _sha256_json(self.canonical_dict())

    @cached_property
    def shape_hash(self) -> str:
        """:attr:`job_hash` with the seed left out (hex sha256).

        Specs that differ only in their seed share a shape; the cost
        pre-flight (:func:`repro.analysis.perf.estimate_job_cost`)
        prices a shape by the cycles of a finished run of it.
        """
        data = self.canonical_dict()
        del data["seed"]
        return _sha256_json(data)

    @property
    def compile_hash(self) -> str:
        """Hash of everything that determines the compiled artifact.

        Includes a hash of the workload's *source text* so an edited
        kernel can never be served a stale compiled program.
        """
        from repro.harness.runner import source_hash
        from repro.workloads import get

        data = self.canonical_dict()
        data = {k: data[k] for k in _COMPILE_KEYS}
        data["version"] = SPEC_VERSION
        data["source"] = source_hash(get(self.workload).source)
        return _sha256_json(data)

    # -- RunConfig bridge ----------------------------------------------

    def params(self, owner: str):
        """The ``owner`` parameter object of :meth:`to_run_config`
        (``"options"``, ``"timing"``, ``"cache_params"`` or
        ``"core_config"``)."""
        kwargs = {k.attr: k.build(getattr(self, k.name))
                  for k in _BY_OWNER[owner]}
        if owner == "core_config":
            kwargs["has_dyser"] = self.mode == "dyser"
        return _OWNERS[owner](**kwargs)

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

        energy = EnergyParams(dyser_present=(self.mode == "dyser"))
        if self.energy_overrides:
            energy = replace(energy, **dict(self.energy_overrides))
        return RunConfig(
            **{k.attr: getattr(self, k.name) for k in _BY_OWNER[""]},
            **{owner: self.params(owner) for owner in _OWNERS},
            energy_params=energy, trace=trace or TraceOptions())

    @classmethod
    def from_run_config(cls, config) -> "JobSpec":
        """Recover the spec a :meth:`to_run_config` output came from.

        The round trip preserves :attr:`job_hash`; a ``None`` parameter
        object maps to the field defaults, as the harness substitutes
        defaults at execution time.  A config that sets an attribute no
        knob carries (a fabric port count or capability map, a core
        latency) describes no spec: :class:`WorkloadError` names it.
        """
        data = {}
        for k in _KNOBS:
            owner = getattr(config, k.owner) if k.owner else config
            if owner is not None:
                data[k.name] = k.read(getattr(owner, k.attr))
        if config.energy_params is not None:
            baseline = EnergyParams(dyser_present=(config.mode == "dyser"))
            data["energy_overrides"] = tuple(
                (f.name, getattr(config.energy_params, f.name))
                for f in fields(EnergyParams)
                if f.name != "dyser_present"
                and getattr(config.energy_params, f.name)
                != getattr(baseline, f.name))
        spec = cls(**data)
        for owner in _OWNERS:
            given = getattr(config, owner)
            if given is not None:
                lost = _difference(given, spec.params(owner), owner)
                if lost is not None:
                    raise WorkloadError(
                        f"no JobSpec knob carries {lost}, which this "
                        f"RunConfig sets off its default")
        return spec

    def describe(self) -> str:
        w, h = self.geometry
        return (f"{self.workload}/{self.mode}@{self.scale} "
                f"g{w}x{h} u{self.unroll} "
                f"v{int(self.vectorize)} cc{self.config_cache_capacity}")


#: The knob table, in field order.
_KNOBS = tuple(
    f.metadata["knob"]._replace(name=f.name,
                                attr=f.metadata["knob"].attr or f.name)
    for f in fields(JobSpec) if "knob" in f.metadata)
#: ``RunConfig`` parameter objects by attribute name; ``""`` in a
#: knob's owner means the ``RunConfig`` itself.
_OWNERS = {"options": CompilerOptions, "timing": DyserTimingParams,
           "cache_params": ConfigCacheParams, "core_config": CoreConfig}
_BY_OWNER = {owner: tuple(k for k in _KNOBS if k.owner == owner)
             for owner in ("", *_OWNERS)}
#: Owner attributes no knob carries that :meth:`JobSpec.from_run_config`
#: lets through: one is diagnostic only, the mode decides the other.
_EXEMPT = frozenset({"options.verify_passes", "core_config.has_dyser"})
_SCALAR_DEFAULTS = {k.name: getattr(JobSpec, k.name)
                    for k in _KNOBS if k.dyser_only}
_COMPILE_KEYS = tuple(k.name for k in _KNOBS if k.compile) \
    + tuple(RETIRED_KNOBS)
#: Fields normalised to the type of their default (bool or int).
_NORMALISED = tuple((f.name, type(f.default)) for f in fields(JobSpec)
                    if type(f.default) in (bool, int))
_FIELD_NAMES = frozenset(f.name for f in fields(JobSpec))


def _difference(given, built, path: str) -> str | None:
    """Dotted path of the first non-exempt attribute where two
    parameter objects differ, or None."""
    if given == built or path in _EXEMPT:
        return None
    if is_dataclass(given) and type(given) is type(built):
        for f in fields(given):
            found = _difference(getattr(given, f.name),
                                getattr(built, f.name), f"{path}.{f.name}")
            if found is not None:
                return found
        return None
    return path


def _sha256_json(data: dict) -> str:
    blob = json.dumps(data, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
