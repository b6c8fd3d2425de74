"""First-class sweep descriptions.

A :class:`SweepSpec` is the declarative form of a design-space sweep:
the workloads, the modes, a ``base`` of fixed non-default knob values,
and ordered ``axes`` mapping :class:`~repro.engine.jobs.JobSpec` field
names to the values each axis takes.  It is the one frozen, hashable,
serializable sweep object every consumer shares — ``repro sweep``,
:func:`run_jobs`, and the service's sweep jobs (``POST /v2/jobs``).

Guarantees:

- :meth:`jobs` expands in exactly the historical builder order
  (workload outermost, then mode, then the cartesian product of the
  axes in declaration order), so job lists — and therefore engine
  reports, CLI tables and cached artifacts — are unchanged.
- :attr:`sweep_hash` is a stable content hash of the canonical form;
  two spellings of the same sweep (list vs tuple values, dict vs pair
  tuples) hash identically.
- :meth:`to_dict` / :meth:`from_dict` round-trip losslessly, which is
  what the service transports.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass

from repro.errors import WorkloadError

from repro.engine.jobs import _FIELD_NAMES, JobSpec

#: Bump when SweepSpec canonical form changes incompatibly.
SWEEP_VERSION = "sweepspec-v1"

_MODES = ("scalar", "dyser")


def _freeze(value):
    """Normalize a knob value: lists/tuples become tuples, recursively."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value):
    """JSON-friendly rendering of a frozen knob value."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class SweepSpec:
    """One declarative design-space sweep.

    ``base`` holds fixed non-default knob values as sorted ``(name,
    value)`` pairs; ``axes`` holds ``(name, values)`` pairs whose order
    *is* the expansion order.  Both accept plain dicts at construction
    and are frozen into tuples.
    """

    workloads: tuple = ()
    modes: tuple = ("dyser",)
    base: tuple = ()
    axes: tuple = ()

    def __post_init__(self) -> None:
        workloads = tuple(str(w) for w in self.workloads)
        if not workloads:
            raise WorkloadError("SweepSpec needs at least one workload")
        modes = tuple(str(m) for m in self.modes)
        for mode in modes:
            if mode not in _MODES:
                raise WorkloadError(f"unknown mode {mode!r}")
        if not modes:
            raise WorkloadError("SweepSpec needs at least one mode")
        base = self.base
        if isinstance(base, dict):
            base = base.items()
        base = tuple(sorted((str(k), _freeze(v)) for k, v in base))
        axes = self.axes
        if isinstance(axes, dict):
            axes = axes.items()
        axes = tuple((str(k), tuple(_freeze(v) for v in vs))
                     for k, vs in axes)
        seen: set[str] = set()
        for name, values in axes:
            if not values:
                raise WorkloadError(f"sweep axis {name!r} has no values")
            if name in seen:
                raise WorkloadError(f"duplicate sweep axis {name!r}")
            seen.add(name)
        for name, _ in itertools.chain(base, axes):
            if name not in _FIELD_NAMES or name in ("workload", "mode"):
                raise WorkloadError(f"unknown JobSpec field {name!r}")
        object.__setattr__(self, "workloads", workloads)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "axes", axes)

    # -- expansion -----------------------------------------------------

    def __len__(self) -> int:
        n = len(self.workloads) * len(self.modes)
        for _name, values in self.axes:
            n *= len(values)
        return n

    def jobs(self) -> list[JobSpec]:
        """Expand to the full :class:`JobSpec` list.

        Order is the historical builder order — workload outermost,
        then mode, then the cartesian product of the axes in
        declaration order — so job hashes and report indices line up
        with what earlier releases cached.
        """
        base = dict(self.base)
        axis_names = [name for name, _ in self.axes]
        axis_values = [values for _, values in self.axes]
        specs = []
        for workload in self.workloads:
            for mode in self.modes:
                for values in itertools.product(*axis_values):
                    overrides = dict(zip(axis_names, values,
                                         strict=True))
                    specs.append(JobSpec(workload=workload, mode=mode,
                                         **{**base, **overrides}))
        return specs

    # -- identity ------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe rendering; :meth:`from_dict` round-trips it."""
        return {
            "version": SWEEP_VERSION,
            "workloads": list(self.workloads),
            "modes": list(self.modes),
            "base": {name: _thaw(value) for name, value in self.base},
            "axes": [[name, [_thaw(v) for v in values]]
                     for name, values in self.axes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        if not isinstance(data, dict):
            raise WorkloadError("sweep spec must be a JSON object")
        version = data.get("version", SWEEP_VERSION)
        if version != SWEEP_VERSION:
            raise WorkloadError(
                f"unsupported sweep spec version {version!r}")
        axes = data.get("axes", [])
        axes = (axes.items() if isinstance(axes, dict)
                else [tuple(pair) for pair in axes])
        return cls(
            workloads=tuple(data.get("workloads", ())),
            modes=tuple(data.get("modes", ("dyser",))),
            base=dict(data.get("base", {})),
            axes=tuple(axes),
        )

    @property
    def sweep_hash(self) -> str:
        """Stable content hash of the canonical sweep (hex sha256)."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        axes = ", ".join(f"{name}x{len(values)}"
                         for name, values in self.axes) or "no axes"
        return (f"sweep[{len(self)}] over {len(self.workloads)} "
                f"workloads ({'+'.join(self.modes)}; {axes})")

    # -- common shapes -------------------------------------------------

    @classmethod
    def comparison(cls, workloads, scale: str = "small", seed: int = 7,
                   **knobs) -> "SweepSpec":
        """The scalar-vs-DySER pairing: both modes per workload, no
        axes."""
        return cls(workloads=tuple(workloads),
                   modes=("scalar", "dyser"),
                   base={"scale": scale, "seed": seed, **knobs})

    @classmethod
    def suite(cls, scale: str = "small", seed: int = 7) -> "SweepSpec":
        """Scalar+DySER across the whole registered workload suite."""
        from repro.workloads import SUITE

        return cls.comparison(sorted(SUITE), scale=scale, seed=seed)
