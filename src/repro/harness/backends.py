"""Simulation backend registry: one dispatch point for every run.

A *backend* is a core implementation with identical observable results:

- ``"reference"`` — :class:`repro.cpu.Core`, the per-cycle interpreted
  oracle.  Supports event tracing, per-instruction events included.
- ``"batched"`` — :class:`repro.cpu.BatchCore`, the predecoded lockstep
  core.  A solo run is a lane of one (:class:`repro.cpu.LaneOfOne`);
  sweep points that differ only in timing knobs run as one wider lane
  (:mod:`repro.harness.batch`).  Every result is byte-identical to the
  reference's (enforced by :mod:`repro.harness.parity` and
  ``tests/test_fastcore.py``), but no events are emitted: traced runs
  transparently resolve to the reference backend, whose cycle counts
  are identical by that same contract.
- ``"fast"`` — another name for solo runs on the lockstep core.  The
  layer benchmark (``benchmarks/layers``) names a per-layer metric
  after it, ``cpu.fast.run.s``, which times :class:`LaneOfOne` runs.

``RunConfig.backend`` selects by name and is validated against this
registry at construction.  Everything that executes a run —
``run_workload``/``compare``, ``profile_workload``, the
engine's job workers, the CLI — goes through :func:`resolve_backend`,
so there is exactly one place where the choice is made.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from repro.cpu import BatchCore, Core, LaneOfOne
from repro.errors import WorkloadError

#: The registry default (and therefore ``RunConfig``'s default).
DEFAULT_BACKEND = "batched"


@dataclass(frozen=True)
class Backend:
    """One registered core implementation.

    ``core_cls`` runs one config and follows the :class:`Core`
    constructor contract.  ``batch_cls``, when set, is the lockstep
    core that runs wider lanes of this backend's configs.
    """

    name: str
    core_cls: type
    supports_tracing: bool
    description: str = ""
    batch_cls: type | None = None


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend) -> None:
    """Register a backend (name must be unused)."""
    if backend.name in _REGISTRY:
        raise WorkloadError(f"duplicate backend {backend.name!r}")
    _REGISTRY[backend.name] = backend


def unregister_backend(name: str) -> None:
    """Remove a registered backend (:class:`WorkloadError` if unknown).

    The built-in backends are load-bearing (``resolve_backend`` falls
    back to ``"reference"``); removing them is refused.
    """
    if name in ("reference", "fast", "batched"):
        raise WorkloadError(f"cannot unregister built-in backend {name!r}")
    if name not in _REGISTRY:
        raise WorkloadError(f"unknown backend {name!r}")
    del _REGISTRY[name]


@contextlib.contextmanager
def temporary_backend(backend: Backend):
    """Register ``backend`` for the duration of a ``with`` block.

    The differential harnesses use this to pit deliberately-wrong stub
    cores against the reference without leaking registry state into
    other tests:

        with temporary_backend(Backend("stub", StubCore, False)):
            report = verify_parity(configs, candidate="stub")
    """
    register_backend(backend)
    try:
        yield backend
    finally:
        _REGISTRY.pop(backend.name, None)


def backend_names() -> tuple[str, ...]:
    """All registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> Backend:
    """Look up a backend by name (:class:`WorkloadError` if unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise WorkloadError(
            f"unknown backend {name!r} "
            f"(registered: {', '.join(backend_names())})"
        ) from None


def resolve_backend(config) -> Backend:
    """The backend that will actually run ``config``.

    Falls back to the reference backend when the run requests tracing
    and the selected backend cannot emit it.  Because the
    backends are cycle-exact-equal, this changes *how* the run is
    simulated, never *what* it reports — ``tests/test_fastcore.py``
    pins that with an explicit traced-vs-untraced cycle check.
    """
    backend = get_backend(config.backend)
    if config.trace.enabled and not backend.supports_tracing:
        return get_backend("reference")
    return backend


register_backend(Backend(
    name="reference",
    core_cls=Core,
    supports_tracing=True,
    description="per-cycle interpreted core (the parity oracle)",
))
register_backend(Backend(
    name="batched",
    core_cls=LaneOfOne,
    supports_tracing=False,
    description="predecoded lockstep core; a solo run is a lane of "
                "one, cycle-exact with the reference",
    batch_cls=BatchCore,
))
register_backend(Backend(
    name="fast",
    core_cls=LaneOfOne,
    supports_tracing=False,
    description="solo runs on the lockstep core (as on batched)",
))
