"""Batch planning + lane execution for the ``batched`` backend.

This is the middle pass of the batched lowering (decode → batch-plan →
lockstep-execute; see :mod:`repro.cpu.batchcore`).  It answers two
questions:

1. **Which sweep points may share one functional execution?**
   :func:`plan_batches` groups :class:`RunConfig`\\ s into *lanes* keyed
   by everything that shapes architectural state: workload, mode,
   scale, seed, memory size, the compiler options a build reads (none
   for a scalar one), and every :class:`CoreConfig` field except the
   per-point timing knobs
   (:data:`repro.cpu.batchcore.PER_POINT_FIELDS`).  Points in one lane
   provably execute the same instruction stream over the same values —
   the remaining knobs (DySER FIFO depths, initiation interval,
   config-cache capacity, port rate, instruction limits, energy
   accounting) shift *when* things happen, never *what* happens.
   Traced configs and lanes of one are returned as singles.

2. **How does a lane run?**  :func:`execute_batch_group` shares
   :func:`repro.harness.runner.run_workload`'s run set-up and result
   assembly (``_RunSetup``) — one compile (shared memo), one
   :class:`Memory` + ``prepare``, a :class:`~repro.dyser.DyserDevice`
   per point for the cycles (the core holds the lane's one set of DySER
   values) — then drives a :class:`BatchCore` and assembles a result
   per point (energy model, correctness checked once against the shared
   memory image).
   Points the core evicts (per-point instruction limits, shared
   faults) are replayed solo via :func:`run_workload` as lanes of one,
   which never evict and reproduce byte-identical results *including*
   stable error strings; a point's fault therefore never poisons its
   siblings.

The parity contract is the solo run's, lifted to lanes:
:func:`verify_batch_parity` diffs every batched point against a solo
reference run and must report zero mismatches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler import CompileResult
from repro.cpu.batchcore import _SHARED_FIELDS, BatchCore
from repro.errors import ReproError, stable_error_string
from repro.harness.config import RunConfig
from repro.harness.parity import (
    ParityMismatch,
    ParityReport,
    _outcome,
    diff_summaries,
)
from repro.harness.runner import (
    RunResult,
    _core_config,
    compile_key,
    _RunSetup,
    run_workload,
)


@dataclass
class BatchOutcome:
    """What happened to one sweep point of a batched execution.

    Exactly one of ``result``/``error`` is set.  ``error`` carries the
    actual :class:`ReproError` instance (not a rendering) so callers
    can format it however the solo path would — the engine as
    ``f"{type(exc).__name__}: {exc}"``, the parity harness via
    :func:`repro.errors.stable_error_string`.  ``batched`` is False
    for points that were replayed solo (eviction or singles).
    """

    config: RunConfig
    result: RunResult | None = None
    error: ReproError | None = None
    batched: bool = False


def lane_key(config: RunConfig) -> tuple:
    """Everything that shapes a run's *functional* execution.

    Two configs with equal lane keys execute the same instruction
    stream over the same architectural values and may run in lockstep.
    Nested parameter objects are keyed by ``repr`` — they are plain
    dataclasses, so the rendering is total and value-based.
    """
    cc = _core_config(config)
    return (
        config.workload, config.mode, config.scale, config.seed,
        config.memory_bytes, compile_key(config.mode, config.options),
        tuple(repr(getattr(cc, name)) for name in _SHARED_FIELDS),
    )


def plan_batches(
    configs: list[RunConfig] | tuple[RunConfig, ...],
) -> tuple[list[list[int]], list[int]]:
    """Group configs into lanes; returns ``(groups, singles)`` as
    indices into ``configs``.

    Traced configs never batch (the batched core cannot trace, and the
    registry would route them to the reference backend anyway), and a
    lane needs at least two points to be worth lockstep.  Groups are
    ordered by their first member, singles keep input order.
    """
    lanes: dict[tuple, list[int]] = {}
    singles: list[int] = []
    for i, config in enumerate(configs):
        if config.trace.enabled:
            singles.append(i)
            continue
        lanes.setdefault(lane_key(config), []).append(i)
    groups: list[list[int]] = []
    for members in lanes.values():
        if len(members) >= 2:
            groups.append(members)
        else:
            singles.extend(members)
    groups.sort(key=lambda g: g[0])
    singles.sort()
    return groups, singles


def _solo(config: RunConfig) -> BatchOutcome:
    try:
        return BatchOutcome(config=config, result=run_workload(config))
    except ReproError as exc:
        return BatchOutcome(config=config, error=exc)


def execute_batch_group(
    configs: list[RunConfig] | tuple[RunConfig, ...],
    compiled: CompileResult | None = None,
) -> list[BatchOutcome]:
    """Run one lane of configs in lockstep; one outcome per config.

    All configs must share a :func:`lane_key` (the :class:`BatchCore`
    constructor re-validates the core-config side).  Evicted points —
    and the whole lane, if lockstep setup or execution faults — fall
    back to solo :func:`run_workload` calls: lanes of one, which never
    evict, so the fallback cannot recurse.
    """
    run = _RunSetup(configs[0], compiled)
    try:
        devices = [run.device(cfg) for cfg in configs]
        core = BatchCore(run.compiled.program, run.memory, devices,
                         [_core_config(cfg) for cfg in configs])
        core.set_args(run.instance.int_args, run.instance.fp_args)
        stats_list = core.run()
    except ReproError:
        # Lockstep itself faulted (shared functional state): every
        # point would hit the same fault, but solo replay reproduces
        # each point's exact observable outcome, so take that path.
        stats_list = [None] * len(configs)

    # Survivors share one correctness check against the lane's memory.
    correct = (any(s is not None for s in stats_list)
               and run.instance.check(run.memory))
    return [
        _solo(cfg) if stats is None
        else BatchOutcome(config=cfg, batched=True,
                          result=run.result(cfg, stats, correct))
        for cfg, stats in zip(configs, stats_list, strict=True)
    ]


def execute_batch(
    configs: list[RunConfig] | tuple[RunConfig, ...],
) -> list[BatchOutcome]:
    """Plan + execute a mixed bag of configs; outcomes in input order."""
    groups, singles = plan_batches(configs)
    outcomes: list[BatchOutcome | None] = [None] * len(configs)
    for members in groups:
        for idx, outcome in zip(
                members, execute_batch_group([configs[i]
                                              for i in members]),
                strict=True):
            outcomes[idx] = outcome
    for i in singles:
        outcomes[i] = _solo(configs[i])
    return outcomes  # type: ignore[return-value]


def verify_batch_parity(
    configs: list[RunConfig] | tuple[RunConfig, ...],
    reference: str = "reference",
) -> ParityReport:
    """Diff every batched point against a solo reference run.

    The batched side goes through :func:`execute_batch` (so planning,
    lockstep, eviction and solo fallback are all on trial); faults
    compare via :func:`stable_error_string`, exactly like
    :func:`repro.harness.parity.verify_parity`.
    """
    stripped = [c.with_(trace=c.trace.__class__()) for c in configs]
    mismatches: list[ParityMismatch] = []
    for config, outcome in zip(stripped, execute_batch(stripped),
                               strict=True):
        cand = (outcome.result.to_dict()
                if outcome.result is not None
                else {"error": stable_error_string(outcome.error)})
        ref = _outcome(config.with_(backend=reference))
        if ref != cand:
            mismatches.append(ParityMismatch(
                config=config, keys=tuple(diff_summaries(ref, cand)),
                reference=ref, candidate=cand))
    return ParityReport(checked=len(stripped),
                        mismatches=tuple(mismatches),
                        candidate="batched", reference=reference)
