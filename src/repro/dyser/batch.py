"""Batched DySER execution: share functional evaluation across a lane.

In a lockstep batch (:mod:`repro.cpu.batchcore`) every point owns its
own :class:`~repro.dyser.interface.DyserDevice` — FIFO depths,
initiation interval and config-cache capacity are exactly the knobs a
sweep varies, so timing state must stay per point.  But the *values*
flowing through the fabric are identical for every point: all devices
see the same send sequence (shared architectural registers and memory)
and the :class:`~repro.dyser.functional.FunctionalEvaluator` is a pure
function of the input vector.  Per-point evaluation would therefore
run the same plan N times per fire.

:class:`TapedEvaluator` removes that redundancy: the first device to
reach fire *k* of a configuration runs the plan and appends its output
tuple to a shared per-config *tape*; every later device replays the
tape entry.  It subclasses the evaluator and replaces only ``run``.

:class:`BatchedDyserDevice` wires the tape in: the evaluator it builds
for a config (once per device, :meth:`DyserDevice.evaluator_for`) is a
:class:`TapedEvaluator` over that config's tape, and every engine that
runs the config fires through it, so a config that is re-activated later
(config-cache round trips) resumes its tape where it left off.

Soundness: the tape is only valid while the lane's devices all observe
the same fire sequence per config — guaranteed by the lockstep core's
shared control flow and shared operand values.  Do not share a tape
across devices fed by different programs or memory images.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dyser.config import DyserConfig
from repro.dyser.functional import FunctionalEvaluator
from repro.dyser.interface import DyserDevice


class TapedEvaluator(FunctionalEvaluator):
    """Record/replay wrapper around a :class:`FunctionalEvaluator`.

    ``tape`` is the shared per-config list of output tuples; ``index``
    is this device's private cursor into it (fires already consumed by
    this device for this config).
    """

    def __init__(self, inner: FunctionalEvaluator, tape: list) -> None:
        self.dfg = inner.dfg
        self.input_ports = inner.input_ports
        self.output_ports = inner.output_ports
        self.inner = inner
        self.tape = tape
        self.index = 0

    def run(self, *values) -> tuple:
        i = self.index
        tape = self.tape
        if i < len(tape):
            outputs = tape[i]
        else:
            outputs = self.inner.run(*values)
            tape.append(outputs)
        self.index = i + 1
        return outputs


@dataclass
class BatchedDyserDevice(DyserDevice):
    """A :class:`DyserDevice` whose invocations replay a shared tape.

    Every device of one lane is constructed with the *same* ``tape``
    dict (config id -> list of output tuples).  Timing behaviour is
    untouched — only the plan runs are deduplicated.
    """

    tape: dict = field(default_factory=dict)

    def evaluator_for(self, config: DyserConfig) -> TapedEvaluator:
        return TapedEvaluator(super().evaluator_for(config),
                              self.tape.setdefault(config.config_id, []))
