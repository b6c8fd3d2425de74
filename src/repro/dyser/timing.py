"""Invocation pipeline timing: when does each value move?

The fabric is fully pipelined: one invocation can fire per ``ii`` cycles
(initiation interval, 1 by default).  An invocation fires when every
configured input port holds a value; its outputs become visible after the
configuration's per-output path delay.  Output FIFO backpressure delays
firing when results pile up unread.

Timing is value-independent, so it is kept apart from the values: each
point's :class:`~repro.dyser.interface.DyserDevice` tracks only cycles
(entry cycles per input port, ready and receive cycles per output port,
fire times), and the core's :class:`~repro.dyser.functional.DyserValues`
holds the values.

Flow-control contract (exact for compiler-emitted code, which sends and
receives in invocation order):

- A value sent to a full input FIFO stalls until the invocation that frees
  its slot has fired.  Because sends are emitted in invocation order, that
  freeing invocation's inputs were all sent earlier, so its fire time is
  already known when the stalling send executes.
- Symmetrically, an output slot is freed by the receive of an earlier
  invocation's value, which compiler-emitted code has already executed.

When the freeing event is genuinely unknown (hand-written code violating
the ordering), the FIFO optimistically accepts without a stall rather than
guessing and the device counts the case (``unresolved_stalls``), so tests
can assert it never happens for generated code.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DyserTimingParams:
    """Knobs of the fabric's dynamic behaviour."""

    input_fifo_depth: int = 4
    output_fifo_depth: int = 4
    initiation_interval: int = 1
