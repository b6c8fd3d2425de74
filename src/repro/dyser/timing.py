"""Invocation pipeline timing: when does each output value appear?

The fabric is fully pipelined: one invocation can fire per ``ii`` cycles
(initiation interval, 1 by default).  An invocation fires when every
configured input port holds a value; its outputs become visible after the
configuration's per-output path delay.  Output FIFO backpressure delays
firing when results pile up unread.

:class:`InvocationEngine` owns the port FIFOs.  :meth:`InvocationEngine.send`
is the one deposit into an input FIFO: every value the host sends, one at
a time or as part of a :meth:`~repro.dyser.interface.DyserDevice.send_many`
transfer, passes through it, and readiness is checked after each deposit.
A fire pops one value per input port and hands them, positionally, to the
evaluator's flat plan (:mod:`repro.dyser.functional`).

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
guessing and the engine counts the case (``unresolved_stalls``), so tests
can assert it never happens for generated code.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import DyserError
from repro.dyser.config import DyserConfig
from repro.dyser.functional import FunctionalEvaluator


@dataclass
class DyserTimingParams:
    """Knobs of the fabric's dynamic behaviour."""

    input_fifo_depth: int = 4
    output_fifo_depth: int = 4
    initiation_interval: int = 1


class InvocationEngine:
    """Functional + timing state for one active configuration.

    ``evaluator`` is the configuration's plan, built once for a config
    the caller has already validated
    (:meth:`~repro.dyser.interface.DyserDevice.evaluator_for`); without
    one the engine validates ``config`` and builds the plan itself.
    """

    def __init__(self, config: DyserConfig, params: DyserTimingParams,
                 events=None,
                 evaluator: FunctionalEvaluator | None = None) -> None:
        if evaluator is None:
            config.validate()
            evaluator = FunctionalEvaluator(config.dfg)
        self.config = config
        self.params = params
        #: Structured event stream (:mod:`repro.obs.events`) or None.
        self.events = events
        self.evaluator = evaluator
        self.delays = config.path_delays()
        self._max_delay = max(self.delays.values(), default=0)
        self.fire_times: list[int] = []
        #: Flow-control waits whose freeing event had not happened yet
        #: (see the module docstring): one per such sent value, and one
        #: per output port per such fire.
        self.unresolved_stalls = 0
        # Port state.  Input ports are in the evaluator's argument
        # order: each holds its pending (value, entry cycle) deque, and
        # every fire pops one value from each, so a port has been sent
        # len(fire_times) + len(pending) values.  Output ports are in
        # the evaluator's result order: each holds its ready
        # (value, ready cycle) deque and its receive cycles, and every
        # fire produces one value on each.
        self._pending = [deque() for _ in evaluator.input_ports]
        self._ready = [deque() for _ in evaluator.output_ports]
        self._recv_times: list[list[int]] = [
            [] for _ in evaluator.output_ports]
        self._out_delays = [self.delays[p] for p in evaluator.output_ports]
        self._inputs = dict(zip(evaluator.input_ports, self._pending))
        self._outputs = dict(zip(evaluator.output_ports,
                                 zip(self._ready, self._recv_times)))
        # Readiness bookkeeping: number of input FIFOs currently
        # holding at least one value.  A firing is possible exactly
        # when every FIFO is non-empty, so `send` compares this count
        # against the port count instead of scanning all FIFOs.
        # `_fire_ready` recomputes it on exit.
        self._filled = 0
        # Activity factors for the energy model.
        self.ops_per_fire = len(config.dfg.nodes)
        self.hops_per_fire = config.used_switch_links()

    # -- host-visible operations -------------------------------------------

    def send(self, port: int, value: int | float, t_ready: int) -> int:
        """Deposit one value, fire any enabled invocations, and return
        the cycle the send completes.

        A value sent to a full FIFO waits for the invocation that frees
        its slot.  When that invocation has not fired yet (hand-written
        code sending out of invocation order) the value is accepted at
        ``t_ready`` and the wait is counted as unresolved.
        """
        pending = self._inputs.get(port)
        if pending is None:
            raise DyserError(
                f"send to port {port}, which config "
                f"{self.config.config_id} does not use"
            )
        done = t_ready
        ft = self.fire_times
        # The invocation that frees this value's slot: the port's
        # (sent - depth)-th, which has fired iff the FIFO is not full.
        freeing = len(ft) + len(pending) - self.params.input_fifo_depth
        if freeing >= 0:
            if freeing < len(ft):
                if ft[freeing] > done:
                    done = ft[freeing]
            else:
                self.unresolved_stalls += 1
        pending.append((value, done))
        # Invariant: after every fire loop at least one input FIFO is
        # empty, so a send that lands on a non-empty FIFO cannot enable
        # a firing; one that fills the last empty FIFO always does.
        if len(pending) == 1:
            self._filled += 1
            if self._filled == len(self._pending):
                self._fire_ready()
        return done

    def recv(self, port: int, t_try: int) -> tuple[int | float, int]:
        """Pop the port's oldest value; return (value, completion cycle)."""
        out = self._outputs.get(port)
        if out is None:
            raise DyserError(
                f"recv from port {port}, which config "
                f"{self.config.config_id} does not drive"
            )
        ready, recv_times = out
        if not ready:
            raise DyserError(
                f"output port {port}: receive with no pending "
                f"invocation (region sent fewer values than it receives?)"
            )
        value, ready_time = ready.popleft()
        done = max(t_try, ready_time)
        recv_times.append(done)
        return value, done

    # -- firing --------------------------------------------------------------

    def _fire_ready(self) -> None:
        """Fire invocations while every input FIFO holds a value (true
        on entry: `send` calls this when it fills the last empty one)."""
        pending = self._pending
        ready = self._ready
        recv_times = self._recv_times
        delays = self._out_delays
        ft = self.fire_times
        ii = self.params.initiation_interval
        out_depth = self.params.output_fifo_depth
        run = self.evaluator.run
        while True:
            values = []
            fire_at = 0
            for q in pending:
                value, entry = q.popleft()
                values.append(value)
                if entry > fire_at:
                    fire_at = entry
            if ft:
                floor = ft[-1] + ii
                if floor > fire_at:
                    fire_at = floor
            # On each output port this fire's value takes the slot
            # freed by the receive of invocation (produced - depth)'s.
            freeing = len(ft) - out_depth
            if freeing >= 0:
                for times in recv_times:
                    if freeing < len(times):
                        if times[freeing] > fire_at:
                            fire_at = times[freeing]
                    else:
                        self.unresolved_stalls += 1
            ft.append(fire_at)
            if self.events is not None:
                self.events.complete(
                    "invocation", "dyser.invoke", fire_at,
                    self._max_delay,
                    config=self.config.config_id,
                    index=len(ft) - 1)
            for q, delay, v in zip(ready, delays, run(*values)):
                q.append((v, fire_at + delay))
            for q in pending:
                if not q:
                    self._filled = sum(1 for q in pending if q)
                    return

    # -- lifecycle -----------------------------------------------------------

    def drained_time(self) -> int:
        """Cycle by which all fired invocations' outputs are consumed or
        ready; used when switching configurations."""
        drained = 0
        for ready, recv_times in zip(self._ready, self._recv_times):
            if ready:
                drained = max(drained, max(t for _v, t in ready))
            elif recv_times:
                drained = max(drained, recv_times[-1])
        return drained

    def quiesce(self) -> None:
        """Raise unless the pipeline is empty (before reconfiguring)."""
        for port in sorted(self._inputs):
            if self._inputs[port]:
                raise DyserError(
                    f"input port {port}: reconfigure with "
                    f"{len(self._inputs[port])} values still pending")
        for port in sorted(self._outputs):
            ready, _recv_times = self._outputs[port]
            if ready:
                raise DyserError(
                    f"output port {port}: reconfigure with "
                    f"{len(ready)} values unread")

    @property
    def invocations(self) -> int:
        return len(self.fire_times)
