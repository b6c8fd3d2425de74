"""Invocation pipeline timing: when does each output value appear?

The fabric is fully pipelined: one invocation can fire per ``ii`` cycles
(initiation interval, 1 by default).  An invocation fires when every
configured input port holds a value; its outputs become visible after the
configuration's per-output path delay.  Output FIFO backpressure delays
firing when results pile up unread.

:meth:`InvocationEngine.send` is the one deposit into an input FIFO:
every value the host sends, one at a time or as part of a
:meth:`~repro.dyser.interface.DyserDevice.send_many` transfer, passes
through it, and readiness is checked after each deposit.  A fire pops
one value per input port and hands them, positionally, to the
evaluator's flat plan (:mod:`repro.dyser.functional`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DyserError
from repro.dyser.config import DyserConfig
from repro.dyser.functional import FunctionalEvaluator
from repro.dyser.ports import InputPortFifo, OutputPortFifo


@dataclass
class DyserTimingParams:
    """Knobs of the fabric's dynamic behaviour."""

    input_fifo_depth: int = 4
    output_fifo_depth: int = 4
    initiation_interval: int = 1


@dataclass(frozen=True)
class SteadyState:
    """Analytic steady-state pipeline behaviour of one configuration.

    At saturation (inputs always available, outputs always drained) the
    fabric fires one invocation every ``interval`` cycles and each
    invocation's last output appears ``latency`` cycles after it fires.
    The event-driven engine converges to exactly this behaviour;
    ``tests/test_dyser_timing.py`` asserts the two models agree.
    """

    interval: int          #: cycles between successive firings
    latency: int           #: fire -> last-output-ready path delay
    input_fifo_depth: int
    output_fifo_depth: int

    @property
    def throughput(self) -> float:
        """Invocations per cycle at saturation."""
        return 1.0 / self.interval if self.interval else 0.0

    def makespan(self, invocations: int) -> int:
        """Cycles from the first fire until the last output of
        ``invocations`` back-to-back invocations is ready."""
        if invocations <= 0:
            return 0
        return (invocations - 1) * self.interval + self.latency


class InvocationEngine:
    """Functional + timing state for one active configuration.

    ``evaluator`` is the configuration's plan, built once for a config
    the caller has already validated
    (:meth:`~repro.dyser.interface.DyserDevice.register_config`); without
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
        self.in_fifos = {
            p: InputPortFifo(p, params.input_fifo_depth)
            for p in config.dfg.input_ports
        }
        self.out_fifos = {
            p: OutputPortFifo(p, params.output_fifo_depth)
            for p in config.dfg.output_ports
        }
        self.fire_times: list[int] = []
        # Readiness bookkeeping: number of input FIFOs currently
        # holding at least one value.  A firing is possible exactly
        # when every FIFO is non-empty, so `send` compares this count
        # against the port count instead of scanning all FIFOs.
        # `_fire_ready` recomputes it on exit.
        self._filled = 0
        # Input FIFOs in the evaluator's argument order; output FIFOs
        # and path delays in its result order.
        self._in_list = [self.in_fifos[p]
                         for p in self.evaluator.input_ports]
        self._outs = [(self.out_fifos[p], self.delays[p])
                      for p in self.evaluator.output_ports]
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
        fifo = self.in_fifos.get(port)
        if fifo is None:
            raise DyserError(
                f"send to port {port}, which config "
                f"{self.config.config_id} does not use"
            )
        done = t_ready
        freeing = fifo.total_sent - fifo.depth
        if freeing >= 0:
            ft = self.fire_times
            if freeing < len(ft):
                if ft[freeing] > done:
                    done = ft[freeing]
            else:
                fifo.unresolved_stalls += 1
        pending = fifo.pending
        pending.append((value, done))
        fifo.total_sent += 1
        # Invariant: after every fire loop at least one input FIFO is
        # empty, so a send that lands on a non-empty FIFO cannot enable
        # a firing; one that fills the last empty FIFO always does.
        if len(pending) == 1:
            self._filled += 1
            if self._filled == len(self._in_list):
                self._fire_ready()
        return done

    def recv(self, port: int, t_try: int) -> tuple[int | float, int]:
        fifo = self.out_fifos.get(port)
        if fifo is None:
            raise DyserError(
                f"recv from port {port}, which config "
                f"{self.config.config_id} does not drive"
            )
        return fifo.recv(t_try)

    # -- firing --------------------------------------------------------------

    def _fire_ready(self) -> None:
        """Fire invocations while every input FIFO holds a value (true
        on entry: `send` calls this when it fills the last empty one)."""
        in_list = self._in_list
        outs = self._outs
        ft = self.fire_times
        ii = self.params.initiation_interval
        run = self.evaluator.run
        while True:
            values = []
            fire_at = 0
            for fifo in in_list:
                value, entry = fifo.pending.popleft()
                values.append(value)
                if entry > fire_at:
                    fire_at = entry
            if ft:
                floor = ft[-1] + ii
                if floor > fire_at:
                    fire_at = floor
            for fo, _delay in outs:
                space = fo.space_time()
                if space is not None and space > fire_at:
                    fire_at = space
            ft.append(fire_at)
            if self.events is not None:
                self.events.complete(
                    "invocation", "dyser.invoke", fire_at,
                    self._max_delay,
                    config=self.config.config_id,
                    index=len(ft) - 1)
            for (fo, delay), v in zip(outs, run(*values)):
                fo.produce(v, fire_at + delay)
            for fifo in in_list:
                if not fifo.pending:
                    self._filled = sum(1 for f in in_list if f.pending)
                    return

    def steady_state(self) -> SteadyState:
        """Analytic steady-state interval/latency of this configuration."""
        return SteadyState(
            interval=max(1, self.params.initiation_interval),
            latency=self._max_delay,
            input_fifo_depth=self.params.input_fifo_depth,
            output_fifo_depth=self.params.output_fifo_depth,
        )

    # -- lifecycle -----------------------------------------------------------

    def drained_time(self) -> int:
        """Cycle by which all fired invocations' outputs are consumed or
        ready; used when switching configurations."""
        times = [f.drained_time() for f in self.out_fifos.values()]
        return max(times, default=0)

    def quiesce(self) -> None:
        """Assert the pipeline is empty and reset counters (reconfigure)."""
        for fifo in self.in_fifos.values():
            fifo.reset()
        for fifo in self.out_fifos.values():
            fifo.reset()
        self.fire_times.clear()
        self._filled = 0

    @property
    def invocations(self) -> int:
        return len(self.fire_times)

    @property
    def unresolved_stalls(self) -> int:
        return sum(
            f.unresolved_stalls for f in self.in_fifos.values()
        ) + sum(f.unresolved_stalls for f in self.out_fifos.values())
