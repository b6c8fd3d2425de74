"""Invocation pipeline timing: when does each output value appear?

The fabric is fully pipelined: one invocation can fire per ``ii`` cycles
(initiation interval, 1 by default).  An invocation fires when every
configured input port holds a value; its outputs become visible after the
configuration's per-output path delay.  Output FIFO backpressure delays
firing when results pile up unread.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    The event-driven engine converges to exactly this behaviour — the
    batched backend leans on it to reason about streamed transfers, and
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
    """Functional + timing state for one active configuration."""

    def __init__(self, config: DyserConfig, params: DyserTimingParams,
                 events=None) -> None:
        config.validate()
        self.config = config
        self.params = params
        #: Structured event stream (:mod:`repro.obs.events`) or None.
        self.events = events
        self.evaluator = FunctionalEvaluator(config.dfg)
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
        # `_fire_ready` recomputes it on exit; any code that enqueues
        # without going through `send` must call `_fire_ready` after.
        self._filled = 0
        self._in_items = list(self.in_fifos.items())
        self._out_list = list(self.out_fifos.values())
        # Activity factors for the energy model.
        self.ops_per_fire = len(config.dfg.nodes)
        self.hops_per_fire = config.used_switch_links()

    # -- host-visible operations -------------------------------------------

    def send(self, port: int, value: int | float, t_ready: int) -> int:
        """Deposit one value; fire any enabled invocations; return
        completion cycle of the send."""
        fifo = self.in_fifos.get(port)
        if fifo is None:
            from repro.errors import DyserError

            raise DyserError(
                f"send to port {port}, which config "
                f"{self.config.config_id} does not use"
            )
        was_empty = not fifo.pending
        done = fifo.send(value, t_ready, self.fire_times)
        # Invariant: after every fire loop at least one input FIFO is
        # empty, so a send that lands on a non-empty FIFO cannot enable
        # a firing; one that fills the last empty FIFO always does.
        if was_empty:
            self._filled += 1
            if self._filled == len(self._in_items):
                self._fire_ready()
        return done

    def send_stream(self, port: int, values, arrivals) -> int:
        """Batched equivalent of ``send(port, v, a)`` per element.

        For single-input-port configurations (the temporal-vector case
        the compiler emits ``dldv`` for) this fast-forwards the pipeline
        arithmetically: each value fires its invocation immediately, so
        the deque traffic and readiness scans of the per-send path
        collapse into one pass over ``fire_times``.  Behaviour is
        cycle-exact with the per-send path; multi-port configurations,
        traced engines and non-empty FIFOs fall back to it.

        Returns the total send-stall cycles (sum over elements of
        ``done - arrival`` where positive).
        """
        fifo = self.in_fifos.get(port)
        if fifo is None:
            from repro.errors import DyserError

            raise DyserError(
                f"send to port {port}, which config "
                f"{self.config.config_id} does not use"
            )
        if (self.events is not None or len(self.in_fifos) != 1
                or fifo.pending):
            total = 0
            for value, arrive in zip(values, arrivals, strict=True):
                done = self.send(port, value, arrive)
                if done > arrive:
                    total += done - arrive
            return total
        ft = self.fire_times
        depth = fifo.depth
        ii = self.params.initiation_interval
        out = list(self.out_fifos.values())
        evaluator = self.evaluator
        delays = self.delays
        out_fifos = self.out_fifos
        sent = fifo.total_sent
        total = 0
        for value, arrive in zip(values, arrivals, strict=True):
            # InputPortFifo.send: wait for the freeing invocation.
            entry = arrive
            free = sent - depth
            if free >= 0:
                if free < len(ft):
                    f = ft[free]
                    if f > entry:
                        entry = f
                else:  # pragma: no cover - unreachable when depth >= 1
                    fifo.unresolved_stalls += 1
            sent += 1
            if entry > arrive:
                total += entry - arrive
            # Single input port and an empty FIFO: the invocation fires
            # as soon as this value is in (plus ii and output-space
            # constraints), exactly as _fire_ready would compute.
            fire_at = entry
            if ft:
                floor = ft[-1] + ii
                if floor > fire_at:
                    fire_at = floor
            for fo in out:
                space = fo.space_time()
                if space is not None and space > fire_at:
                    fire_at = space
            ft.append(fire_at)
            outputs = evaluator({port: value})
            for p, v in outputs.items():
                out_fifos[p].produce(v, fire_at + delays[p])
        fifo.total_sent = sent
        return total

    def recv(self, port: int, t_try: int) -> tuple[int | float, int]:
        fifo = self.out_fifos.get(port)
        if fifo is None:
            from repro.errors import DyserError

            raise DyserError(
                f"recv from port {port}, which config "
                f"{self.config.config_id} does not drive"
            )
        return fifo.recv(t_try)

    # -- firing --------------------------------------------------------------

    def _fire_ready(self) -> None:
        in_items = self._in_items
        out_list = self._out_list
        ft = self.fire_times
        ii = self.params.initiation_interval
        delays = self.delays
        out_fifos = self.out_fifos
        while True:
            for _port, fifo in in_items:
                if not fifo.pending:
                    filled = 0
                    for _p, f in in_items:
                        if f.pending:
                            filled += 1
                    self._filled = filled
                    return
            inputs: dict[int, int | float] = {}
            fire_at = 0
            for port, fifo in in_items:
                value, entry = fifo.pending.popleft()
                inputs[port] = value
                if entry > fire_at:
                    fire_at = entry
            if ft:
                floor = ft[-1] + ii
                if floor > fire_at:
                    fire_at = floor
            for fifo in out_list:
                space = fifo.space_time()
                if space is not None and space > fire_at:
                    fire_at = space
            ft.append(fire_at)
            if self.events is not None:
                self.events.complete(
                    "invocation", "dyser.invoke", fire_at,
                    self._max_delay,
                    config=self.config.config_id,
                    index=len(ft) - 1)
            outputs = self.evaluator(inputs)
            for port, value in outputs.items():
                out_fifos[port].produce(value, fire_at + delays[port])

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
