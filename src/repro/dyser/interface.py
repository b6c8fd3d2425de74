"""The CPU-facing DySER device: the cycles of one timing point.

Owns the registered configurations, the configuration cache, the
statistics and, for the active configuration, the port flow control
of :mod:`repro.dyser.timing` over cycle numbers only.  The values
crossing the fabric live in the core's
:class:`~repro.dyser.functional.DyserValues`, which the core calls
first, with the same ports, so its checks raise before the device is
reached.  The host core calls:

- :meth:`init_config` on ``dinit``,
- :meth:`send` on ``dsend``/``dfsend``/``dld`` (data path), and
  :meth:`send_many` once per ``dldv``/``dfldv``/``dldw``/``dfldw``
  transfer (the reference core sends each of its values through
  :meth:`send` instead, so its trace holds one stall event per value),
- :meth:`recv` on ``drecv``/``dfrecv``/``dst``/``dstv``.

All methods take and return *cycle timestamps* so the in-order scoreboard
core can account stalls precisely.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

from repro.errors import DyserError
from repro.dyser.config import DyserConfig
from repro.dyser.config_cache import ConfigCache, ConfigCacheParams
from repro.dyser.fabric import Fabric
from repro.dyser.timing import DyserTimingParams


@dataclass
class DyserStats:
    invocations: int = 0
    values_sent: int = 0
    values_received: int = 0
    config_loads: int = 0
    config_hits: int = 0
    config_stall_cycles: int = 0
    unresolved_flow_stalls: int = 0
    fu_ops: int = 0
    switch_hops: int = 0
    config_words_loaded: int = 0


@dataclass
class DyserDevice:
    """One DySER instance attached to a core, at one timing point."""

    fabric: Fabric = field(default_factory=Fabric)
    timing: DyserTimingParams = field(default_factory=DyserTimingParams)
    cache_params: ConfigCacheParams = field(default_factory=ConfigCacheParams)

    def __post_init__(self) -> None:
        self.configs: dict[int, DyserConfig] = {}
        self.config_cache = ConfigCache(self.cache_params)
        self.stats = DyserStats()
        #: Structured event stream (:mod:`repro.obs.events`) or None;
        #: set by the harness when the run requests tracing.
        self.events = None
        #: Per-port stall cycles, folded into the run's metrics
        #: registry by :meth:`repro.cpu.Core._finalize_stats`.
        self.send_stall_cycles: Counter = Counter()
        self.recv_stall_cycles: Counter = Counter()
        #: The active configuration (None before the first dinit and
        #: after :meth:`finalize`).
        self.config: DyserConfig | None = None
        #: The active configuration's fire cycles, one per invocation.
        self.fire_times: list[int] = []
        #: Flow-control waits whose freeing event had not happened yet
        #: (see :mod:`repro.dyser.timing`): one per such sent value,
        #: and one per output port per such fire.
        self.unresolved_stalls = 0
        # Port state of the active config.  Each input port holds its
        # pending values' entry cycles, and every fire pops one from
        # each, so a port has been sent len(fire_times) + len(entries)
        # values.  Each output port holds its receive cycles and its
        # path delay: every fire makes one value on each, so its k-th
        # receive takes fire k's value, ready at fire_times[k] + delay.
        self._inputs: dict[int, deque] = {}
        self._entries: list[deque] = []
        self._outputs: dict[int, tuple[list[int], int]] = {}
        # Input FIFOs holding at least one entry: a fire is possible
        # exactly when this reaches len(_entries).
        self._filled = 0

    # -- setup ---------------------------------------------------------------

    def register_config(self, config: DyserConfig) -> None:
        if config.config_id in self.configs:
            raise DyserError(f"duplicate config id {config.config_id}")
        config.validate()
        self.configs[config.config_id] = config

    def register_program(self, program) -> None:
        """Register every config a compiled program carries."""
        for config in program.dyser_configs.values():
            if config.config_id not in self.configs:
                self.register_config(config)

    # -- host operations -------------------------------------------------------

    def init_config(self, config_id: int, t: int) -> int:
        """Activate ``config_id``; return the cycle the fabric is ready."""
        config = self.configs[config_id]
        start = t
        if self.config is not None:
            if self.config.config_id == config_id:
                return t  # already active: dinit is a no-op re-arm
            start = max(t, self.drained_time())
            self.finalize()
        words = config.config_words()
        cycles, hit = self.config_cache.load_cycles(config_id, words)
        self.stats.config_loads += 1
        if hit:
            self.stats.config_hits += 1
        else:
            self.stats.config_words_loaded += words
        ready = start + cycles
        self.stats.config_stall_cycles += ready - t
        if self.events is not None:
            self.events.complete(
                "config_load", "dyser.config", t, ready - t,
                config=config_id, hit=hit, words=words)
        self.config = config
        self.fire_times = []
        self.unresolved_stalls = 0
        self._inputs = {port: deque() for port in config.dfg.input_ports}
        self._entries = list(self._inputs.values())
        self._outputs = {port: ([], delay)
                         for port, delay in config.path_delays().items()}
        self._filled = 0
        return ready

    def send(self, port: int, t: int) -> int:
        """One value enters input ``port`` at cycle ``t``: fire any
        enabled invocations and return the cycle the send completes.

        A value sent to a full FIFO waits for the invocation that frees
        its slot.  When that invocation has not fired yet (hand-written
        code sending out of invocation order) the value is accepted at
        ``t`` and the wait is counted as unresolved.
        """
        entries = self._inputs[port]
        done = t
        ft = self.fire_times
        fired = len(ft)
        pending = len(entries)
        # The invocation that frees this value's slot: the port's
        # (sent - depth)-th, which has fired iff the FIFO is not full.
        freeing = fired + pending - self.timing.input_fifo_depth
        if freeing >= 0:
            if freeing < fired:
                if ft[freeing] > done:
                    done = ft[freeing]
            else:
                self.unresolved_stalls += 1
        entries.append(done)
        # After every fire loop at least one input FIFO is empty, so a
        # send that lands on a non-empty FIFO cannot enable a firing;
        # one that fills the last empty FIFO always does.
        if not pending:
            self._filled += 1
            if self._filled == len(self._entries):
                self._fire_ready()
        if done > t:
            self.send_stall_cycles[port] += done - t
            if self.events is not None:
                self.events.complete("send_stall", "dyser.port",
                                     t, done - t, port=port)
        return done

    def send_many(self, ports, arrivals) -> int:
        """One multi-value transfer: value ``i`` enters ``ports[i]`` at
        cycle ``arrivals[i]``, in order (a ``dldv``/``dfldv`` stream
        repeats one port, a ``dldw``/``dfldw`` spreads over consecutive
        ports).

        The rules of :meth:`send`, applied value by value in one loop (a
        deposit that fills the last empty FIFO fires mid-transfer, and
        later deposits wait on that fire); returns the total send-stall
        cycles so the core can charge them in one go.
        """
        inputs = self._inputs
        ft = self.fire_times
        fired = len(ft)
        depth = self.timing.input_fifo_depth
        filled, needed = self._filled, len(self._entries)
        stalls = self.send_stall_cycles
        events = self.events
        total = 0
        for port, t in zip(ports, arrivals, strict=True):
            entries = inputs[port]
            done = t
            pending = len(entries)
            freeing = fired + pending - depth
            if freeing >= 0:
                if freeing < fired:
                    if ft[freeing] > done:
                        done = ft[freeing]
                else:
                    self.unresolved_stalls += 1
            entries.append(done)
            if not pending:
                filled += 1
                if filled == needed:
                    self._fire_ready()
                    filled, fired = self._filled, len(ft)
            if done > t:
                total += done - t
                stalls[port] += done - t
                if events is not None:
                    events.complete("send_stall", "dyser.port", t,
                                    done - t, port=port)
        self._filled = filled
        return total

    def recv(self, port: int, t: int) -> int:
        """Receive output ``port``'s oldest value, tried at cycle ``t``;
        return the cycle the receive completes."""
        recv_times, delay = self._outputs[port]
        ready_time = self.fire_times[len(recv_times)] + delay
        done = ready_time if ready_time > t else t
        recv_times.append(done)
        if done > t:
            self.recv_stall_cycles[port] += done - t
            if self.events is not None:
                self.events.complete("recv_stall", "dyser.port",
                                     t, done - t, port=port)
        return done

    # -- firing --------------------------------------------------------------

    def _fire_ready(self) -> None:
        """Fire invocations while every input FIFO holds an entry (true
        on entry: a send calls this when it fills the last empty one)."""
        entries = self._entries
        outputs = self._outputs.values()
        ft = self.fire_times
        ii = self.timing.initiation_interval
        out_depth = self.timing.output_fifo_depth
        popleft = deque.popleft
        while True:
            # The last input to arrive (cycles are never negative).
            fire_at = max(map(popleft, entries))
            if ft:
                floor = ft[-1] + ii
                if floor > fire_at:
                    fire_at = floor
            # On each output port this fire's value takes the slot
            # freed by the receive of invocation (produced - depth)'s.
            freeing = len(ft) - out_depth
            if freeing >= 0:
                for times, _ in outputs:
                    if freeing < len(times):
                        if times[freeing] > fire_at:
                            fire_at = times[freeing]
                    else:
                        self.unresolved_stalls += 1
            ft.append(fire_at)
            if self.events is not None:
                self.events.complete(
                    "invocation", "dyser.invoke", fire_at,
                    self.config.critical_delay(),
                    config=self.config.config_id, index=len(ft) - 1)
            if not all(entries):
                self._filled = sum(map(bool, entries))
                return

    # -- bookkeeping -------------------------------------------------------------

    def drained_time(self) -> int:
        """Cycle by which all fired invocations' outputs are consumed or
        ready; used when switching configurations."""
        ft = self.fire_times
        drained = 0
        for recv_times, delay in self._outputs.values():
            if len(recv_times) < len(ft):
                drained = max(drained, max(ft[len(recv_times):]) + delay)
            elif recv_times:
                drained = max(drained, recv_times[-1])
        return drained

    def finalize(self) -> DyserStats:
        """Fold the active configuration's counters in and deactivate
        it; called on every reconfiguration and at the end of a run."""
        config = self.config
        if config is not None:
            self.config = None
            stats = self.stats
            fires = len(self.fire_times)
            stats.invocations += fires
            # Every fire consumed one value per input port.
            stats.values_sent += (fires * len(self._entries)
                                  + sum(map(len, self._entries)))
            stats.values_received += sum(
                len(times) for times, _ in self._outputs.values())
            stats.unresolved_flow_stalls += self.unresolved_stalls
            stats.fu_ops += fires * len(config.dfg.nodes)
            stats.switch_hops += fires * config.used_switch_links()
        return self.stats
