"""The CPU-facing DySER cycles: every timing point of a lane at once.

A :class:`DyserDevice` is one timing point: its knobs, registered
configurations, config cache, :class:`DyserStats`, per-port stall
counters and event stream.  :class:`DyserCycles` runs the flow control
of :mod:`repro.dyser.timing` for a lane of devices over cycle numbers
only, each point's cycle crossing every call in :attr:`DyserCycles.t`.
The core calls the values (:class:`~repro.dyser.functional.DyserValues`)
first with the same ports, so their checks raise before any cycle
moves, and passes on the port counts they return; then it calls
:class:`DyserCycles` once per instruction for all points:
:meth:`~DyserCycles.init_config` on ``dinit``,
:meth:`~DyserCycles.send` per ``dsend``/``dld`` value,
:meth:`~DyserCycles.send_many` per ``dldv``/``dldw`` transfer (the
reference core sends those value by value, so its trace holds one stall
event per value) and :meth:`~DyserCycles.recv` per value received.
"""

from __future__ import annotations

from collections import Counter
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


class DyserCycles:
    """The cycles of a lane of :class:`DyserDevice`\\ s, point ``p`` at
    ``devices[p]``; every method acts on the active points (:meth:`keep`).

    The lane shares the port counts: the active configuration, its
    fires :attr:`fired` and the values sent to it.  Per point, as lists
    indexed by point: :attr:`fire_times`, each pending fire's latest
    input entry cycle and each output port's receive cycles (output
    ``r`` is ready at ``fire_times[r]`` plus its path delay).
    """

    def __init__(self, devices: list[DyserDevice]) -> None:
        self.devices = list(devices)
        n = len(self.devices)
        #: Each active point's cycle, in and out of every call.
        self.t = [0] * n
        #: The active configuration (None before the first dinit and
        #: after :meth:`finalize`).
        self.active: DyserConfig | None = None
        self.fired = self._sent = 0
        self.fire_times: list[list[int]] = [[] for _ in range(n)]
        self._pending: list[list[int]] = [[] for _ in range(n)]
        self._recvs: list[list[list[int]]] = [[] for _ in range(n)]
        # Output port -> index into each point's receive lists.
        self._outs: dict[int, int] = {}
        self._delays: tuple[int, ...] = ()
        self.keep(range(n))

    def keep(self, points) -> None:
        """Make ``points`` (ascending ids) the active points."""
        self._pts = [
            (p, self.fire_times[p], self._pending[p], self._recvs[p],
             tm.input_fifo_depth, tm.output_fifo_depth,
             tm.initiation_interval, dev)
            for p in points for dev in (self.devices[p],)
            for tm in (dev.timing,)]

    def init_config(self, config_id: int) -> None:
        """Activate ``config_id`` at ``t[p]``, once the outputs of the
        previous configuration's fires are consumed or ready; ``t[p]``
        becomes the cycle the point's fabric is ready."""
        live = self.active
        if live is not None and live.config_id == config_id:
            return  # already active: dinit is a no-op re-arm
        self.finalize()
        config = self.devices[0].configs[config_id]
        words = config.config_words()
        delays = config.path_delays()
        t = self.t
        for p, ft, pending, recvs, *_, dev in self._pts:
            ready = t[p]
            for times, delay in zip(recvs, self._delays):
                if len(times) < len(ft):
                    ready = max(ready, max(ft[len(times):]) + delay)
                elif times:
                    ready = max(ready, times[-1])
            cycles, hit = dev.config_cache.load_cycles(config_id, words)
            stats = dev.stats
            stats.config_loads += 1
            if hit:
                stats.config_hits += 1
            else:
                stats.config_words_loaded += words
            ready += cycles
            stats.config_stall_cycles += ready - t[p]
            if dev.events is not None:
                dev.events.complete(
                    "config_load", "dyser.config", t[p], ready - t[p],
                    config=config_id, hit=hit, words=words)
            t[p] = ready
            ft.clear()
            pending.clear()
            recvs[:] = [[] for _ in delays]
        self.active = config
        self.fired = self._sent = 0
        self._outs = {port: i for i, port in enumerate(delays)}
        self._delays = tuple(delays.values())

    def send(self, port: int, k: int, fired: int) -> None:
        """Value ``k`` of input ``port``, which leaves ``fired`` fires
        (the value side's counts), enters at ``t[p]``: it joins pending
        fire ``k`` and waits for fire ``k - depth`` to free its slot or,
        if that has not happened (sends out of invocation order), is
        accepted and counted unresolved.  ``t[p]`` becomes the cycle
        the send completes."""
        t = self.t
        before = self.fired
        j = k - before
        for pt in self._pts:
            p, ft, pending, _, depth, _, _, dev = pt
            ti = done = t[p]
            freeing = k - depth
            if freeing >= 0:
                if freeing < before:
                    if ft[freeing] > done:
                        done = ft[freeing]
                else:
                    dev.stats.unresolved_flow_stalls += 1
            if j < len(pending):
                if pending[j] < done:
                    pending[j] = done
            else:
                pending.append(done)
            if fired != before:
                self._fire(pt, fired - before)
            if done > ti:
                t[p] = done
                dev.send_stall_cycles[port] += done - ti
                if dev.events is not None:
                    dev.events.complete("send_stall", "dyser.port",
                                        ti, done - ti, port=port)
        self.fired = fired
        self._sent += 1

    def send_many(self, ports, runs, offsets) -> None:
        """One ``dldv``/``dldw`` transfer of the lockstep core (which
        never traces): value ``i`` enters ``ports[i]`` at ``t[p] +
        offsets[p][i]``, in order, by the rules of :meth:`send` applied
        to each of the value side's ``runs``, ``(end, k, fired)`` per
        stretch of values up to index ``end`` that are each value ``k``
        of their port; ``t[p]`` grows by the point's stalls."""
        t = self.t
        before = self.fired
        for pt in self._pts:
            p, ft, pending, _, depth, _, _, dev = pt
            t0 = t[p]
            off = offsets[p]
            fired = before
            start = 0
            for end, k, nf in runs:
                floor = 0
                freeing = k - depth
                if freeing >= 0:
                    if freeing < fired:
                        floor = ft[freeing] - t0
                    else:
                        dev.stats.unresolved_flow_stalls += end - start
                # The stretch's last value enters last.
                done = off[end - 1]
                done = t0 + (floor if floor > done else done)
                j = k - fired
                if j < len(pending):
                    if pending[j] < done:
                        pending[j] = done
                else:
                    pending.append(done)
                if nf != fired:
                    self._fire(pt, nf - fired)
                    fired = nf
                if floor > off[start]:
                    for i in range(start, end):
                        wait = floor - off[i]
                        if wait <= 0:
                            break
                        t[p] += wait
                        dev.send_stall_cycles[ports[i]] += wait
                start = end
        self.fired = fired
        self._sent += len(ports)

    def recv(self, port: int) -> None:
        """Receive output ``port``'s oldest value, tried at ``t[p]``;
        ``t[p]`` becomes the cycle the receive completes."""
        out = self._outs[port]
        delay = self._delays[out]
        t = self.t
        for p, ft, _, recvs, _, _, _, dev in self._pts:
            times = recvs[out]
            ti = t[p]
            ready = ft[len(times)] + delay
            if ready > ti:
                times.append(ready)
                t[p] = ready
                dev.recv_stall_cycles[port] += ready - ti
                if dev.events is not None:
                    dev.events.complete("recv_stall", "dyser.port",
                                        ti, ready - ti, port=port)
            else:
                times.append(ti)

    def _fire(self, pt: tuple, count: int) -> None:
        """Fire the oldest ``count`` pending invocations of one point."""
        _, ft, pending, recvs, _, depth, ii, dev = pt
        for _ in range(count):
            fire_at = pending.pop(0)
            if ft:
                floor = ft[-1] + ii
                if floor > fire_at:
                    fire_at = floor
            # On each output port this fire's value takes the slot
            # freed by the receive of fire (fired - depth)'s.
            freeing = len(ft) - depth
            if freeing >= 0:
                for times in recvs:
                    if freeing < len(times):
                        if times[freeing] > fire_at:
                            fire_at = times[freeing]
                    else:
                        dev.stats.unresolved_flow_stalls += 1
            ft.append(fire_at)
            if dev.events is not None:
                dev.events.complete(
                    "invocation", "dyser.invoke", fire_at,
                    self.active.critical_delay(),
                    config=self.active.config_id, index=len(ft) - 1)

    def finalize(self) -> None:
        """Fold the active configuration's counters into each active
        point's stats and deactivate it; called on every
        reconfiguration and at the end of a run."""
        config = self.active
        if config is None:
            return
        self.active = None
        fires = self.fired
        nodes = len(config.dfg.nodes)
        hops = config.used_switch_links()
        for p, _, _, recvs, *_, dev in self._pts:
            stats = dev.stats
            stats.invocations += fires
            stats.values_sent += self._sent
            stats.values_received += sum(map(len, recvs))
            stats.fu_ops += fires * nodes
            stats.switch_hops += fires * hops
