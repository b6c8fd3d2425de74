"""The CPU-facing DySER device: what the pipeline's extension unit talks to.

Owns the registered configurations, the configuration cache, and the
active :class:`InvocationEngine`.  The host core calls:

- :meth:`init_config` on ``dinit``,
- :meth:`send` on ``dsend``/``dfsend``/``dld`` (data path), and
  :meth:`send_many` once per ``dldv``/``dfldv``/``dldw``/``dfldw``
  transfer (the reference core sends each of its values through
  :meth:`send` instead, so its trace holds one stall event per value),
- :meth:`recv` on ``drecv``/``dfrecv``/``dst``/``dstv``.

All methods take and return *cycle timestamps* so the in-order scoreboard
core can account stalls precisely.  Both send methods call the engine's
one deposit (:meth:`InvocationEngine.send`) per value and add only the
device's counters: values sent, per-port stall cycles and, when traced,
one ``send_stall`` event per stalled value.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import DyserError
from repro.dyser.config import DyserConfig
from repro.dyser.config_cache import ConfigCache, ConfigCacheParams
from repro.dyser.fabric import Fabric
from repro.dyser.functional import FunctionalEvaluator
from repro.dyser.timing import DyserTimingParams, InvocationEngine


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
    """One DySER instance attached to a core."""

    fabric: Fabric = field(default_factory=Fabric)
    timing: DyserTimingParams = field(default_factory=DyserTimingParams)
    cache_params: ConfigCacheParams = field(default_factory=ConfigCacheParams)

    def __post_init__(self) -> None:
        self.configs: dict[int, DyserConfig] = {}
        #: Evaluator per registered config (:meth:`evaluator_for`).
        self._plans: dict[int, FunctionalEvaluator] = {}
        self.config_cache = ConfigCache(self.cache_params)
        self.engine: InvocationEngine | None = None
        self.stats = DyserStats()
        #: Structured event stream (:mod:`repro.obs.events`) or None;
        #: set by the harness when the run requests tracing.
        self.events = None
        #: Per-port stall cycles, folded into the run's metrics
        #: registry by :meth:`repro.cpu.Core._finalize_stats`.
        self.send_stall_cycles: Counter = Counter()
        self.recv_stall_cycles: Counter = Counter()

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
        config = self.configs.get(config_id)
        if config is None:
            raise DyserError(f"dinit of unregistered config {config_id}")
        start = t
        engine = self.engine
        if engine is not None:
            if engine.config.config_id == config_id:
                return t  # already active: dinit is a no-op re-arm
            start = max(t, engine.drained_time())
            self.finalize()
            engine.quiesce()
        cycles, hit = self.config_cache.load_cycles(
            config_id, config.config_words()
        )
        self.stats.config_loads += 1
        if hit:
            self.stats.config_hits += 1
        else:
            self.stats.config_words_loaded += config.config_words()
        ready = start + cycles
        self.stats.config_stall_cycles += ready - t
        if self.events is not None:
            self.events.complete(
                "config_load", "dyser.config", t, ready - t,
                config=config_id, hit=hit,
                words=config.config_words())
        plan = self._plans.get(config_id)
        if plan is None:
            plan = self._plans[config_id] = self.evaluator_for(config)
        self.engine = InvocationEngine(config, self.timing,
                                       events=self.events, evaluator=plan)
        return ready

    def evaluator_for(self, config: DyserConfig) -> FunctionalEvaluator:
        """Build ``config``'s evaluator.  Called once per config, on its
        first activation; every engine that runs the config is handed
        the same evaluator.  What a fire does is chosen here."""
        return FunctionalEvaluator(config.dfg)

    def send(self, port: int, value: int | float, t_ready: int) -> int:
        engine = self.engine
        if engine is None:
            raise DyserError("send with no configuration loaded")
        done = engine.send(port, value, t_ready)
        self.stats.values_sent += 1
        if done > t_ready:
            self.send_stall_cycles[port] += done - t_ready
            if self.events is not None:
                self.events.complete("send_stall", "dyser.port",
                                     t_ready, done - t_ready, port=port)
        return done

    def send_many(self, ports, values, arrivals) -> int:
        """One multi-value transfer: ``values[i]`` goes to ``ports[i]``
        at cycle ``arrivals[i]``, in order (a ``dldv``/``dfldv`` stream
        repeats one port, a ``dldw``/``dfldw`` spreads over consecutive
        ports).

        Cycle-exact with calling :meth:`send` per value (a deposit that
        fills the last empty FIFO fires mid-transfer, and later deposits
        wait on that fire); returns the total send-stall cycles so the
        core can charge them in one go.
        """
        engine = self.engine
        if engine is None:
            raise DyserError("send with no configuration loaded")
        send = engine.send
        stalls = self.send_stall_cycles
        events = self.events
        total = 0
        for port, value, arrive in zip(ports, values, arrivals,
                                       strict=True):
            done = send(port, value, arrive)
            if done > arrive:
                total += done - arrive
                stalls[port] += done - arrive
                if events is not None:
                    events.complete("send_stall", "dyser.port", arrive,
                                    done - arrive, port=port)
        self.stats.values_sent += len(values)
        return total

    def recv(self, port: int, t_try: int) -> tuple[int | float, int]:
        engine = self.engine
        if engine is None:
            raise DyserError("recv with no configuration loaded")
        value, done = engine.recv(port, t_try)
        self.stats.values_received += 1
        if done > t_try:
            self.recv_stall_cycles[port] += done - t_try
            if self.events is not None:
                self.events.complete("recv_stall", "dyser.port",
                                     t_try, done - t_try, port=port)
        return value, done

    # -- bookkeeping -------------------------------------------------------------

    def finalize(self) -> DyserStats:
        """Fold the active engine's counters in and drop it; called on
        every reconfiguration and at the end of a run."""
        engine = self.engine
        if engine is not None:
            self.engine = None
            stats = self.stats
            fires = engine.invocations
            stats.invocations += fires
            stats.unresolved_flow_stalls += engine.unresolved_stalls
            stats.fu_ops += fires * engine.ops_per_fire
            stats.switch_hops += fires * engine.hops_per_fire
        return self.stats
