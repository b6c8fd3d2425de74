"""The CPU-facing DySER device: what the pipeline's extension unit talks to.

Owns the registered configurations, the configuration cache, and the
active :class:`InvocationEngine`.  The host core calls:

- :meth:`init_config` on ``dinit``,
- :meth:`send` on ``dsend``/``dfsend``/``dld``/``dldv`` (data path),
- :meth:`recv` on ``drecv``/``dfrecv``/``dst``/``dstv``.

All methods take and return *cycle timestamps* so the in-order scoreboard
core can account stalls precisely.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import DyserError
from repro.dyser.config import DyserConfig
from repro.dyser.config_cache import ConfigCache, ConfigCacheParams
from repro.dyser.fabric import Fabric
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
        if self.engine is not None:
            if self.engine.config.config_id == config_id:
                return t  # already active: dinit is a no-op re-arm
            start = max(t, self.engine.drained_time())
            self._retire_engine()
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
        self.engine = InvocationEngine(config, self.timing,
                                       events=self.events)
        return ready

    def send(self, port: int, value: int | float, t_ready: int) -> int:
        engine = self._require_engine("send")
        done = engine.send(port, value, t_ready)
        self.stats.values_sent += 1
        if done > t_ready:
            self.send_stall_cycles[port] += done - t_ready
            if self.events is not None:
                self.events.complete("send_stall", "dyser.port",
                                     t_ready, done - t_ready, port=port)
        return done

    def send_stream(self, port: int, values, arrivals) -> int:
        """Batched sends to one port (``dldv``/``dfldv`` streams).

        Cycle-exact with calling :meth:`send` per element; returns the
        total send-stall cycles so the core can charge them in one go.
        Traced devices take the per-send path so the event stream is
        unchanged.
        """
        if self.events is not None:
            total = 0
            for value, arrive in zip(values, arrivals, strict=True):
                done = self.send(port, value, arrive)
                if done > arrive:
                    total += done - arrive
            return total
        engine = self._require_engine("send")
        total = engine.send_stream(port, values, arrivals)
        self.stats.values_sent += len(values)
        if total:
            self.send_stall_cycles[port] += total
        return total

    def recv(self, port: int, t_try: int) -> tuple[int | float, int]:
        engine = self._require_engine("recv")
        value, done = engine.recv(port, t_try)
        self.stats.values_received += 1
        if done > t_try:
            self.recv_stall_cycles[port] += done - t_try
            if self.events is not None:
                self.events.complete("recv_stall", "dyser.port",
                                     t_try, done - t_try, port=port)
        return value, done

    # -- bookkeeping -------------------------------------------------------------

    def _require_engine(self, what: str) -> InvocationEngine:
        if self.engine is None:
            raise DyserError(f"{what} with no configuration loaded")
        return self.engine

    def _fold_engine_stats(self) -> None:
        assert self.engine is not None
        self.stats.invocations += self.engine.invocations
        self.stats.unresolved_flow_stalls += self.engine.unresolved_stalls
        self.stats.fu_ops += self.engine.invocations * self.engine.ops_per_fire
        self.stats.switch_hops += (
            self.engine.invocations * self.engine.hops_per_fire)

    def _retire_engine(self) -> None:
        self._fold_engine_stats()
        self.engine.quiesce()
        self.engine = None

    def finalize(self) -> DyserStats:
        """Fold the active engine's counters in; call at end of run."""
        if self.engine is not None:
            self._fold_engine_stats()
            self.engine = None
        return self.stats

    def steady_state(self):
        """Analytic steady-state of the active configuration
        (:class:`~repro.dyser.timing.SteadyState`)."""
        return self._require_engine("steady_state").steady_state()
