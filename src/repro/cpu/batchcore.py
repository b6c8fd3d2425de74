"""Batched lockstep backend: N timing configs of one program at once.

``BatchCore`` runs a *lane* — N sweep points that share one program,
one memory image, and one functional execution — in lockstep, as a
structure-of-arrays over per-point timing state.  The handlers come
from :mod:`repro.cpu.batchdecode`; see that module for the SoA layout
and the soundness argument (timing knobs cannot change architectural
values, so functional work is shared and done once).

The solo and the lockstep path share everything but their handlers and
their core: one decoder (:mod:`repro.cpu.decode` — block discovery,
opcode dispatch and cache — over two handler sets), one lane planner
(:func:`repro.harness.batch.plan_batches`), one run set-up around the
core (:mod:`repro.harness.runner`) and one engine dispatch loop
(:func:`repro.engine.pool.run_jobs`, where a solo job is a lane of
one).  ``BatchCore.run()`` binds the lockstep handlers to a batch
context and walks the block graph once for the whole lane.

Divergence model: within a lane, control flow is *shared by
construction* (branches read shared registers), so points can only
diverge by faulting — most commonly a per-point ``max_instructions``
limit.  ``run()`` therefore splits lazily: at block entry, any point
whose limit would land inside the block is *evicted* (recorded in
``self.evicted``) and simply dropped from the active list; the caller
re-runs evicted points solo on the fast backend, which reproduces
byte-identical results including mid-block HALT-before-limit and the
exact stable error strings.  A fault in *shared* functional state
(e.g. a DySER flow-control error, or falling off the program end)
would hit every point identically, so the whole remaining batch is
evicted and replayed solo — correctness never depends on partially
poisoned lockstep state.  Points that survive to HALT "re-merge"
trivially: they were never apart.
"""

from __future__ import annotations

from repro.errors import ReproError, SimulationError
from repro.cpu.batchdecode import batch_decode_program
from repro.cpu.cache import Cache
from repro.cpu.core import CacheHierarchy, Core, CoreConfig, _INSN_BYTES
from repro.cpu.memory import Memory
from repro.cpu.regfile import FpRegFile, IntRegFile
from repro.cpu.statistics import ExecStats, StallCause
from repro.dyser.interface import DyserDevice
from repro.isa.opcodes import InsnClass
from repro.isa.program import Program

#: StallCause by fast-path integer ID (declaration order).
_CAUSES = tuple(StallCause)

#: CoreConfig fields allowed to differ across the points of one lane.
#: Everything else shapes the shared functional execution (latencies
#: feed the shared handler tables; cache geometry shapes the shared
#: hierarchy) and must be equal.
PER_POINT_FIELDS = frozenset({"vector_port_words_per_cycle",
                              "max_instructions"})

_SHARED_FIELDS = (
    "alu_latency", "mul_latency", "div_latency", "fpu_latency",
    "fdiv_latency", "fpu_pipelined", "branch_taken_penalty",
    "icache", "dcache", "l2", "l1_to_l2_latency", "has_dyser",
    "trace_limit",
)


class _BatchCtx:
    """Mutable lockstep state the batched handlers bind against.

    Shared (one per lane): architectural registers ``ir``/``fr``,
    memory, the cache hierarchy accessors, the current fetch line
    ``fl`` and branch counter ``misc`` — plus the latency tables.
    Per point (lists indexed by point id): register scoreboards
    ``irdys``/``frdys`` with cause maps ``iczs``/``fczs``, stall
    accumulators ``sts``, structural scoreboards ``scs`` =
    ``[fpu_free, lsu_free, fabric_ready, store_queue_busy]``, cycle
    cursors ``tv``, DySER devices ``devs`` and port rates ``rates``.
    ``ap`` is the *active point list*; handlers iterate it, the core
    shrinks it on eviction.
    """

    __slots__ = (
        "ir", "fr", "irdys", "frdys", "iczs", "fczs", "sts", "scs",
        "tv", "ap", "fl", "misc", "mem", "devs", "da", "fa", "vca",
        "lats", "pipelined", "penalty", "ihit", "dhit", "rates",
    )

    def __init__(self, core: "BatchCore") -> None:
        cfg = core.config
        n = len(core.configs)
        self.ir = core.iregs._regs
        self.fr = core.fregs._regs
        self.irdys = [[0] * 32 for _ in range(n)]
        self.frdys = [[0] * 32 for _ in range(n)]
        self.iczs: list = [[None] * 32 for _ in range(n)]
        self.fczs: list = [[None] * 32 for _ in range(n)]
        self.sts = [[0] * len(_CAUSES) for _ in range(n)]
        self.scs = [[0, 0, 0, 0] for _ in range(n)]
        self.tv = [0] * n
        self.ap = list(range(n))
        self.fl = [-1]
        self.misc = [0]
        self.mem = core.memory
        self.devs = list(core.dysers)
        self.da = core._data_access
        self.fa = core._fetch_access
        self.vca = core._vector_cache_access
        self.lats = {c: cfg.latency_for(c) for c in InsnClass}
        self.pipelined = cfg.fpu_pipelined
        self.penalty = cfg.branch_taken_penalty
        self.ihit = cfg.icache.hit_latency
        self.dhit = cfg.dcache.hit_latency
        self.rates = [max(1, c.vector_port_words_per_cycle)
                      for c in core.configs]


class _PointView:
    """Adapter giving one point the attribute shape
    :meth:`Core._finalize_stats` expects."""

    _finalize_stats = Core._finalize_stats

    def __init__(self, stats, dcache, icache, dyser):
        self.stats = stats
        self.dcache = dcache
        self.icache = icache
        self.dyser = dyser


class BatchCore(CacheHierarchy):
    """Lockstep core over one lane of N timing configurations.

    ``configs[p]`` and ``dysers[p]`` describe point *p*.  All configs
    must agree on every :class:`CoreConfig` field except
    ``vector_port_words_per_cycle`` and ``max_instructions``
    (:data:`PER_POINT_FIELDS`); devices must be attached to either
    every point or none.  ``run()`` returns per-point
    ``ExecStats | None`` — ``None`` marks a point recorded in
    ``self.evicted`` that must be replayed solo by the caller.
    """

    def __init__(
        self,
        program: Program,
        memory: Memory,
        dysers: list[DyserDevice | None],
        configs: list[CoreConfig],
    ) -> None:
        if not configs:
            raise SimulationError("BatchCore needs at least one config")
        if len(dysers) != len(configs):
            raise SimulationError(
                "BatchCore needs one DySER slot per config "
                f"({len(dysers)} devices, {len(configs)} configs)"
            )
        base = configs[0]
        for cfg in configs:
            if cfg.trace_limit:
                raise SimulationError(
                    "BatchCore does not support instruction traces "
                    "(CoreConfig.trace_limit); use the reference backend"
                )
            for name in _SHARED_FIELDS:
                if getattr(cfg, name) != getattr(base, name):
                    raise SimulationError(
                        f"batched points disagree on CoreConfig.{name}; "
                        "only timing knobs "
                        f"({', '.join(sorted(PER_POINT_FIELDS))}) may "
                        "vary within a batch"
                    )
        attached = [d is not None for d in dysers]
        if any(attached) and not all(attached):
            raise SimulationError(
                "batched points must all or none have a DySER device"
            )
        if attached[0] and not base.has_dyser:
            raise SimulationError(
                "DySER device attached to a core configured without one"
            )
        if not program.is_linked:
            program.link()
        program.validate()
        self.program = program
        self.memory = memory
        self.configs = list(configs)
        self.config = base
        self.dysers = list(dysers)
        for dev in self.dysers:
            if dev is not None:
                dev.register_program(program)
        self.iregs = IntRegFile()
        self.fregs = FpRegFile()
        self.icache = Cache(base.icache)
        self.dcache = Cache(base.dcache)
        self.l2 = Cache(base.l2) if base.l2 else None
        #: Point ids dropped from lockstep (limit landed inside a
        #: block, shared fault, or fell off the program end); the
        #: caller replays them solo.
        self.evicted: set[int] = set()

    # Shared helpers: the reference implementations, so the calling
    # convention can never drift.
    set_args = Core.set_args

    def run(self) -> list[ExecStats | None]:
        if self.program.spill_words:
            spill_base = self.memory.alloc(self.program.spill_words)
            self.iregs.write(28, spill_base)
        cfg = self.config
        insns_per_line = max(1, cfg.icache.line_bytes // _INSN_BYTES)
        decoded = batch_decode_program(self.program, insns_per_line)
        ctx = _BatchCtx(self)
        bound = decoded.bind(ctx)

        limits = [c.max_instructions for c in self.configs]
        ap = ctx.ap
        evicted = self.evicted
        counts = [0] * len(bound)
        executed = 0
        min_limit = min(limits[p] for p in ap)
        bi = 0
        while True:
            if bi < 0:
                if bi == -1:        # HALT retired for the whole lane
                    break
                # Fell off the program end: a shared-control fault that
                # hits every point identically (possibly as a limit
                # error first) — replay them all solo.
                evicted.update(ap)
                ap.clear()
                break
            handlers, term, length, _ = bound[bi]
            ne = executed + length
            if ne > min_limit:
                # Some point's instruction limit lands inside this
                # block: split it out of lockstep.  Solo replay gives
                # exact semantics (per-instruction limit checks,
                # mid-block HALT-before-limit, stable error strings).
                keep = [p for p in ap if ne <= limits[p]]
                evicted.update(p for p in ap if ne > limits[p])
                ap[:] = keep
                if not ap:
                    break
                min_limit = min(limits[p] for p in ap)
            executed = ne
            counts[bi] += 1
            try:
                for h in handlers:
                    h()
                bi = term()
            except ReproError:
                # Faults raised from shared functional state (DySER
                # flow errors, missing device, ...) would hit every
                # point identically; evict the lane and let solo
                # replay reproduce each point's exact error.
                evicted.update(ap)
                ap.clear()
                break

        n = len(self.configs)
        results: list[ExecStats | None] = [None] * n
        if not ap:
            return results

        # Shared accounting: every surviving point executed the same
        # dynamic path, so block counts, instruction mix and taken
        # branches are computed once and copied per point.
        mix_totals: dict = {}
        total = 0
        blocks = decoded.blocks
        for idx, cnt in enumerate(counts):
            if not cnt:
                continue
            for iclass, m in blocks[idx].mix:
                mix_totals[iclass] = mix_totals.get(iclass, 0) + m * cnt
                total += m * cnt
        branches = ctx.misc[0]

        for p in ap:
            stats = ExecStats()
            mix = stats.insn_mix
            for iclass, m in mix_totals.items():
                mix[iclass] += m
            stats.instructions += total
            stats.branches_taken += branches
            stall = stats.stall_cycles
            for cid, cycles in enumerate(ctx.sts[p]):
                if cycles:
                    stall[_CAUSES[cid]] += cycles
            stats.cycles = ctx.tv[p]
            _PointView(stats, self.dcache, self.icache,
                       self.dysers[p])._finalize_stats()
            results[p] = stats
        return results
