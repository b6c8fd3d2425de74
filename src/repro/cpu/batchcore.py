"""The simulation core of every untraced run: N timing configs at once.

``BatchCore`` runs a *lane* — N sweep points that share one program,
one memory image, and one functional execution — in lockstep, as a
structure-of-arrays over per-point timing state.  A solo run is a lane
of one, which :class:`LaneOfOne` runs behind the reference core's
constructor contract.  The handlers come from :mod:`repro.cpu.decode`;
see that module for the soundness argument (timing knobs cannot change
architectural values, so functional work is shared and done once).

Around the core, solo runs and wider lanes share one lane planner
(:func:`repro.harness.batch.plan_batches`), one run set-up
(:mod:`repro.harness.runner`) and one engine dispatch loop
(:func:`repro.engine.pool.run_jobs`).  ``BatchCore.run()`` walks the
block graph once for the whole lane against one batch context.  A
block runs on its per-instruction handlers, bound on its first run,
until it has run :data:`_HOT_BLOCK_RUNS` times; from then on it runs
as one fused function rendered from the same instruction templates
(:meth:`repro.cpu.decode.DecodedBlock.fuse`), compiled once per source
text and cached until :func:`repro.cpu.decode.clear_decode_caches`.
A lane of one's fused blocks keep its scoreboards in locals; a wider
lane's fused blocks loop over its points inside each instruction.

Divergence model: within a lane, control flow is *shared by
construction* (branches read shared registers), so points can only
diverge by faulting — most commonly a per-point ``max_instructions``
limit.  ``run()`` therefore splits lazily: at block entry, any point
whose limit would land inside the block is *evicted* (recorded in
``self.evicted``) and simply dropped from the active list; the caller
re-runs each evicted point as a lane of one, which reproduces the
reference core's outcome byte for byte, stable error strings included.
A fault in *shared* functional state (e.g. a DySER flow-control error,
or falling off the program end) would hit every point identically, so
the whole remaining lane is evicted and replayed — correctness never
depends on partially poisoned lockstep state.  Points that survive to
HALT "re-merge" trivially: they were never apart.

A lane of one never evicts.  When its instruction limit lands inside a
block it runs the instructions before the limit and raises the
reference core's limit error; any other fault propagates as the run's
own error.  Replaying an evicted point therefore cannot recurse.
"""

from __future__ import annotations

from repro.errors import ReproError, SimulationError
from repro.cpu.cache import Cache
from repro.cpu.core import (
    _INSN_BYTES, CacheHierarchy, Core, CoreConfig, _runaway_error)
from repro.cpu.decode import decode_program
from repro.cpu.memory import Memory
from repro.cpu.regfile import FpRegFile, IntRegFile
from repro.cpu.statistics import ExecStats, StallCause
from repro.dyser.functional import DyserValues
from repro.dyser.interface import DyserDevice
from repro.isa.opcodes import InsnClass
from repro.isa.program import Program

#: StallCause by handler integer ID (declaration order).
_CAUSES = tuple(StallCause)

#: Runs after which a block is rendered as one fused function
#: (:meth:`repro.cpu.decode.DecodedBlock.fuse`).  Rendering and
#: compiling cost about as much as a few hundred executions of the
#: per-instruction handlers save, so cold code stays on them.
_HOT_BLOCK_RUNS = 256

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
)


class _BatchCtx:
    """Mutable lockstep state the batched handlers bind against.

    Shared (one per lane): architectural registers ``ir``/``fr``,
    memory, the cache hierarchy accessors, the current fetch line
    ``fl`` and branch counter ``misc`` — plus the latency tables.
    Per point (lists indexed by point id): register scoreboards
    ``irdys``/``frdys`` with cause maps ``iczs``/``fczs``, stall
    accumulators ``sts``, structural scoreboards ``scs`` =
    ``[fpu_free, lsu_free, fabric_ready, store_queue_busy, cycle]``
    (``cycle`` is the point's cursor), DySER devices ``devs`` and port
    rates ``rates``.  The values crossing the fabric are shared: ``dyv``
    is the lane's :class:`~repro.dyser.functional.DyserValues`.

    ``ap`` is the *active point list*; handlers iterate one of its
    views instead, which bind each active point's scoreboards as one
    tuple: ``pi`` = ``(irdy, icz, st, sc)``, ``pf`` = ``(frdy, fcz, st,
    sc)``, ``pa`` = ``(irdy, icz, frdy, fcz, st, sc)``, ``pdi`` = ``(p,
    dev) + pi`` and ``pdf`` = ``(p, dev) + pf``.  :meth:`keep` shrinks
    them all on eviction.  ``solo`` is point 0's ``pdi`` plus ``(frdy,
    fcz)``, which a lane of one's fused blocks bind as locals.

    Where no L2 sits behind the L1s and the core keeps the stock
    accessors, ``fa`` and ``da`` are the caches' own ``access``.
    """

    __slots__ = (
        "ir", "fr", "irdys", "frdys", "iczs", "fczs", "sts", "scs",
        "ap", "pi", "pf", "pa", "pdi", "pdf", "fl", "misc", "mem", "devs",
        "dyv",
        "da", "fa", "vca", "lats", "pipelined", "penalty", "ihit", "dhit",
        "rates", "solo",
    )

    def __init__(self, core: "BatchCore") -> None:
        cfg = core.config
        n = len(core.configs)
        self.ir = core.iregs._regs
        self.fr = core.fregs._regs
        self.irdys = [[0] * 32 for _ in range(n)]
        self.frdys = [[0] * 32 for _ in range(n)]
        self.iczs = [[0] * 32 for _ in range(n)]
        self.fczs = [[0] * 32 for _ in range(n)]
        self.sts = [[0] * len(_CAUSES) for _ in range(n)]
        self.scs = [[0, 0, 0, 0, 0] for _ in range(n)]
        self.fl = [-1]
        self.misc = [0]
        self.mem = core.memory
        self.devs = list(core.dysers)
        self.dyv = core.dyser_values
        plain = core.l2 is None
        self.da = (core.dcache.access if plain and type(core)._data_access
                   is CacheHierarchy._data_access else core._data_access)
        self.fa = (core.icache.access if plain and type(core)._fetch_access
                   is CacheHierarchy._fetch_access else core._fetch_access)
        self.vca = core._vector_cache_access
        self.lats = {c: cfg.latency_for(c) for c in InsnClass}
        self.pipelined = cfg.fpu_pipelined
        self.penalty = cfg.branch_taken_penalty
        self.ihit = cfg.icache.hit_latency
        self.dhit = cfg.dcache.hit_latency
        self.rates = [max(1, c.vector_port_words_per_cycle)
                      for c in core.configs]
        self.ap: list[int] = []
        self.pi: list[tuple] = []
        self.pf: list[tuple] = []
        self.pa: list[tuple] = []
        self.pdi: list[tuple] = []
        self.pdf: list[tuple] = []
        self.keep(range(n))
        self.solo = self.pdi[0] + (self.frdys[0], self.fczs[0])

    def keep(self, points) -> None:
        """Make ``points`` (ascending ids) the active point list."""
        ap = self.ap
        ap[:] = points
        ints = [(self.irdys[p], self.iczs[p]) for p in ap]
        fps = [(self.frdys[p], self.fczs[p]) for p in ap]
        tails = [(self.sts[p], self.scs[p]) for p in ap]
        self.pi[:] = [i + t for i, t in zip(ints, tails)]
        self.pf[:] = [f + t for f, t in zip(fps, tails)]
        self.pa[:] = [i + f + t for i, f, t in zip(ints, fps, tails)]
        self.pdi[:] = [(p, self.devs[p]) + v for p, v in zip(ap, self.pi)]
        self.pdf[:] = [(p, self.devs[p]) + v for p, v in zip(ap, self.pf)]


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
    ``self.evicted`` that the caller must replay as a lane of one.
    A lane of one (one config) raises where the reference core raises
    and so always returns its stats.
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
        #: The lane's one value side; each point's device has its cycles.
        self.dyser_values = (DyserValues(dysers[0].configs)
                             if attached[0] else None)
        self.iregs = IntRegFile()
        self.fregs = FpRegFile()
        self.icache = Cache(base.icache)
        self.dcache = Cache(base.dcache)
        self.l2 = Cache(base.l2) if base.l2 else None
        #: Point ids dropped from lockstep (limit landed inside a
        #: block, shared fault, or fell off the program end); the
        #: caller replays each as a lane of one.  Always empty for a
        #: lane of one, which raises its faults instead.
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
        decoded = decode_program(self.program, insns_per_line)
        ctx = _BatchCtx(self)
        blocks = decoded.blocks
        lengths = [b.length for b in blocks]
        # Per block: its per-instruction handlers ``(handlers, term)``,
        # bound on its first run, and its fused function once hot.
        bound: list = [None] * len(blocks)
        fused: list = [None] * len(blocks)
        hot = _HOT_BLOCK_RUNS

        limits = [c.max_instructions for c in self.configs]
        # A lane of one never evicts: every fault is the run's own.
        solo = len(limits) == 1
        ap = ctx.ap
        evicted = self.evicted
        counts = [0] * len(blocks)
        executed = 0
        min_limit = min(limits)
        bi = 0
        while True:
            if bi < 0:
                if bi == -1:        # HALT retired for the whole lane
                    break
                # Fell off the program end: a shared-control fault that
                # hits every point identically (the reference checks
                # the instruction limit before the fetch that faults).
                if solo:
                    if executed >= min_limit:
                        raise _runaway_error(min_limit, self.program)
                    raise SimulationError(
                        f"pc {decoded.n} fell off the end of "
                        f"{self.program.name}"
                    )
                evicted.update(ap)
                ctx.keep(())
                break
            ne = executed + lengths[bi]
            if ne > min_limit:
                if solo:
                    # The limit lands inside this block: run the
                    # instructions before it (a fault there comes
                    # first), then stop where the reference core does.
                    block = blocks[bi]
                    handlers, _ = bound[bi] or block.bind(ctx)
                    for h in handlers[:block.starts[min_limit - executed]]:
                        h()
                    raise _runaway_error(min_limit, self.program)
                # Some point's instruction limit lands inside this
                # block: split it out of lockstep.  Its replay as a
                # lane of one gives exact semantics (stable error
                # strings included).
                evicted.update(p for p in ap if ne > limits[p])
                ctx.keep([p for p in ap if ne <= limits[p]])
                if not ap:
                    break
                min_limit = min(limits[p] for p in ap)
            executed = ne
            runs = counts[bi] = counts[bi] + 1
            try:
                run = fused[bi]
                if run is None:
                    if runs <= hot:
                        cold = bound[bi]
                        if cold is None:
                            cold = bound[bi] = blocks[bi].bind(ctx)
                        handlers, term = cold
                        for h in handlers:
                            h()
                        bi = term()
                        continue
                    run = fused[bi] = blocks[bi].fuse(ctx, solo)
                bi = run()
            except ReproError:
                if solo:
                    raise
                # Faults raised from shared functional state (DySER
                # flow errors, missing device, ...) would hit every
                # point identically; evict the lane and let each
                # point's replay reproduce its exact error.
                evicted.update(ap)
                ctx.keep(())
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
            stats.cycles = ctx.scs[p][4]
            _PointView(stats, self.dcache, self.icache,
                       self.dysers[p])._finalize_stats()
            results[p] = stats
        return results


class LaneOfOne:
    """A solo run behind the :class:`Core` constructor contract.

    It runs ``program`` as a :class:`BatchCore` lane of one point
    (:attr:`lane`), and ``run()`` returns that point's stats.  It emits
    no events and refuses an event stream or instruction trace rather
    than silently dropping them; the backend dispatch
    (:mod:`repro.harness.backends`) routes traced runs to the reference
    core, whose cycles are identical by the parity contract.
    """

    def __init__(
        self,
        program: Program,
        memory: Memory,
        dyser: DyserDevice | None = None,
        config: CoreConfig | None = None,
        events=None,
        trace_instructions: bool = False,
    ) -> None:
        if events is not None or trace_instructions:
            raise SimulationError(
                "a lane of one does not support event tracing; "
                "use the reference backend for traced runs"
            )
        self.lane = BatchCore(program, memory, [dyser],
                              [config or CoreConfig()])
        self.set_args = self.lane.set_args

    def run(self) -> ExecStats:
        # A lane of one raises its own faults, so it has its stats.
        [stats] = self.lane.run()
        return stats
