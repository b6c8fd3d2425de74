"""Fast backend: basic-block interpreter, cycle-exact with :class:`Core`.

``FastCore`` executes programs predecoded by :mod:`repro.cpu.decode`.
Where the reference core re-decodes every instruction every cycle (enum
dispatch, per-call latency tables, attribute lookups), the fast core
walks a flat tuple of specialized closures per basic block and folds
instruction-mix accounting to one update per block execution.  All
*dynamic* modeling — cache hits and misses, register scoreboard waits,
the unpipelined FPU, branch outcomes, DySER port flow control — runs
exactly as in the reference; only the static work is hoisted.

The contract is **cycle-exact equality**, not approximation: for any
program and :class:`CoreConfig`, ``FastCore(...).run()`` must produce
the same ``ExecStats`` (cycles, instruction mix, stall breakdown,
cache and DySER counters) and the same architectural state as
``Core(...).run()``.  ``repro.harness.parity.verify_parity`` and
``tests/test_fastcore.py`` enforce this across the workload suite and
randomly generated programs.

Not supported (by design): event tracing and instruction traces.  The
fast core *refuses* to construct with tracing enabled rather than
silently dropping events — the harness backend dispatch
(:mod:`repro.harness.backends`) routes traced runs to the reference
core, whose cycles are identical by the parity contract.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.cpu.cache import Cache
from repro.cpu.core import CacheHierarchy, Core, CoreConfig, _INSN_BYTES
from repro.cpu.decode import decode_program
from repro.cpu.memory import Memory
from repro.cpu.regfile import FpRegFile, IntRegFile
from repro.cpu.statistics import ExecStats, StallCause
from repro.dyser.interface import DyserDevice
from repro.isa.opcodes import InsnClass
from repro.isa.program import Program

#: StallCause by fast-path integer ID (declaration order).
_CAUSES = tuple(StallCause)


class _Ctx:
    """Mutable per-run state the decoded handlers bind against.

    Scoreboard layout:

    - ``irdy``/``frdy``: per-register ready cycles,
      ``icz``/``fcz``: the stall-cause ID (or None) a wait on that
      register is attributed to;
    - ``st``: stall cycles by cause ID (folded into the enum-keyed
      Counter at the end of the run);
    - ``sc``: ``[fpu_free, lsu_free, fabric_ready, store_queue_busy,
      cur_fetch_line]``;
    - ``misc``: ``[branches_taken]``.
    """

    __slots__ = (
        "ir", "fr", "irdy", "frdy", "icz", "fcz", "st", "sc", "misc",
        "mem", "dev", "da", "fa", "vca", "lats", "pipelined", "penalty",
        "ihit", "dhit", "rate",
    )

    def __init__(self, core: "FastCore") -> None:
        cfg = core.config
        self.ir = core.iregs._regs
        self.fr = core.fregs._regs
        self.irdy = [0] * 32
        self.frdy = [0] * 32
        self.icz: list = [None] * 32
        self.fcz: list = [None] * 32
        self.st = [0] * len(_CAUSES)
        self.sc = [0, 0, 0, 0, -1]
        self.misc = [0]
        self.mem = core.memory
        self.dev = core.dyser
        self.da = core._data_access
        self.fa = core._fetch_access
        self.vca = core._vector_cache_access
        self.lats = {c: cfg.latency_for(c) for c in InsnClass}
        self.pipelined = cfg.fpu_pipelined
        self.penalty = cfg.branch_taken_penalty
        self.ihit = cfg.icache.hit_latency
        self.dhit = cfg.dcache.hit_latency
        self.rate = max(1, cfg.vector_port_words_per_cycle)


class FastCore(CacheHierarchy):
    """Drop-in replacement for :class:`~repro.cpu.core.Core` on the
    untraced path.  Same constructor signature; same ``run()`` result.
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
                "FastCore does not support event tracing; "
                "use the reference backend for traced runs"
            )
        if not program.is_linked:
            program.link()
        program.validate()
        self.program = program
        self.memory = memory
        self.config = config or CoreConfig()
        if self.config.trace_limit:
            raise SimulationError(
                "FastCore does not support instruction traces "
                "(CoreConfig.trace_limit); use the reference backend"
            )
        self.dyser = dyser
        if dyser is not None:
            if not self.config.has_dyser:
                raise SimulationError(
                    "DySER device attached to a core configured without one"
                )
            dyser.register_program(program)
        self.iregs = IntRegFile()
        self.fregs = FpRegFile()
        self.icache = Cache(self.config.icache)
        self.dcache = Cache(self.config.dcache)
        self.l2 = Cache(self.config.l2) if self.config.l2 else None
        self.stats = ExecStats()
        #: Interface parity with Core; always empty (tracing refused).
        self.trace: list[tuple[int, int, str]] = []
        self.events = None
        self.trace_instructions = False

    # Shared helpers: the reference implementations, so the calling
    # convention can never drift.
    set_args = Core.set_args
    _finalize_stats = Core._finalize_stats

    def run(self) -> ExecStats:
        if self.program.spill_words:
            spill_base = self.memory.alloc(self.program.spill_words)
            self.iregs.write(28, spill_base)
        cfg = self.config
        insns_per_line = max(1, cfg.icache.line_bytes // _INSN_BYTES)
        decoded = decode_program(self.program, insns_per_line)
        ctx = _Ctx(self)
        bound = decoded.bind(ctx)

        limit = cfg.max_instructions
        name = self.program.name
        counts = [0] * len(bound)
        t = 0
        executed = 0
        bi = 0
        while True:
            if bi < 0:
                if bi == -1:        # HALT retired
                    break
                # fell off the end (reference checks the instruction
                # limit before the fetch that faults)
                if executed >= limit:
                    raise SimulationError(
                        f"instruction limit {limit} exceeded "
                        f"(runaway loop in {name}?)"
                    )
                raise SimulationError(
                    f"pc {decoded.n} fell off the end of {name}"
                )
            handlers, term, length, starts = bound[bi]
            if executed + length > limit:
                # The limit lands inside this block: fall back to
                # per-instruction checks in reference order.
                nh = len(handlers)
                for k in range(length):
                    if executed >= limit:
                        raise SimulationError(
                            f"instruction limit {limit} exceeded "
                            f"(runaway loop in {name}?)"
                        )
                    executed += 1
                    end = starts[k + 1] if k + 1 < length else nh
                    for i in range(starts[k], end):
                        t = handlers[i](t)
                counts[bi] += 1
                t, bi = term(t)
                continue
            executed += length
            counts[bi] += 1
            for h in handlers:
                t = h(t)
            t, bi = term(t)

        stats = self.stats
        mix = stats.insn_mix
        total = 0
        blocks = decoded.blocks
        for idx, cnt in enumerate(counts):
            if not cnt:
                continue
            for iclass, m in blocks[idx].mix:
                mix[iclass] += m * cnt
                total += m * cnt
        stats.instructions += total
        stats.branches_taken += ctx.misc[0]
        stall = stats.stall_cycles
        for cid, cycles in enumerate(ctx.st):
            if cycles:
                stall[_CAUSES[cid]] += cycles
        stats.cycles = t
        self._finalize_stats()
        return stats
