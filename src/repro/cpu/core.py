"""OpenSPARC-T1-flavoured in-order core: functional execution with
one-pass scoreboard timing.

The model executes the program functionally, instruction by instruction,
and computes cycle timing as it goes using the standard in-order scoreboard
technique: each register carries the cycle its value becomes available; an
instruction issues at the max of the issue cursor and its operands' ready
times; taken branches, cache misses, the unpipelined FPU and DySER port
flow control all push times forward.  For a single-issue in-order pipeline
this one-pass model is cycle-exact up to the fetch-bubble approximations
documented on :class:`CoreConfig`.

T1-flavoured parameters: no branch prediction (taken-branch bubble),
a long-latency shared FPU (unpipelined by default — a major reason DySER
helps FP kernels on the prototype), write-through D$.

What each instruction waits on, computes and costs is not written here:
``run`` dispatches on the per-pc table of :mod:`repro.cpu.rules`, and
the lockstep handlers bind the same source rules and value templates.
This module owns the scoreboard, stall-cause attribution, event
emission, the DySER interface and the cache hierarchy
(:class:`CacheHierarchy`) every model shares.

``run`` is also the static cost walker's interpreter: its values are
``int | float | None``, and :class:`repro.analysis.perf._Walker` runs it
with unknown (None) values, overriding the hook methods below to guess
branches, skip unknown addresses and attribute cycles to DySER
regions.  On this core every value is known and the hooks do nothing
(or re-raise).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.cpu.cache import Cache, CacheConfig, dcache_config, icache_config
from repro.cpu.memory import WORD_BYTES, Memory
from repro.cpu.regfile import FpRegFile, IntRegFile, wrap64
from repro.cpu.rules import (
    K_BAD_IMM, K_BRANCH, K_DYSER, K_FLD, K_FLI, K_FMOV, K_FPU, K_FST, K_HALT,
    K_JUMP, K_LD, K_LI, K_MOV, K_NOP, K_SEL, K_ST, decode_table)
from repro.cpu.statistics import ExecStats, StallCause
from repro.dyser.functional import DyserValues
from repro.dyser.interface import DyserCycles, DyserDevice
from repro.isa.instruction import ARG_FP_REGS, ARG_INT_REGS
from repro.isa.opcodes import InsnClass, Opcode
from repro.isa.program import Program

_INSN_BYTES = 4

#: Kinds whose issue also waits for the LSU.
_LSU_KINDS = frozenset({K_LD, K_FLD, K_ST, K_FST})

#: Scoreboard slot past the integer registers holding the cycle the
#: load/store unit frees: memory ops wait on it before their sources,
#: so it raises their issue floor with no stall cause of its own.
_LSU = 32

#: The :class:`CoreConfig` field holding each class's result latency;
#: every other class completes in one cycle.
_LATENCY_FIELD = {
    InsnClass.ALU: "alu_latency",
    InsnClass.MUL: "mul_latency",
    InsnClass.DIV: "div_latency",
    InsnClass.FPU: "fpu_latency",
    InsnClass.FDIV: "fdiv_latency",
}


@dataclass
class CoreConfig:
    """Microarchitectural parameters of the host core."""

    # Functional-unit result latencies (cycles from issue).  The FP
    # numbers are T1-flavoured: the prototype's shared, unpipelined FFU
    # makes every scalar FP op cost ~10+ cycles, which is a large part of
    # why DySER's fused datapaths win so much on FP kernels.
    alu_latency: int = 1
    mul_latency: int = 7
    div_latency: int = 40
    fpu_latency: int = 12
    fdiv_latency: int = 38
    fpu_pipelined: bool = False        # T1's shared FPU is effectively not
    branch_taken_penalty: int = 4      # no prediction, late resolution
    icache: CacheConfig = field(default_factory=icache_config)
    dcache: CacheConfig = field(default_factory=dcache_config)
    #: Optional unified L2 behind both L1s (None = L1 misses go straight
    #: to DRAM at the L1's miss latency — the default calibration).
    l2: CacheConfig | None = None
    l1_to_l2_latency: int = 2
    # DySER integration.
    has_dyser: bool = True
    vector_port_words_per_cycle: int = 2   # port fill rate for dldv/dstv
    # Safety valve against runaway programs.
    max_instructions: int = 200_000_000

    def latency_for(self, iclass: InsnClass) -> int:
        name = _LATENCY_FIELD.get(iclass)
        return 1 if name is None else getattr(self, name)


def _runaway_error(limit: int, program: Program) -> SimulationError:
    return SimulationError(
        f"instruction limit {limit} exceeded "
        f"(runaway loop in {program.name}?)"
    )


class CacheHierarchy:
    """L1 instruction and data caches over an optional unified L2.

    The one cache model every core inherits; each sets ``config``,
    ``icache``, ``dcache`` and ``l2`` itself.
    """

    config: CoreConfig
    icache: Cache
    dcache: Cache
    l2: Cache | None

    def _data_access(self, addr: int, is_write: bool = False) -> int:
        """One data access through L1 (and the optional L2)."""
        lat = self.dcache.access(addr, is_write)
        if self.l2 is None or is_write:
            # Write-through traffic is absorbed by the store buffer.
            return lat
        if lat <= self.config.dcache.hit_latency:
            return lat
        return (self.config.dcache.hit_latency
                + self.config.l1_to_l2_latency
                + self.l2.access(addr))

    def _fetch_access(self, addr: int) -> int:
        lat = self.icache.access(addr)
        if self.l2 is None or lat <= self.config.icache.hit_latency:
            return lat
        return (self.config.icache.hit_latency
                + self.config.l1_to_l2_latency
                + self.l2.access(addr))

    def _vector_cache_access(self, base: int, count: int, is_write: bool) -> int:
        """Access every line a vector transfer touches, at the transfer's
        first word in that line; return max latency."""
        line = self.config.dcache.line_bytes
        lat = self.config.dcache.hit_latency
        addr = base
        last = base + (count - 1) * WORD_BYTES
        while addr <= last:
            lat = max(lat, self._data_access(addr, is_write=is_write))
            # The first word at or past the next line's start.
            gap = (addr // line + 1) * line - addr
            addr += ((gap - 1) // WORD_BYTES + 1) * WORD_BYTES
        return lat


class Core(CacheHierarchy):
    """One host core, optionally with a DySER device attached.

    Usage::

        core = Core(program, memory, dyser=device)
        stats = core.run()
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
        if not program.is_linked:
            program.link()
        program.validate()
        self.program = program
        self.memory = memory
        self.config = config or CoreConfig()
        self.dyser = dyser
        #: The values crossing the fabric and ``dyser``'s cycles.
        self.dyser_values: DyserValues | None = None
        self.dyser_cycles: DyserCycles | None = None
        if dyser is not None:
            if not self.config.has_dyser:
                raise SimulationError(
                    "DySER device attached to a core configured without one"
                )
            dyser.register_program(program)
            self.dyser_values = DyserValues(dyser.configs)
            self.dyser_cycles = DyserCycles([dyser])
        self.iregs = IntRegFile()
        self.fregs = FpRegFile()
        self.icache = Cache(self.config.icache)
        self.dcache = Cache(self.config.dcache)
        self.l2 = Cache(self.config.l2) if self.config.l2 else None
        self.stats = ExecStats()
        #: Structured event stream (:mod:`repro.obs.events`) or None.
        #: Every emit site is guarded, so a None stream costs nothing.
        self.events = events
        self.trace_instructions = trace_instructions

    # -- helpers -------------------------------------------------------------

    def set_args(self, int_args=(), fp_args=()) -> None:
        """Install kernel arguments per the calling convention."""
        if len(int_args) > len(ARG_INT_REGS) or len(fp_args) > len(ARG_FP_REGS):
            raise SimulationError("too many kernel arguments")
        for reg, value in zip(ARG_INT_REGS, int_args, strict=False):
            self.iregs.write(reg, int(value))
        for reg, value in zip(ARG_FP_REGS, fp_args, strict=False):
            self.fregs.write(reg, float(value))

    # -- hooks (the static cost walker overrides them) --------------------------

    def _issue_hooks(self, table: tuple) -> list | None:
        """Hook: per-pc callables ``run`` calls before an instruction
        issues (None entries skipped), or None for none at all."""
        return None

    def _limit_error(self) -> Exception:
        """Hook: the fault raised once ``config.max_instructions``
        instructions have executed."""
        return _runaway_error(self.config.max_instructions, self.program)

    def _op_fault(self, insn) -> None:
        """Hook, called while ``insn``'s operator raises: re-raise it.
        The walker instead notes the fault and returns None, an unknown
        result."""
        raise

    # Values on this core are always known, so it never calls these two.

    def _guess_branch(self, pc: int, insn) -> bool:
        """Hook: whether a branch with an unknown condition is taken."""
        raise SimulationError(f"unknown branch condition at pc {pc}")

    def _unresolved(self, access: str) -> None:
        """Hook: ``access`` (``load``, ``store``, ``dyser load`` or
        ``dyser store``) has an unknown base address."""
        raise SimulationError(f"{access} from an unknown address")

    def _init_config(self, config_id: int, t: int) -> int:
        """Hook: activate a DySER configuration at cycle ``t``; returns
        the cycle the fabric is ready."""
        self.dyser_values.init_config(config_id)
        self.dyser_cycles.t[0] = t
        self.dyser_cycles.init_config(config_id)
        return self.dyser_cycles.t[0]

    # -- the simulator loop ----------------------------------------------------

    def run(self) -> ExecStats:
        if self.program.spill_words:
            spill_base = self.memory.alloc(self.program.spill_words)
            self.iregs.write(28, spill_base)
        cfg = self.config
        program = self.program.instructions
        table = decode_table(program, cfg)
        kinds, isrcs, fsrcs, imms, lats, funcs, occs, int_dest = table
        hooks = self._issue_hooks(table)
        waits = [(_LSU, *srcs) if kind in _LSU_KINDS else srcs
                 for kind, srcs in zip(kinds, isrcs, strict=True)]
        mem = self.memory
        ir, fr = self.iregs._regs, self.fregs._regs
        stats = self.stats
        stall = stats.stall_cycles
        insns_per_line = max(1, cfg.icache.line_bytes // _INSN_BYTES)
        icache_hit = cfg.icache.hit_latency
        dcache_hit = cfg.dcache.hit_latency
        penalty = cfg.branch_taken_penalty
        fpu_pipelined = cfg.fpu_pipelined
        limit = cfg.max_instructions
        # Executions per pc, and pcs in first-execution order: folded
        # into the instruction mix once the loop ends.
        counts = [0] * len(program)
        first: list[int] = []

        int_ready = [0] * 33        # the integer registers, then _LSU
        fp_ready = [0] * 32
        int_cause: list[StallCause | None] = [None] * 33
        fp_cause: list[StallCause | None] = [None] * 32

        t = 0                   # next issue slot
        pc = 0
        fpu_free = 0
        fabric_ready = 0
        self._store_queue_busy = 0
        cur_fetch_line = -1
        executed = 0
        ev = self.events
        ev_insn = ev if (ev is not None and self.trace_instructions) \
            else None

        def charge(cause: StallCause, amount: int, ts: int, pc: int) -> None:
            stall[cause] += amount
            if ev is not None:
                ev.complete(cause.value, "cpu.stall", ts, amount, pc=pc)

        try:
            while True:
                if executed >= limit:
                    raise self._limit_error()
                try:
                    kind = kinds[pc]
                except IndexError:
                    raise SimulationError(
                        f"pc {pc} fell off the end of {self.program.name}"
                    ) from None
                insn = program[pc]
                if hooks is not None and (hook := hooks[pc]) is not None:
                    hook()

                # Fetch: charge an I$ bubble when moving to a new line.
                line = pc // insns_per_line
                if line != cur_fetch_line:
                    lat = self._fetch_access(pc * _INSN_BYTES)
                    cur_fetch_line = line
                    if lat > icache_hit:
                        charge(StallCause.FETCH_MISS, lat, t, pc)
                        t += lat
                n = counts[pc]
                if not n:
                    first.append(pc)
                counts[pc] = n + 1
                executed += 1
                if ev_insn is not None:
                    t_issue = t
                next_pc = pc + 1
                rd = insn.rd

                # Issue floor: the LSU for memory ops, then the integer
                # and FP sources (an FP source's stall cause outranks an
                # int's).
                issue = t
                cause = None
                for reg in waits[pc]:
                    if int_ready[reg] > issue:
                        issue, cause = int_ready[reg], int_cause[reg]
                if fsrcs[pc]:
                    fp_wait = None
                    for reg in fsrcs[pc]:
                        if fp_ready[reg] > issue:
                            issue, fp_wait = fp_ready[reg], fp_cause[reg]
                    cause = fp_wait or cause
                if kind == K_FPU and not fpu_pipelined and fpu_free > issue:
                    charge(StallCause.STRUCTURAL_FPU, fpu_free - issue, t, pc)
                    if issue > t:
                        charge(cause or StallCause.DATA_HAZARD, issue - t,
                               t, pc)
                    issue = fpu_free
                elif issue > t:
                    charge(cause or StallCause.DATA_HAZARD, issue - t, t, pc)

                # Values are ``int | float | None``: None (unknown) only
                # ever occurs on the static walker.
                if kind <= K_SEL:
                    srcs = isrcs[pc]
                    a = ir[srcs[0]]
                    b = imms[pc]
                    if b is None:
                        b = ir[srcs[1]]
                    if a is None:
                        value = None
                    elif kind == K_SEL:
                        value = b if a else ir[srcs[2]]
                    elif b is None:
                        value = None
                    else:
                        try:
                            value = funcs[pc](a, b)
                        except Exception:
                            value = self._op_fault(insn)
                    if rd:
                        ir[rd] = value
                        int_ready[rd] = issue + lats[pc]
                        int_cause[rd] = None
                    t = issue + 1

                elif kind == K_BRANCH:
                    a, b = ir[insn.rs1], ir[insn.rs2]
                    if a is None or b is None:
                        taken = self._guess_branch(pc, insn)
                    else:
                        taken = funcs[pc](a, b)
                    if taken:
                        stats.branches_taken += 1
                        next_pc = insn.target_index
                        if penalty > 0:
                            charge(StallCause.BRANCH, penalty, t, pc)
                        if ev is not None:
                            ev.instant("branch_redirect", "cpu", issue,
                                       pc=pc, target=next_pc)
                        t = issue + 1 + penalty
                    else:
                        t = issue + 1

                elif kind <= K_FLD:             # K_LD or K_FLD
                    base = ir[insn.rs1]
                    if base is None:
                        self._unresolved("load")
                        lat, value = dcache_hit, None
                    else:
                        addr = base + imms[pc]
                        lat = self._data_access(addr)
                        value = mem.load_word(addr)
                    why = StallCause.LOAD_MISS if lat > dcache_hit else None
                    if kind == K_LD:
                        # Converted (and faulting) even when rd is r0.
                        if value is not None:
                            value = wrap64(int(value))
                        if rd:
                            ir[rd] = value
                            int_ready[rd] = issue + lat
                            int_cause[rd] = why
                    else:
                        fr[rd] = None if value is None else float(value)
                        fp_ready[rd] = issue + lat
                        fp_cause[rd] = why
                    int_ready[_LSU] = t = issue + 1

                elif kind == K_FPU:
                    ready = fpu_free = issue + lats[pc]
                    args = [ir[r] for r in isrcs[pc]]
                    args += [fr[r] for r in fsrcs[pc]]
                    # fsel needs only its condition; the arm it picks may
                    # be unknown.
                    if None in args and (args[0] is None
                                         or insn.op is not Opcode.FSEL):
                        value = None
                    else:
                        try:
                            value = funcs[pc](*args)
                        except Exception:
                            value = self._op_fault(insn)
                    if int_dest[pc]:
                        if rd:
                            ir[rd] = value
                            int_ready[rd] = ready
                            int_cause[rd] = None
                    else:
                        fr[rd] = None if value is None else float(value)
                        fp_ready[rd] = ready
                        fp_cause[rd] = None
                    t = issue + 1

                elif kind == K_DYSER:
                    t, fabric_ready = self._exec_dyser(
                        insn, t, fabric_ready,
                        int_ready, int_cause, fp_ready, fp_cause)
                    if occs[pc] is not None:
                        # Vector transfers hold the LSU for their
                        # occupancy.
                        int_ready[_LSU] = t - 1 + occs[pc]

                elif kind == K_MOV or kind == K_LI:
                    if rd:
                        ir[rd] = ir[insn.rs1] if kind == K_MOV else imms[pc]
                        int_ready[rd] = issue + 1
                        int_cause[rd] = None
                    t = issue + 1

                elif kind <= K_FST:             # K_ST or K_FST
                    base = ir[insn.rs1]
                    if base is None:
                        self._unresolved("store")
                    else:
                        addr = base + imms[pc]
                        self._data_access(addr, is_write=True)
                        mem.store_word(
                            addr, (ir if kind == K_ST else fr)[insn.rs2])
                    int_ready[_LSU] = t = issue + 1

                elif kind == K_JUMP:
                    next_pc = insn.target_index
                    stats.branches_taken += 1
                    if penalty > 0:
                        charge(StallCause.BRANCH, penalty, t, pc)
                    if ev is not None:
                        ev.instant("branch_redirect", "cpu", t,
                                   pc=pc, target=next_pc)
                    t = t + 1 + penalty

                elif kind == K_FMOV or kind == K_FLI:
                    fr[rd] = fr[insn.rs1] if kind == K_FMOV else imms[pc]
                    fp_ready[rd] = issue + 1
                    fp_cause[rd] = None
                    t = issue + 1

                elif kind == K_NOP:
                    t += 1
                elif kind == K_HALT:
                    # Drain the decoupled DySER store queue before
                    # retiring.
                    t = max(t, self._store_queue_busy) + 1
                    break
                elif kind == K_BAD_IMM:
                    raise funcs[pc]
                else:  # pragma: no cover - every opcode has a kind
                    raise SimulationError(f"unhandled opcode {insn.op}")

                if ev_insn is not None:
                    ev_insn.complete(insn.op.value, "cpu.issue", t_issue,
                                     max(1, t - t_issue), pc=pc)
                pc = next_pc
        finally:
            # First execution order of each class, as counting per
            # instruction would give.
            mix = stats.insn_mix
            for p in first:
                mix[program[p].info.iclass] += counts[p]
            stats.instructions += executed

        if ev_insn is not None:
            ev_insn.complete(insn.op.value, "cpu.issue", t_issue,
                             max(1, t - t_issue), pc=pc)
        if ev is not None:
            ev.complete("run", "cpu", 0, t,
                        instructions=stats.instructions)
        stats.cycles = t
        self._finalize_stats()
        return stats

    # -- DySER op execution --------------------------------------------------

    def _exec_dyser(self, insn, t, fabric_ready,
                    int_ready, int_cause, fp_ready, fp_cause):
        """Execute one DySER-extension instruction.

        Returns the new issue cursor and the cycle the fabric is ready.
        """
        if self.dyser is None:
            raise SimulationError(
                f"{insn.op.value} executed on a core without DySER"
            )
        O = Opcode
        cfg = self.config
        dyv, cyc = self.dyser_values, self.dyser_cycles
        ct = cyc.t
        stats = self.stats
        op = insn.op
        ev = self.events

        def charge(cause, amount):
            if amount > 0:
                stats.stall_cycles[cause] += amount
                if ev is not None:
                    ev.complete(cause.value, "cpu.stall", t, amount,
                                op=op.value)

        if op is O.DINIT:
            ready = self._init_config(int(insn.imm), t)
            charge(StallCause.DYSER_CONFIG, ready - t)
            return ready + 1, ready

        if op in (O.DSEND, O.DFSEND):
            ready, causes, regs = ((int_ready, int_cause, self.iregs)
                                   if op is O.DSEND
                                   else (fp_ready, fp_cause, self.fregs))
            src = insn.rs1
            issue, cause = ((ready[src], causes[src]) if ready[src] > t
                            else (t, None))
            value = regs.read(src)
            charge(cause or StallCause.DATA_HAZARD, issue - t)
            if fabric_ready > issue:
                charge(StallCause.DYSER_CONFIG, fabric_ready - issue)
                issue = fabric_ready
            ct[0] = issue
            cyc.send(insn.port, dyv.send(insn.port, value), dyv.fired)
            charge(StallCause.DYSER_SEND, ct[0] - issue)
            return ct[0] + 1, fabric_ready

        if op in (O.DRECV, O.DFRECV):
            issue = max(t, fabric_ready)
            charge(StallCause.DYSER_CONFIG, issue - t)
            value = dyv.recv(insn.port)
            ct[0] = issue
            cyc.recv(insn.port)
            done = ct[0]
            charge(StallCause.DYSER_RECV, done - issue)
            if op is O.DRECV:
                # Converted (and faulting) even when rd is r0.
                if value is not None:
                    value = wrap64(int(value))
                if insn.rd:
                    self.iregs._regs[insn.rd] = value
                    int_ready[insn.rd] = done
            else:
                self.fregs._regs[insn.rd] = (None if value is None
                                             else float(value))
                fp_ready[insn.rd] = done
            # rd is ready before the next issue slot, so it needs no
            # stall-cause tag.
            return done + 1, fabric_ready

        # Memory transfers: wait for the LSU, then the base address.
        issue, cause = t, None
        for reg in (_LSU, insn.rs1):
            if int_ready[reg] > issue:
                issue, cause = int_ready[reg], int_cause[reg]
        lsu_free = int_ready[_LSU]
        if lsu_free > t and issue == lsu_free:
            cause = cause or StallCause.LSU_BUSY
        charge(cause or StallCause.DATA_HAZARD, issue - t)
        if fabric_ready > issue:
            charge(StallCause.DYSER_CONFIG, fabric_ready - issue)
            issue = fabric_ready
        base = self.iregs.read(insn.rs1)
        if op in (O.DLD, O.DFLD, O.DST, O.DFST):    # one word, at base + imm
            count = 1
            if base is not None:
                base += int(insn.imm)
        else:
            count = int(insn.imm)
        wide = op in (O.DLDW, O.DFLDW, O.DSTW, O.DFSTW)
        cast = float if op in (O.DFLD, O.DFLDV, O.DFLDW, O.DFST, O.DFSTV,
                               O.DFSTW) else int

        if op in (O.DLD, O.DFLD, O.DLDV, O.DFLDV, O.DLDW, O.DFLDW):
            if base is None:
                self._unresolved("dyser load")
                lat = cfg.dcache.hit_latency
                values = [None] * count
            else:
                lat = (self._data_access(base) if op in (O.DLD, O.DFLD)
                       else self._vector_cache_access(base, count, False))
                values = self.memory.load_block(base, count)
            rate = max(1, cfg.vector_port_words_per_cycle)
            for i, value in enumerate(values):
                if value is not None:
                    value = cast(value)
                port = insn.port + i if wide else insn.port
                ct[0] = arrive = issue + lat + i // rate
                cyc.send(port, dyv.send(port, value), dyv.fired)
                charge(StallCause.DYSER_SEND, ct[0] - arrive)
            return issue + 1, fabric_ready

        # Port-to-memory stores are *decoupled*: the instruction retires
        # once it enters the store queue; the LSU drains the output port
        # when the data arrives (the prototype's microarchitecture — the
        # pipeline never waits on them).
        ct[0] = issue
        values = []
        for i in range(count):
            port = insn.port + i if wide else insn.port
            values.append(dyv.recv(port))
            cyc.recv(port)
        done = ct[0]
        if base is None:
            self._unresolved("dyser store")
        else:
            self._vector_cache_access(base, count, is_write=True)
            self.memory.store_block(
                base, [None if v is None else cast(v) for v in values])
        self._store_queue_busy = max(self._store_queue_busy, done)
        return issue + 1, fabric_ready

    # -- wrap-up ----------------------------------------------------------------

    def _finalize_stats(self) -> None:
        stats = self.stats
        stats.dcache_hits = self.dcache.stats.hits + self.dcache.stats.write_hits
        stats.dcache_misses = (
            self.dcache.stats.misses + self.dcache.stats.write_misses
        )
        stats.icache_misses = self.icache.stats.misses
        if self.dyser is not None:
            self.dyser_cycles.finalize()
            dstats = self.dyser.stats
            stats.dyser_invocations = dstats.invocations
            stats.dyser_values_sent = dstats.values_sent
            stats.dyser_values_received = dstats.values_received
            stats.dyser_config_loads = dstats.config_loads
            stats.dyser_config_hits = dstats.config_hits
            stats.dyser_fu_ops = dstats.fu_ops
            stats.dyser_switch_hops = dstats.switch_hops
            stats.dyser_config_words = dstats.config_words_loaded
            # Finer-grained counters ride the open-ended metrics
            # registry instead of growing ExecStats' schema.
            metrics = stats.metrics
            if dstats.config_stall_cycles:
                metrics.counter(
                    "dyser.config.stall_cycles",
                    "cycles the pipeline waited on configuration loads",
                ).inc(dstats.config_stall_cycles)
            if dstats.unresolved_flow_stalls:
                metrics.counter(
                    "dyser.flow.unresolved_stalls",
                    "port flow-control waits with no resolution cycle",
                ).inc(dstats.unresolved_flow_stalls)
            for port, cyc in sorted(self.dyser.send_stall_cycles.items()):
                metrics.counter(
                    f"dyser.port.in{port}.stall_cycles",
                    "send cycles lost to input FIFO backpressure",
                ).inc(cyc)
            for port, cyc in sorted(self.dyser.recv_stall_cycles.items()):
                metrics.counter(
                    f"dyser.port.out{port}.stall_cycles",
                    "recv cycles spent waiting on fabric outputs",
                ).inc(cyc)
