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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.cpu.cache import Cache, CacheConfig, dcache_config, icache_config
from repro.cpu.memory import WORD_BYTES, Memory
from repro.cpu.regfile import FpRegFile, IntRegFile, wrap64
from repro.cpu.statistics import ExecStats, StallCause
from repro.dyser.interface import DyserDevice
from repro.dyser.ops import int_div, int_rem
from repro.isa.opcodes import InsnClass, Opcode
from repro.isa.program import Program

_INSN_BYTES = 4

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
    #: Record the first N executed instructions as (cycle, pc, text)
    #: tuples on ``core.trace`` (0 disables; tracing is free when off).
    trace_limit: int = 0

    def latency_for(self, iclass: InsnClass) -> int:
        name = _LATENCY_FIELD.get(iclass)
        return 1 if name is None else getattr(self, name)


class Core:
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
        #: Execution trace (populated when config.trace_limit > 0).
        self.trace: list[tuple[int, int, str]] = []
        #: Structured event stream (:mod:`repro.obs.events`) or None.
        #: Every emit site is guarded, so a None stream costs nothing.
        self.events = events
        self.trace_instructions = trace_instructions

    # -- helpers -------------------------------------------------------------

    def set_args(self, int_args=(), fp_args=()) -> None:
        """Install kernel arguments per the calling convention."""
        from repro.isa.instruction import ARG_FP_REGS, ARG_INT_REGS

        if len(int_args) > len(ARG_INT_REGS) or len(fp_args) > len(ARG_FP_REGS):
            raise SimulationError("too many kernel arguments")
        for reg, value in zip(ARG_INT_REGS, int_args, strict=False):
            self.iregs.write(reg, int(value))
        for reg, value in zip(ARG_FP_REGS, fp_args, strict=False):
            self.fregs.write(reg, float(value))


    # -- cache hierarchy -------------------------------------------------

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

    # -- the simulator loop ----------------------------------------------------

    def run(self) -> ExecStats:
        if self.program.spill_words:
            spill_base = self.memory.alloc(self.program.spill_words)
            self.iregs.write(28, spill_base)
        cfg = self.config
        program = self.program.instructions
        mem = self.memory
        iregs, fregs = self.iregs, self.fregs
        stats = self.stats
        insns_per_line = max(1, cfg.icache.line_bytes // _INSN_BYTES)

        int_ready = [0] * 32
        fp_ready = [0] * 32
        int_cause: list[StallCause | None] = [None] * 32
        fp_cause: list[StallCause | None] = [None] * 32

        t = 0                   # next issue slot
        pc = 0
        fpu_free = 0
        lsu_free = 0
        fabric_ready = 0
        self._store_queue_busy = 0
        cur_fetch_line = -1
        executed = 0
        O = Opcode
        ev = self.events
        ev_insn = ev if (ev is not None and self.trace_instructions) \
            else None

        def charge(cause: StallCause, amount: int) -> None:
            if amount > 0:
                stats.stall_cycles[cause] += amount
                if ev is not None:
                    ev.complete(cause.value, "cpu.stall", t, amount, pc=pc)

        def src_wait(regs_ready, regs_cause, indices, base: int):
            """Return (issue floor, dominating cause) for source regs."""
            floor, cause = base, None
            for idx in indices:
                r = regs_ready[idx]
                if r > floor:
                    floor, cause = r, regs_cause[idx]
            return floor, cause

        while True:
            if executed >= cfg.max_instructions:
                raise SimulationError(
                    f"instruction limit {cfg.max_instructions} exceeded "
                    f"(runaway loop in {self.program.name}?)"
                )
            try:
                insn = program[pc]
            except IndexError:
                raise SimulationError(
                    f"pc {pc} fell off the end of {self.program.name}"
                ) from None

            # Fetch: charge an I$ bubble when moving to a new line.
            line = pc // insns_per_line
            if line != cur_fetch_line:
                lat = self._fetch_access(pc * _INSN_BYTES)
                cur_fetch_line = line
                if lat > cfg.icache.hit_latency:
                    charge(StallCause.FETCH_MISS, lat)
                    t += lat
            op = insn.op
            iclass = insn.info.iclass
            stats.count(iclass)
            executed += 1
            if cfg.trace_limit and len(self.trace) < cfg.trace_limit:
                self.trace.append((t, pc, insn.text()))
            next_pc = pc + 1
            t_issue = t

            # ---------------- integer ALU -------------------------------
            if iclass in (InsnClass.ALU, InsnClass.MUL, InsnClass.DIV):
                if op is O.SEL:
                    srcs = (insn.rs1, insn.rs2, insn.rs3)
                elif insn.imm is not None and op.value.endswith("i"):
                    srcs = (insn.rs1,)
                else:
                    srcs = (insn.rs1, insn.rs2)
                issue, cause = src_wait(int_ready, int_cause, srcs, t)
                charge(cause or StallCause.DATA_HAZARD, issue - t)
                lat = cfg.latency_for(iclass)
                value = self._eval_int(insn)
                iregs.write(insn.rd, value)
                if insn.rd != 0:
                    int_ready[insn.rd] = issue + lat
                    int_cause[insn.rd] = None
                t = issue + 1

            # ---------------- moves / immediates ------------------------
            elif iclass is InsnClass.MOVE:
                if op is O.LI:
                    iregs.write(insn.rd, int(insn.imm))
                    self._retire_int(insn.rd, t + 1, int_ready, int_cause)
                    t += 1
                elif op is O.MOV:
                    issue, cause = src_wait(
                        int_ready, int_cause, (insn.rs1,), t)
                    charge(cause or StallCause.DATA_HAZARD, issue - t)
                    iregs.write(insn.rd, iregs.read(insn.rs1))
                    self._retire_int(insn.rd, issue + 1, int_ready, int_cause)
                    t = issue + 1
                elif op is O.FLI:
                    fregs.write(insn.rd, float(insn.imm))
                    fp_ready[insn.rd] = t + 1
                    fp_cause[insn.rd] = None
                    t += 1
                else:  # FMOV
                    issue, cause = src_wait(fp_ready, fp_cause, (insn.rs1,), t)
                    charge(cause or StallCause.DATA_HAZARD, issue - t)
                    fregs.write(insn.rd, fregs.read(insn.rs1))
                    fp_ready[insn.rd] = issue + 1
                    fp_cause[insn.rd] = None
                    t = issue + 1

            # ---------------- floating point ----------------------------
            elif iclass in (InsnClass.FPU, InsnClass.FDIV):
                int_srcs: tuple[int, ...] = ()
                fp_srcs: tuple[int, ...] = ()
                if op is O.I2F:
                    int_srcs = (insn.rs1,)
                elif op is O.F2I:
                    fp_srcs = (insn.rs1,)
                elif op in (O.FSQRT, O.FNEG, O.FABS):
                    fp_srcs = (insn.rs1,)
                elif op in (O.FLT, O.FLE, O.FEQ):
                    fp_srcs = (insn.rs1, insn.rs2)
                elif op is O.FSEL:
                    int_srcs = (insn.rs1,)
                    fp_srcs = (insn.rs2, insn.rs3)
                else:
                    fp_srcs = (insn.rs1, insn.rs2)
                issue, cause1 = src_wait(int_ready, int_cause, int_srcs, t)
                issue, cause2 = src_wait(fp_ready, fp_cause, fp_srcs, issue)
                cause = cause2 or cause1
                if not cfg.fpu_pipelined and fpu_free > issue:
                    charge(StallCause.STRUCTURAL_FPU, fpu_free - issue)
                    charge(cause or StallCause.DATA_HAZARD, issue - t)
                    issue = fpu_free
                else:
                    charge(cause or StallCause.DATA_HAZARD, issue - t)
                lat = cfg.latency_for(iclass)
                fpu_free = issue + lat
                self._eval_fp(insn, issue + lat, fp_ready, fp_cause,
                              int_ready, int_cause)
                t = issue + 1

            # ---------------- memory ------------------------------------
            elif iclass is InsnClass.LOAD:
                issue, cause = src_wait(int_ready, int_cause, (insn.rs1,),
                                        max(t, lsu_free))
                charge(cause or StallCause.DATA_HAZARD, issue - t)
                addr = iregs.read(insn.rs1) + int(insn.imm)
                lat = self._data_access(addr)
                value = mem.load_word(addr)
                missed = lat > cfg.dcache.hit_latency
                if op is O.LD:
                    iregs.write(insn.rd, int(value))
                    self._retire_int(
                        insn.rd, issue + lat, int_ready, int_cause,
                        StallCause.LOAD_MISS if missed else None)
                else:
                    fregs.write(insn.rd, float(value))
                    fp_ready[insn.rd] = issue + lat
                    fp_cause[insn.rd] = (
                        StallCause.LOAD_MISS if missed else None)
                lsu_free = issue + 1
                t = issue + 1

            elif iclass is InsnClass.STORE:
                if op is O.ST:
                    issue, cause = src_wait(
                        int_ready, int_cause, (insn.rs1, insn.rs2),
                        max(t, lsu_free))
                    value: int | float = iregs.read(insn.rs2)
                else:
                    issue, cause = src_wait(
                        int_ready, int_cause, (insn.rs1,), max(t, lsu_free))
                    issue, c2 = src_wait(fp_ready, fp_cause, (insn.rs2,),
                                         issue)
                    cause = c2 or cause
                    value = fregs.read(insn.rs2)
                charge(cause or StallCause.DATA_HAZARD, issue - t)
                addr = iregs.read(insn.rs1) + int(insn.imm)
                self._data_access(addr, is_write=True)
                mem.store_word(addr, value)
                lsu_free = issue + 1
                t = issue + 1

            # ---------------- control flow --------------------------------
            elif iclass is InsnClass.BRANCH:
                issue, cause = src_wait(
                    int_ready, int_cause, (insn.rs1, insn.rs2), t)
                charge(cause or StallCause.DATA_HAZARD, issue - t)
                taken = self._branch_taken(insn)
                if taken:
                    stats.branches_taken += 1
                    next_pc = insn.target_index
                    charge(StallCause.BRANCH, cfg.branch_taken_penalty)
                    if ev is not None:
                        ev.instant("branch_redirect", "cpu", issue,
                                   pc=pc, target=next_pc)
                    t = issue + 1 + cfg.branch_taken_penalty
                else:
                    t = issue + 1

            elif iclass is InsnClass.JUMP:
                next_pc = insn.target_index
                stats.branches_taken += 1
                charge(StallCause.BRANCH, cfg.branch_taken_penalty)
                if ev is not None:
                    ev.instant("branch_redirect", "cpu", t,
                               pc=pc, target=next_pc)
                t = t + 1 + cfg.branch_taken_penalty

            # ---------------- DySER extension -----------------------------
            elif insn.info.is_dyser:
                t, next_fabric_ready = self._exec_dyser(
                    insn, t, lsu_free, fabric_ready,
                    int_ready, int_cause, fp_ready, fp_cause)
                if next_fabric_ready is not None:
                    fabric_ready = next_fabric_ready
                if insn.info.is_memory:
                    lsu_free = self._lsu_after(insn, t)

            # ---------------- system --------------------------------------
            elif op is O.NOP:
                t += 1
            elif op is O.HALT:
                # Drain the decoupled DySER store queue before retiring.
                t = max(t, self._store_queue_busy) + 1
                break
            else:  # pragma: no cover - every opcode is handled above
                raise SimulationError(f"unhandled opcode {op}")

            if ev_insn is not None:
                ev_insn.complete(op.value, "cpu.issue", t_issue,
                                 max(1, t - t_issue), pc=pc)
            pc = next_pc

        if ev_insn is not None:
            ev_insn.complete(op.value, "cpu.issue", t_issue,
                             max(1, t - t_issue), pc=pc)
        if ev is not None:
            ev.complete("run", "cpu", 0, t,
                        instructions=stats.instructions)
        stats.cycles = t
        self._finalize_stats()
        return stats

    # -- functional evaluation helpers -------------------------------------

    def _retire_int(self, rd, ready, int_ready, int_cause, cause=None):
        if rd != 0:
            int_ready[rd] = ready
            int_cause[rd] = cause

    def _eval_int(self, insn) -> int:
        O = Opcode
        r = self.iregs.read
        a = r(insn.rs1) if insn.rs1 is not None else 0
        op = insn.op
        if op is O.SEL:
            return r(insn.rs2) if a else r(insn.rs3)
        b = int(insn.imm) if insn.imm is not None else (
            r(insn.rs2) if insn.rs2 is not None else 0)
        if op in (O.ADD, O.ADDI):
            return a + b
        if op is O.SUB:
            return a - b
        if op in (O.MUL, O.MULI):
            return a * b
        if op is O.DIV:
            return int_div(a, b)
        if op is O.REM:
            return int_rem(a, b)
        if op in (O.AND, O.ANDI):
            return a & b
        if op in (O.OR, O.ORI):
            return a | b
        if op in (O.XOR, O.XORI):
            return a ^ b
        if op in (O.SLL, O.SLLI):
            return a << (b & 63)
        if op in (O.SRL, O.SRLI):
            return (a & ((1 << 64) - 1)) >> (b & 63)
        if op in (O.SRA, O.SRAI):
            return a >> (b & 63)
        if op in (O.SLT, O.SLTI):
            return 1 if a < b else 0
        if op is O.SEQ:
            return 1 if a == b else 0
        if op is O.MIN:
            return min(a, b)
        if op is O.MAX:
            return max(a, b)
        raise SimulationError(f"unhandled int op {op}")  # pragma: no cover

    def _eval_fp(self, insn, ready, fp_ready, fp_cause, int_ready, int_cause):
        import math

        O = Opcode
        fr, ir = self.fregs.read, self.iregs.read
        op = insn.op
        if op in (O.FLT, O.FLE, O.FEQ, O.F2I):
            if op is O.FLT:
                value = 1 if fr(insn.rs1) < fr(insn.rs2) else 0
            elif op is O.FLE:
                value = 1 if fr(insn.rs1) <= fr(insn.rs2) else 0
            elif op is O.FEQ:
                value = 1 if fr(insn.rs1) == fr(insn.rs2) else 0
            else:
                value = wrap64(int(fr(insn.rs1)))
            self.iregs.write(insn.rd, value)
            self._retire_int(insn.rd, ready, int_ready, int_cause)
            return
        if op is O.I2F:
            result = float(ir(insn.rs1))
        elif op is O.FADD:
            result = fr(insn.rs1) + fr(insn.rs2)
        elif op is O.FSUB:
            result = fr(insn.rs1) - fr(insn.rs2)
        elif op is O.FMUL:
            result = fr(insn.rs1) * fr(insn.rs2)
        elif op is O.FDIV:
            b = fr(insn.rs2)
            result = fr(insn.rs1) / b if b else math.inf
        elif op is O.FSQRT:
            a = fr(insn.rs1)
            result = math.sqrt(a) if a >= 0.0 else math.nan
        elif op is O.FNEG:
            result = -fr(insn.rs1)
        elif op is O.FABS:
            result = abs(fr(insn.rs1))
        elif op is O.FMIN:
            result = min(fr(insn.rs1), fr(insn.rs2))
        elif op is O.FMAX:
            result = max(fr(insn.rs1), fr(insn.rs2))
        elif op is O.FSEL:
            result = fr(insn.rs2) if ir(insn.rs1) else fr(insn.rs3)
        else:  # pragma: no cover
            raise SimulationError(f"unhandled fp op {op}")
        self.fregs.write(insn.rd, result)
        fp_ready[insn.rd] = ready
        fp_cause[insn.rd] = None

    def _branch_taken(self, insn) -> bool:
        O = Opcode
        a, b = self.iregs.read(insn.rs1), self.iregs.read(insn.rs2)
        return {
            O.BEQ: a == b, O.BNE: a != b, O.BLT: a < b,
            O.BGE: a >= b, O.BLE: a <= b, O.BGT: a > b,
        }[insn.op]

    # -- DySER op execution --------------------------------------------------

    def _exec_dyser(self, insn, t, lsu_free, fabric_ready,
                    int_ready, int_cause, fp_ready, fp_cause):
        """Execute one DySER-extension instruction.

        Returns (new issue cursor, new fabric_ready or None).
        """
        if self.dyser is None:
            raise SimulationError(
                f"{insn.op.value} executed on a core without DySER"
            )
        O = Opcode
        cfg = self.config
        dev = self.dyser
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
            ready = dev.init_config(int(insn.imm), t)
            charge(StallCause.DYSER_CONFIG, ready - t)
            return ready + 1, ready

        if op in (O.DSEND, O.DFSEND):
            if op is O.DSEND:
                issue, cause = self._wait(int_ready, int_cause,
                                          (insn.rs1,), t)
                value: int | float = self.iregs.read(insn.rs1)
            else:
                issue, cause = self._wait(fp_ready, fp_cause, (insn.rs1,), t)
                value = self.fregs.read(insn.rs1)
            charge(cause or StallCause.DATA_HAZARD, issue - t)
            if fabric_ready > issue:
                charge(StallCause.DYSER_CONFIG, fabric_ready - issue)
                issue = fabric_ready
            done = dev.send(insn.port, value, issue)
            charge(StallCause.DYSER_SEND, done - issue)
            return max(issue, done) + 1, None

        if op in (O.DRECV, O.DFRECV):
            issue = max(t, fabric_ready)
            charge(StallCause.DYSER_CONFIG, issue - t)
            value, done = dev.recv(insn.port, issue)
            charge(StallCause.DYSER_RECV, done - issue)
            if op is O.DRECV:
                self.iregs.write(insn.rd, int(value))
                self._retire_int(insn.rd, done, int_ready, int_cause,
                                 StallCause.DYSER_RECV)
            else:
                self.fregs.write(insn.rd, float(value))
                fp_ready[insn.rd] = done
                fp_cause[insn.rd] = StallCause.DYSER_RECV
            return done + 1, None

        if op in (O.DLD, O.DFLD, O.DLDV, O.DFLDV, O.DLDW, O.DFLDW):
            issue, cause = self._wait(int_ready, int_cause, (insn.rs1,),
                                      max(t, lsu_free))
            if lsu_free > t and issue == lsu_free:
                cause = cause or StallCause.LSU_BUSY
            charge(cause or StallCause.DATA_HAZARD, issue - t)
            if fabric_ready > issue:
                charge(StallCause.DYSER_CONFIG, fabric_ready - issue)
                issue = fabric_ready
            base = self.iregs.read(insn.rs1)
            if op in (O.DLD, O.DFLD):
                addr = base + int(insn.imm)
                lat = self._data_access(addr)
                value = self.memory.load_word(addr)
                value = (float(value) if op is O.DFLD
                         else int(value))
                done = dev.send(insn.port, value, issue + lat)
                charge(StallCause.DYSER_SEND, done - (issue + lat))
            else:
                count = int(insn.imm)
                wide = op in (O.DLDW, O.DFLDW)
                fp = op in (O.DFLDV, O.DFLDW)
                lat = self._vector_cache_access(base, count, is_write=False)
                values = self.memory.load_block(base, count)
                rate = max(1, cfg.vector_port_words_per_cycle)
                for i, value in enumerate(values):
                    value = float(value) if fp else int(value)
                    arrive = issue + lat + i // rate
                    port = insn.port + i if wide else insn.port
                    done = dev.send(port, value, arrive)
                    charge(StallCause.DYSER_SEND, done - arrive)
            return issue + 1, None

        if op in (O.DST, O.DFST, O.DSTV, O.DFSTV, O.DSTW, O.DFSTW):
            issue, cause = self._wait(int_ready, int_cause, (insn.rs1,),
                                      max(t, lsu_free))
            if lsu_free > t and issue == lsu_free:
                cause = cause or StallCause.LSU_BUSY
            charge(cause or StallCause.DATA_HAZARD, issue - t)
            if fabric_ready > issue:
                charge(StallCause.DYSER_CONFIG, fabric_ready - issue)
                issue = fabric_ready
            # Port-to-memory stores are *decoupled*: the instruction
            # retires once it enters the store queue; the LSU drains the
            # output port when the data arrives (the prototype's
            # microarchitecture — the pipeline never waits on them).
            base = self.iregs.read(insn.rs1)
            if op in (O.DST, O.DFST):
                value, done = dev.recv(insn.port, issue)
                addr = base + int(insn.imm)
                self._data_access(addr, is_write=True)
                self.memory.store_word(
                    addr, float(value) if op is O.DFST else int(value))
                self._store_queue_busy = max(self._store_queue_busy, done)
                return issue + 1, None
            count = int(insn.imm)
            wide = op in (O.DSTW, O.DFSTW)
            done = issue
            values = []
            for i in range(count):
                port = insn.port + i if wide else insn.port
                value, done = dev.recv(port, done)
                values.append(value)
            self._vector_cache_access(base, count, is_write=True)
            cast = float if op in (O.DFSTV, O.DFSTW) else int
            self.memory.store_block(base, [cast(v) for v in values])
            self._store_queue_busy = max(self._store_queue_busy, done)
            return issue + 1, None

        raise SimulationError(f"unhandled DySER op {op}")  # pragma: no cover

    def _wait(self, regs_ready, regs_cause, indices, base):
        floor, cause = base, None
        for idx in indices:
            if regs_ready[idx] > floor:
                floor, cause = regs_ready[idx], regs_cause[idx]
        return floor, cause

    def _vector_cache_access(self, base: int, count: int, is_write: bool) -> int:
        """Access every line a vector transfer touches; return max latency."""
        line = self.config.dcache.line_bytes
        lat = self.config.dcache.hit_latency
        addr = base
        end = base + count * WORD_BYTES
        seen = set()
        while addr < end:
            key = addr // line
            if key not in seen:
                seen.add(key)
                lat = max(lat, self._data_access(addr, is_write=is_write))
            addr += WORD_BYTES
        return lat

    def _lsu_after(self, insn, t_next: int) -> int:
        """LSU occupancy after a DySER memory op (vector ops hold it)."""
        from repro.isa.opcodes import MULTI_OPS

        if insn.op in MULTI_OPS:
            count = int(insn.imm)
            rate = max(1, self.config.vector_port_words_per_cycle)
            return t_next - 1 + max(1, count // rate)
        return t_next

    # -- wrap-up ----------------------------------------------------------------

    def _finalize_stats(self) -> None:
        stats = self.stats
        stats.dcache_hits = self.dcache.stats.hits + self.dcache.stats.write_hits
        stats.dcache_misses = (
            self.dcache.stats.misses + self.dcache.stats.write_misses
        )
        stats.icache_misses = self.icache.stats.misses
        if self.dyser is not None:
            dstats = self.dyser.finalize()
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
