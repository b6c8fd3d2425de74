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
``run`` dispatches on the per-pc table of :mod:`repro.cpu.rules`, the
same table the static cost walker (:mod:`repro.analysis.perf`) reads,
and the fast and lockstep handlers bind the same source rules and
value templates.  This module owns the scoreboard, stall-cause
attribution, event emission, the DySER interface and the cache
hierarchy (:class:`CacheHierarchy`) every model shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.cpu.cache import Cache, CacheConfig, dcache_config, icache_config
from repro.cpu.memory import WORD_BYTES, Memory
from repro.cpu.regfile import FpRegFile, IntRegFile
from repro.cpu.rules import (
    FP_INT_DEST, K_BAD_IMM, K_BRANCH, K_DYSER, K_FLD, K_FLI, K_FMOV, K_FPU,
    K_FST, K_HALT, K_JUMP, K_LD, K_LI, K_MOV, K_NOP, K_SEL, K_ST,
    decode_table)
from repro.cpu.statistics import ExecStats, StallCause
from repro.dyser.interface import DyserDevice
from repro.isa.instruction import ARG_FP_REGS, ARG_INT_REGS
from repro.isa.opcodes import InsnClass, Opcode
from repro.isa.program import Program

_INSN_BYTES = 4

#: Kinds whose issue also waits for the LSU.
_LSU_KINDS = frozenset({K_LD, K_FLD, K_ST, K_FST})

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


def check_kernel_args(int_args, fp_args) -> None:
    """Refuse more kernel arguments than the calling convention has
    argument registers for."""
    if len(int_args) > len(ARG_INT_REGS) or len(fp_args) > len(ARG_FP_REGS):
        raise SimulationError("too many kernel arguments")


def _src_wait(ready, causes, indices, floor: int):
    """(issue floor, dominating stall cause) once every register in
    ``indices`` is ready."""
    cause = None
    for idx in indices:
        if ready[idx] > floor:
            floor, cause = ready[idx], causes[idx]
    return floor, cause


class CacheHierarchy:
    """L1 instruction and data caches over an optional unified L2.

    The one cache model every core and the static walker inherit; each
    sets ``config``, ``icache``, ``dcache`` and ``l2`` itself.
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
        check_kernel_args(int_args, fp_args)
        for reg, value in zip(ARG_INT_REGS, int_args, strict=False):
            self.iregs.write(reg, int(value))
        for reg, value in zip(ARG_FP_REGS, fp_args, strict=False):
            self.fregs.write(reg, float(value))

    # -- the simulator loop ----------------------------------------------------

    def run(self) -> ExecStats:
        if self.program.spill_words:
            spill_base = self.memory.alloc(self.program.spill_words)
            self.iregs.write(28, spill_base)
        cfg = self.config
        program = self.program.instructions
        kinds, isrcs, fsrcs, imms, lats, funcs, occs = decode_table(
            program, cfg)
        mem = self.memory
        iregs, fregs = self.iregs, self.fregs
        ir, fr = iregs._regs, fregs._regs
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
        ev = self.events
        ev_insn = ev if (ev is not None and self.trace_instructions) \
            else None

        def charge(cause: StallCause, amount: int) -> None:
            if amount > 0:
                stats.stall_cycles[cause] += amount
                if ev is not None:
                    ev.complete(cause.value, "cpu.stall", t, amount, pc=pc)

        while True:
            if executed >= cfg.max_instructions:
                raise SimulationError(
                    f"instruction limit {cfg.max_instructions} exceeded "
                    f"(runaway loop in {self.program.name}?)"
                )
            try:
                kind = kinds[pc]
            except IndexError:
                raise SimulationError(
                    f"pc {pc} fell off the end of {self.program.name}"
                ) from None
            insn = program[pc]

            # Fetch: charge an I$ bubble when moving to a new line.
            line = pc // insns_per_line
            if line != cur_fetch_line:
                lat = self._fetch_access(pc * _INSN_BYTES)
                cur_fetch_line = line
                if lat > cfg.icache.hit_latency:
                    charge(StallCause.FETCH_MISS, lat)
                    t += lat
            op = insn.op
            stats.count(insn.info.iclass)
            executed += 1
            if cfg.trace_limit and len(self.trace) < cfg.trace_limit:
                self.trace.append((t, pc, insn.text()))
            next_pc = pc + 1
            t_issue = t
            rd = insn.rd

            # Issue floor: the LSU for memory ops, then the integer and
            # FP sources (an FP source's stall cause outranks an int's).
            issue, cause = _src_wait(
                int_ready, int_cause, isrcs[pc],
                max(t, lsu_free) if kind in _LSU_KINDS else t)
            if fsrcs[pc]:
                issue, fp_wait = _src_wait(fp_ready, fp_cause, fsrcs[pc],
                                           issue)
                cause = fp_wait or cause
            if kind == K_FPU and not cfg.fpu_pipelined and fpu_free > issue:
                charge(StallCause.STRUCTURAL_FPU, fpu_free - issue)
                charge(cause or StallCause.DATA_HAZARD, issue - t)
                issue = fpu_free
            else:
                charge(cause or StallCause.DATA_HAZARD, issue - t)

            if kind <= K_SEL:
                srcs = isrcs[pc]
                if kind == K_SEL:
                    value = ir[srcs[1]] if ir[srcs[0]] else ir[srcs[2]]
                else:
                    b = imms[pc]
                    value = funcs[pc](ir[srcs[0]],
                                      ir[srcs[1]] if b is None else b)
                iregs.write(rd, value)
                self._retire_int(rd, issue + lats[pc], int_ready, int_cause)
                t = issue + 1

            elif kind == K_BRANCH:
                if funcs[pc](ir[insn.rs1], ir[insn.rs2]):
                    stats.branches_taken += 1
                    next_pc = insn.target_index
                    charge(StallCause.BRANCH, cfg.branch_taken_penalty)
                    if ev is not None:
                        ev.instant("branch_redirect", "cpu", issue,
                                   pc=pc, target=next_pc)
                    t = issue + 1 + cfg.branch_taken_penalty
                else:
                    t = issue + 1

            elif kind in (K_LD, K_FLD):
                addr = ir[insn.rs1] + imms[pc]
                lat = self._data_access(addr)
                value = mem.load_word(addr)
                why = (StallCause.LOAD_MISS
                       if lat > cfg.dcache.hit_latency else None)
                if kind == K_LD:
                    iregs.write(rd, int(value))
                    self._retire_int(rd, issue + lat, int_ready, int_cause,
                                     why)
                else:
                    fregs.write(rd, float(value))
                    fp_ready[rd] = issue + lat
                    fp_cause[rd] = why
                lsu_free = t = issue + 1

            elif kind == K_FPU:
                ready = fpu_free = issue + lats[pc]
                value = funcs[pc](*[ir[r] for r in isrcs[pc]],
                                  *[fr[r] for r in fsrcs[pc]])
                if op in FP_INT_DEST:
                    iregs.write(rd, value)
                    self._retire_int(rd, ready, int_ready, int_cause)
                else:
                    fregs.write(rd, value)
                    fp_ready[rd] = ready
                    fp_cause[rd] = None
                t = issue + 1

            elif kind == K_DYSER:
                t, next_fabric_ready = self._exec_dyser(
                    insn, t, lsu_free, fabric_ready,
                    int_ready, int_cause, fp_ready, fp_cause)
                if next_fabric_ready is not None:
                    fabric_ready = next_fabric_ready
                if occs[pc] is not None:
                    # Vector transfers hold the LSU for their occupancy.
                    lsu_free = t - 1 + occs[pc]

            elif kind == K_MOV:
                iregs.write(rd, ir[insn.rs1])
                self._retire_int(rd, issue + 1, int_ready, int_cause)
                t = issue + 1

            elif kind == K_LI:
                iregs.write(rd, imms[pc])
                self._retire_int(rd, t + 1, int_ready, int_cause)
                t += 1

            elif kind in (K_ST, K_FST):
                addr = ir[insn.rs1] + imms[pc]
                self._data_access(addr, is_write=True)
                mem.store_word(addr, (ir if kind == K_ST else fr)[insn.rs2])
                lsu_free = t = issue + 1

            elif kind == K_JUMP:
                next_pc = insn.target_index
                stats.branches_taken += 1
                charge(StallCause.BRANCH, cfg.branch_taken_penalty)
                if ev is not None:
                    ev.instant("branch_redirect", "cpu", t,
                               pc=pc, target=next_pc)
                t = t + 1 + cfg.branch_taken_penalty

            elif kind == K_FLI:
                fregs.write(rd, imms[pc])
                fp_ready[rd] = t + 1
                fp_cause[rd] = None
                t += 1

            elif kind == K_FMOV:
                fregs.write(rd, fr[insn.rs1])
                fp_ready[rd] = issue + 1
                fp_cause[rd] = None
                t = issue + 1

            elif kind == K_NOP:
                t += 1
            elif kind == K_HALT:
                # Drain the decoupled DySER store queue before retiring.
                t = max(t, self._store_queue_busy) + 1
                break
            elif kind == K_BAD_IMM:
                raise funcs[pc]
            else:  # pragma: no cover - every opcode has a kind
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

    def _retire_int(self, rd, ready, int_ready, int_cause, cause=None):
        if rd != 0:
            int_ready[rd] = ready
            int_cause[rd] = cause

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
                issue, cause = _src_wait(int_ready, int_cause,
                                          (insn.rs1,), t)
                value: int | float = self.iregs.read(insn.rs1)
            else:
                issue, cause = _src_wait(fp_ready, fp_cause, (insn.rs1,), t)
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
            issue, cause = _src_wait(int_ready, int_cause, (insn.rs1,),
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
            issue, cause = _src_wait(int_ready, int_cause, (insn.rs1,),
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
