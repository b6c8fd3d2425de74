"""Static performance-bound analyzer: predict cycles without simulating.

``analyze_program`` runs a timing-only *abstract interpretation* of a
compiled program against its statically known initial environment (the
prepared memory image, the kernel arguments, zero-initialized register
files).  The abstract domain is "concrete value or unknown".  The walk
dispatches on the same per-pc table (:mod:`repro.cpu.rules`: sources,
immediates, latencies, evaluators, LSU occupancy) as the in-order
scoreboard model (:class:`repro.cpu.core.Core`) and inherits its cache
hierarchy, but no simulator backend ever runs.  The walk degrades
gracefully when a value cannot be resolved (a branch condition or
address derived from data the analysis chose not to track), guessing
control flow conservatively and flagging the prediction *inexact*.

Three results come out of one walk:

- **predicted cycles** (and cycles per invocation) — exact when every
  branch and address resolved, an estimate otherwise;
- a **sound lower bound** on cycles: for exact walks the prediction
  itself; for inexact walks the weighted shortest path through the
  instruction graph (every instruction occupies >= 1 issue slot, taken
  branches and jumps pay the redirect penalty), which every execution
  must pay.  The ``perfbound`` fuzz oracle holds this bound against the
  simulator on generated programs: bound <= measured, always;
- a **per-region bottleneck attribution** (:class:`RegionPerf`): each
  DySER configuration's invocations are decomposed into
  recurrence-serialization cycles (blocking ``drecv`` waits on a
  loop-carried value that round-trips through the core — the E6
  dotprod gap), port/bandwidth occupancy (interface issue slots plus
  vector-transfer occupancy and send backpressure), configuration
  reload stalls (the E9b config-cache-thrash axis) and residual host
  cycles.  ``perf_report`` renders the attribution as the ``RPR4xx``
  diagnostics behind ``repro lint --perf``.

The fabric is modelled by driving the *real* :class:`DyserDevice` /
:class:`InvocationEngine` flow-control machinery with the walk's value
stream — timing there is value-independent, and a wrapped evaluator
propagates "unknown" through the DFG so a partially resolved region
still fires at exact times.  Caches are modelled by real
:class:`~repro.cpu.cache.Cache` instances fed the statically derived
pc/address streams.

``estimate_job_cost`` packages the prediction as the engine/service
pre-flight cost estimate: :func:`repro.engine.pool.run_jobs` orders
lanes longest-first with it and the service scheduler turns it into
queue-wait estimates and a cost-aware ``Retry-After``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.analysis.diagnostics import DiagnosticReport
from repro.cpu.cache import Cache
from repro.cpu.core import (
    _INSN_BYTES, CacheHierarchy, CoreConfig, check_kernel_args)
from repro.cpu.memory import WORD_BYTES, Memory
from repro.cpu.regfile import wrap64
from repro.cpu.rules import (
    FP_INT_DEST, K_BAD_IMM, K_BRANCH, K_DYSER, K_FLD, K_FLI, K_FMOV, K_FPU,
    K_FST, K_HALT, K_JUMP, K_LD, K_LI, K_MOV, K_NOP, K_SEL, K_ST,
    decode_table)
from repro.dyser.config_cache import ConfigCacheParams
from repro.dyser.fabric import Fabric
from repro.dyser.functional import FunctionalEvaluator
from repro.dyser.interface import DyserDevice
from repro.dyser.timing import DyserTimingParams
from repro.errors import ReproError
from repro.isa.instruction import ARG_FP_REGS, ARG_INT_REGS
from repro.isa.opcodes import InsnClass, Opcode
from repro.isa.program import Program

#: Default walk budget, in instructions.  Every instruction occupies at
#: least one cycle, so this also bounds the predictable cycle count.
DEFAULT_STEP_LIMIT = 1_000_000

#: How many times an *unknown* backward branch is guessed taken before
#: the walk falls through (prevents unbounded loops over unknown trip
#: counts; any guess marks the walk inexact).
_BACKWARD_GUESSES = 2


class _WalkAborted(Exception):
    """The walk could not complete (budget, runaway, mirrored fault)."""


# ---------------------------------------------------------------------------
# results


@dataclass
class RegionPerf:
    """Bottleneck attribution for one DySER configuration."""

    config_id: int
    invocations: int
    #: Static recv->send loop-carried dependence through the core.
    recurrence: bool
    #: Cycles/invocation the pipeline blocked on ``drecv`` for a
    #: loop-carried value (only attributed when ``recurrence``).
    recurrence_ii: float
    #: Interface issue slots + vector occupancy + send backpressure
    #: (+ non-recurrent recv drain waits), per invocation.
    port_ii: float
    #: Non-compulsory configuration reload stall cycles per invocation.
    config_ii: float
    #: Residual host cycles per invocation while this config was live.
    host_ii: float
    #: Critical output path delay of the configuration (cycles).
    path_delay: int
    config_words: int
    #: Dominant component: "recurrence" | "port" | "config" | "host".
    bottleneck: str

    def to_dict(self) -> dict:
        return {
            "config_id": self.config_id,
            "invocations": self.invocations,
            "recurrence": self.recurrence,
            "recurrence_ii": round(self.recurrence_ii, 3),
            "port_ii": round(self.port_ii, 3),
            "config_ii": round(self.config_ii, 3),
            "host_ii": round(self.host_ii, 3),
            "path_delay": self.path_delay,
            "config_words": self.config_words,
            "bottleneck": self.bottleneck,
        }


@dataclass
class PerfPrediction:
    """Everything one static walk of a program produced."""

    subject: str
    mode: str
    #: Predicted total cycles (None when the walk could not complete).
    predicted_cycles: int | None
    #: Sound lower bound: never exceeds the simulator's cycle count.
    lower_bound: int
    invocations: int
    instructions: int
    #: True when every branch and address resolved — the prediction is
    #: then the exact cycle count of the reference model.
    exact: bool
    #: True when the walk ran to HALT (False: structural bound only).
    walked: bool
    work_items: int | None
    regions: list[RegionPerf] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def cycles_per_invocation(self) -> float | None:
        if self.predicted_cycles is None or not self.invocations:
            return None
        return self.predicted_cycles / self.invocations

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "mode": self.mode,
            "predicted_cycles": self.predicted_cycles,
            "lower_bound": self.lower_bound,
            "invocations": self.invocations,
            "instructions": self.instructions,
            "exact": self.exact,
            "walked": self.walked,
            "work_items": self.work_items,
            "cycles_per_invocation": self.cycles_per_invocation,
            "regions": [r.to_dict() for r in self.regions],
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# structural lower bound


def _structural_bound(program: Program, branch_taken_penalty: int) -> int:
    """Weighted shortest path from entry to any HALT.

    Every instruction occupies at least one issue slot (each arm of the
    scoreboard model advances the cursor by >= 1); taken branches and
    jumps additionally pay the full redirect penalty.  Every execution
    that halts follows *some* path through the instruction graph and
    pays at least these costs, so the shortest-path distance is a sound
    lower bound on cycles.  Returns 0 when no HALT is reachable (the
    simulator would fault — no bound to give).
    """
    insns = program.instructions
    n = len(insns)
    if not n:
        return 0
    dist = [None] * n
    heap: list[tuple[int, int]] = [(0, 0)]
    best = None
    while heap:
        d, i = heapq.heappop(heap)
        if i >= n or dist[i] is not None:
            continue
        dist[i] = d
        insn = insns[i]
        op = insn.op
        iclass = insn.info.iclass
        if op is Opcode.HALT:
            best = d + 1 if best is None else min(best, d + 1)
            continue
        if iclass is InsnClass.JUMP:
            tgt = insn.target_index
            if tgt is not None and 0 <= tgt < n and dist[tgt] is None:
                heapq.heappush(heap, (d + 1 + branch_taken_penalty, tgt))
            continue
        if i + 1 < n and dist[i + 1] is None:
            heapq.heappush(heap, (d + 1, i + 1))
        if iclass is InsnClass.BRANCH:
            tgt = insn.target_index
            if tgt is not None and 0 <= tgt < n and dist[tgt] is None:
                heapq.heappush(heap, (d + 1 + branch_taken_penalty, tgt))
    return best or 0


# ---------------------------------------------------------------------------
# unknown-tolerant DFG evaluation


class _AbstractEvaluator:
    """FunctionalEvaluator that propagates unknown (None) inputs.

    Timing in the invocation engine is value-independent, so firing
    with unknown inputs just produces unknown outputs at exact times.
    A genuine evaluation fault (which would crash the simulator) also
    degrades to unknown, after flagging the walk inexact.
    """

    def __init__(self, dfg, on_fault) -> None:
        self._inner = FunctionalEvaluator(dfg)
        self._out_ports = list(dfg.outputs)
        self._on_fault = on_fault

    def __call__(self, inputs: dict) -> dict:
        if any(v is None for v in inputs.values()):
            return {p: None for p in self._out_ports}
        try:
            return self._inner(inputs)
        except Exception:
            self._on_fault("DFG evaluation faulted")
            return {p: None for p in self._out_ports}


# ---------------------------------------------------------------------------
# the walker


def _blank_acct() -> dict:
    return {
        "fires": 0,
        "seg_cycles": 0,
        "iface_slots": 0,
        "addr_cycles": 0,
        "send_wait": 0,
        "recv_wait": 0,
        "config_stall": 0,
        "reload_stall": 0,
    }


class _Walker(CacheHierarchy):
    """Timing-only abstract interpreter mirroring the scoreboard core.

    Every timing arm of :meth:`repro.cpu.core.Core.run` is reproduced
    over the value domain ``int | float | None`` (None = unknown), from
    the same :func:`~repro.cpu.rules.decode_table`.  What stays here is
    the unknown-value handling and the bottleneck attribution.  The walk
    owns its memory image, caches and DySER device outright — it never
    touches shared state.
    """

    def __init__(self, program: Program, memory: Memory,
                 config: CoreConfig, device: DyserDevice | None,
                 step_limit: int) -> None:
        self.program = program
        self.memory = memory
        self.config = config
        self.device = device
        self.step_limit = min(step_limit, config.max_instructions)
        self.icache = Cache(config.icache)
        self.dcache = Cache(config.dcache)
        self.l2 = Cache(config.l2) if config.l2 else None
        self.ival: list = [0] * 32
        self.fval: list = [0.0] * 32
        # Provenance: ("recv", config_id) when a register still holds an
        # unmodified drecv/dfrecv result — the recurrence detector.
        self.iorigin: list = [None] * 32
        self.forigin: list = [None] * 32
        # Dynamic address-generation slice: cycles of host ALU work
        # accumulated into each int register's current value.  A DySER
        # memory op consuming the register as its address claims the
        # chain for the port attribution (vectorized transfers eliminate
        # the addressing work along with the per-element port slots).
        self.icost: list = [0] * 32
        self.exact = True
        self.notes: list[str] = []
        self.unknown_words: set[int] = set()
        self.dirty_all = False
        self.executed = 0
        self.invocations = 0
        self.cycles = 0
        self.recurrences: set[int] = set()
        self.acct: dict[int, dict] = {}
        self._guesses: dict[int, int] = {}
        self._loaded_once: set[int] = set()
        self._seg_open_t = 0

    # -- bookkeeping -----------------------------------------------------

    def _inexact(self, why: str) -> None:
        self.exact = False
        if why not in self.notes:
            self.notes.append(why)

    def _acct_for(self, cid: int) -> dict:
        a = self.acct.get(cid)
        if a is None:
            a = self.acct[cid] = _blank_acct()
        return a

    def _close_segment(self, engine, t_now: int) -> None:
        a = self._acct_for(engine.config.config_id)
        a["fires"] += engine.invocations
        a["seg_cycles"] += max(0, t_now - self._seg_open_t)

    # -- value helpers ---------------------------------------------------

    def _take_cost(self, *regs) -> int:
        """Claim (and reset) the addressing-cost chains of registers."""
        total = 0
        for reg in regs:
            if reg is not None:
                total += self.icost[reg]
                self.icost[reg] = 0
        return total

    def _write_int(self, rd: int, value, origin=None) -> None:
        if rd != 0:
            self.ival[rd] = None if value is None else wrap64(int(value))
            self.iorigin[rd] = origin
            self.icost[rd] = 0

    def _write_fp(self, rd: int, value, origin=None) -> None:
        self.fval[rd] = None if value is None else float(value)
        self.forigin[rd] = origin

    def set_args(self, int_args=(), fp_args=()) -> None:
        check_kernel_args(int_args, fp_args)
        for reg, value in zip(ARG_INT_REGS, int_args, strict=False):
            self._write_int(reg, int(value))
        for reg, value in zip(ARG_FP_REGS, fp_args, strict=False):
            self._write_fp(reg, float(value))

    # -- memory image ----------------------------------------------------

    def _load_word(self, addr: int):
        if self.dirty_all or addr in self.unknown_words:
            self.memory._index(addr)
            return None
        return self.memory.load_word(addr)

    def _store_word(self, addr: int, value) -> None:
        if value is None:
            self.memory._index(addr)
            self.unknown_words.add(addr)
        else:
            self.memory.store_word(addr, value)
            self.unknown_words.discard(addr)

    def _load_block(self, base: int, count: int) -> list:
        raw = self.memory.load_block(base, count)
        if self.dirty_all:
            return [None] * count
        if self.unknown_words:
            return [
                None if (base + i * WORD_BYTES) in self.unknown_words else v
                for i, v in enumerate(raw)
            ]
        return raw

    def _store_block(self, base: int, values: list) -> None:
        # Bounds-check the whole range first (mirrors store_block).
        self.memory.load_block(base, len(values))
        for i, value in enumerate(values):
            self._store_word(base + i * WORD_BYTES, value)

    def _guess_branch(self, pc: int, insn) -> bool:
        self._inexact("unknown branch condition (control flow guessed)")
        n = self._guesses.get(pc, 0)
        self._guesses[pc] = n + 1
        backward = (insn.target_index is not None
                    and insn.target_index <= pc)
        return backward and n < _BACKWARD_GUESSES

    # -- the walk --------------------------------------------------------

    def walk(self) -> None:
        if self.program.spill_words:
            spill_base = self.memory.alloc(self.program.spill_words)
            self._write_int(28, spill_base)
        cfg = self.config
        program = self.program.instructions
        kinds, isrcs, fsrcs, imms, lats, funcs, occs = decode_table(
            program, cfg)
        insns_per_line = max(1, cfg.icache.line_bytes // _INSN_BYTES)
        icache_hit = cfg.icache.hit_latency
        dcache_hit = cfg.dcache.hit_latency
        penalty = cfg.branch_taken_penalty
        fpu_pipelined = cfg.fpu_pipelined
        step_limit = self.step_limit
        ival, iorigin, icost = self.ival, self.iorigin, self.icost
        fval, forigin = self.fval, self.forigin

        int_ready = [0] * 32
        fp_ready = [0] * 32

        t = 0
        pc = 0
        fpu_free = 0
        lsu_free = 0
        fabric_ready = 0
        store_queue_busy = 0
        cur_fetch_line = -1
        dev = self.device

        while True:
            if self.executed >= step_limit:
                raise _WalkAborted(f"step budget {step_limit} exhausted")
            try:
                kind = kinds[pc]
            except IndexError:
                raise _WalkAborted(f"pc {pc} fell off the end") from None
            insn = program[pc]

            line = pc // insns_per_line
            if line != cur_fetch_line:
                lat = self._fetch_access(pc * _INSN_BYTES)
                cur_fetch_line = line
                if lat > icache_hit:
                    t += lat
            self.executed += 1
            next_pc = pc + 1
            issue = t
            for reg in isrcs[pc]:
                if int_ready[reg] > issue:
                    issue = int_ready[reg]
            for reg in fsrcs[pc]:
                if fp_ready[reg] > issue:
                    issue = fp_ready[reg]

            if kind <= K_SEL:
                srcs = isrcs[pc]
                chain = 1
                for reg in srcs:
                    chain += icost[reg]
                    icost[reg] = 0
                a = ival[srcs[0]]
                if a is None:
                    value = None
                elif kind == K_SEL:
                    value = ival[srcs[1]] if a else ival[srcs[2]]
                else:
                    b = imms[pc]
                    if b is None:
                        b = ival[srcs[1]]
                    if b is None:
                        value = None
                    else:
                        try:
                            value = funcs[pc](a, b)
                        except Exception:
                            self._inexact(
                                f"integer op {insn.op.value} faulted")
                            value = None
                rd = insn.rd
                if rd:
                    ival[rd] = None if value is None else wrap64(value)
                    iorigin[rd] = None
                    icost[rd] = chain
                    int_ready[rd] = issue + lats[pc]
                t = issue + 1

            elif kind == K_BRANCH:
                a, b = ival[insn.rs1], ival[insn.rs2]
                if a is None or b is None:
                    taken = self._guess_branch(pc, insn)
                else:
                    taken = funcs[pc](a, b)
                if taken:
                    next_pc = insn.target_index
                    t = issue + 1 + penalty
                else:
                    t = issue + 1

            elif kind in (K_LD, K_FLD):
                if lsu_free > issue:
                    issue = lsu_free
                icost[insn.rs1] = 0
                base = ival[insn.rs1]
                if base is None:
                    self._inexact("load from unresolved address")
                    lat = dcache_hit
                    value = None
                else:
                    addr = base + imms[pc]
                    lat = self._data_access(addr)
                    value = self._load_word(addr)
                if kind == K_FLD:
                    self._write_fp(
                        insn.rd, None if value is None else float(value))
                    fp_ready[insn.rd] = issue + lat
                else:
                    self._write_int(
                        insn.rd, None if value is None else int(value))
                    if insn.rd != 0:
                        int_ready[insn.rd] = issue + lat
                lsu_free = issue + 1
                t = issue + 1

            elif kind == K_FPU:
                if not fpu_pipelined and fpu_free > issue:
                    issue = fpu_free
                ready = fpu_free = issue + lats[pc]
                op = insn.op
                args = [ival[r] for r in isrcs[pc]]
                args += [fval[r] for r in fsrcs[pc]]
                # fsel needs only its condition; the arm it picks may be
                # unknown.
                if (args[0] is None) if op is Opcode.FSEL else (None in args):
                    value = None
                else:
                    try:
                        value = funcs[pc](*args)
                    except Exception:
                        self._inexact(f"fp op {op.value} faulted")
                        value = None
                if op in FP_INT_DEST:
                    self._write_int(insn.rd, value)
                    if insn.rd != 0:
                        int_ready[insn.rd] = ready
                else:
                    self._write_fp(insn.rd, value)
                    fp_ready[insn.rd] = ready
                t = issue + 1

            elif kind == K_DYSER:
                if dev is None:
                    raise _WalkAborted(
                        f"{insn.op.value} on a core without DySER")
                t, new_fabric_ready = self._step_dyser(
                    insn, t, lsu_free, fabric_ready, int_ready, fp_ready)
                if new_fabric_ready is not None:
                    fabric_ready = new_fabric_ready
                if occs[pc] is not None:
                    lsu_free = t - 1 + occs[pc]
                if self._sq_busy > store_queue_busy:
                    store_queue_busy = self._sq_busy

            elif kind == K_MOV:
                chain = 1 + icost[insn.rs1]
                icost[insn.rs1] = 0
                self._write_int(insn.rd, ival[insn.rs1],
                                origin=iorigin[insn.rs1])
                if insn.rd != 0:
                    int_ready[insn.rd] = issue + 1
                    icost[insn.rd] = chain
                t = issue + 1

            elif kind == K_LI:
                self._write_int(insn.rd, imms[pc])
                if insn.rd != 0:
                    int_ready[insn.rd] = t + 1
                    icost[insn.rd] = 1
                t += 1

            elif kind in (K_ST, K_FST):
                if lsu_free > issue:
                    issue = lsu_free
                for reg in isrcs[pc]:
                    icost[reg] = 0
                value = (ival if kind == K_ST else fval)[insn.rs2]
                base = ival[insn.rs1]
                if base is None:
                    self.dirty_all = True
                    self._inexact("store to unresolved address")
                else:
                    addr = base + imms[pc]
                    self._data_access(addr, is_write=True)
                    self._store_word(addr, value)
                lsu_free = issue + 1
                t = issue + 1

            elif kind == K_JUMP:
                next_pc = insn.target_index
                t = t + 1 + penalty

            elif kind == K_FLI:
                self._write_fp(insn.rd, imms[pc])
                fp_ready[insn.rd] = t + 1
                t += 1

            elif kind == K_FMOV:
                self._write_fp(insn.rd, fval[insn.rs1],
                               origin=forigin[insn.rs1])
                fp_ready[insn.rd] = issue + 1
                t = issue + 1

            elif kind == K_NOP:
                t += 1
            elif kind == K_HALT:
                t = max(t, store_queue_busy) + 1
                break
            elif kind == K_BAD_IMM:
                raise funcs[pc]
            else:
                raise _WalkAborted(f"unhandled opcode {insn.op}")

            pc = next_pc

        if dev is not None and dev.engine is not None:
            self._close_segment(dev.engine, t)
            self.invocations = dev.finalize().invocations
        self.cycles = t

    _sq_busy = 0

    def _step_dyser(self, insn, t, lsu_free, fabric_ready,
                    int_ready, fp_ready):
        """Mirror of ``Core._exec_dyser`` over the unknown-value domain.

        Returns (new issue cursor, new fabric_ready or None); the store
        queue high-water mark rides on ``self._sq_busy``.
        """
        O = Opcode
        cfg = self.config
        dev = self.device
        op = insn.op

        if op is O.DINIT:
            cid = int(insn.imm)
            engine = dev.engine
            rearm = engine is not None and engine.config.config_id == cid
            if engine is not None and not rearm:
                self._close_segment(engine, t)
            hits_before = dev.stats.config_hits
            ready = dev.init_config(cid, t)
            if not rearm:
                hit = dev.stats.config_hits > hits_before
                a = self._acct_for(cid)
                a["config_stall"] += ready - t
                if cid in self._loaded_once and not hit:
                    a["reload_stall"] += ready - t
                self._loaded_once.add(cid)
                dev.engine.evaluator = _AbstractEvaluator(
                    dev.engine.config.dfg, self._inexact)
                self._seg_open_t = ready
            return ready + 1, ready

        a = self._acct_for(dev.engine.config.config_id) \
            if dev.engine is not None else _blank_acct()

        if op in (O.DSEND, O.DFSEND):
            if op is O.DSEND:
                issue = max(t, int_ready[insn.rs1])
                self._take_cost(insn.rs1)
                value = self.ival[insn.rs1]
                origin = self.iorigin[insn.rs1]
            else:
                issue = max(t, fp_ready[insn.rs1])
                value = self.fval[insn.rs1]
                origin = self.forigin[insn.rs1]
            if (dev.engine is not None
                    and origin == ("recv", dev.engine.config.config_id)):
                self.recurrences.add(dev.engine.config.config_id)
            if fabric_ready > issue:
                issue = fabric_ready
            done = dev.send(insn.port, value, issue)
            a["iface_slots"] += 1
            a["send_wait"] += max(0, done - issue)
            return max(issue, done) + 1, None

        if op in (O.DRECV, O.DFRECV):
            issue = max(t, fabric_ready)
            value, done = dev.recv(insn.port, issue)
            origin = ("recv", dev.engine.config.config_id)
            if op is O.DRECV:
                self._write_int(
                    insn.rd, None if value is None else int(value),
                    origin=origin)
                if insn.rd != 0:
                    int_ready[insn.rd] = done
            else:
                self._write_fp(
                    insn.rd, None if value is None else float(value),
                    origin=origin)
                fp_ready[insn.rd] = done
            a["iface_slots"] += 1
            a["recv_wait"] += done - issue
            return done + 1, None

        rate = max(1, cfg.vector_port_words_per_cycle)

        if op in (O.DLD, O.DFLD, O.DLDV, O.DFLDV, O.DLDW, O.DFLDW):
            issue = max(max(t, lsu_free), int_ready[insn.rs1])
            if fabric_ready > issue:
                issue = fabric_ready
            a["addr_cycles"] += self._take_cost(insn.rs1)
            base = self.ival[insn.rs1]
            if op in (O.DLD, O.DFLD):
                if base is None:
                    self._inexact("dyser load from unresolved address")
                    lat = cfg.dcache.hit_latency
                    value = None
                else:
                    addr = base + int(insn.imm)
                    lat = self._data_access(addr)
                    value = self._load_word(addr)
                    if value is not None:
                        value = (float(value) if op is O.DFLD
                                 else int(value))
                done = dev.send(insn.port, value, issue + lat)
                a["iface_slots"] += 1
                a["send_wait"] += max(0, done - (issue + lat))
            else:
                count = int(insn.imm)
                wide = op in (O.DLDW, O.DFLDW)
                fp = op in (O.DFLDV, O.DFLDW)
                if base is None:
                    self._inexact("dyser load from unresolved address")
                    lat = cfg.dcache.hit_latency
                    values = [None] * count
                else:
                    lat = self._vector_cache_access(base, count,
                                                    is_write=False)
                    values = self._load_block(base, count)
                for i, value in enumerate(values):
                    if value is not None:
                        value = float(value) if fp else int(value)
                    arrive = issue + lat + i // rate
                    port = insn.port + i if wide else insn.port
                    done = dev.send(port, value, arrive)
                    a["send_wait"] += max(0, done - arrive)
                a["iface_slots"] += max(1, count // rate)
            return issue + 1, None

        if op in (O.DST, O.DFST, O.DSTV, O.DFSTV, O.DSTW, O.DFSTW):
            issue = max(max(t, lsu_free), int_ready[insn.rs1])
            if fabric_ready > issue:
                issue = fabric_ready
            a["addr_cycles"] += self._take_cost(insn.rs1)
            base = self.ival[insn.rs1]
            if op in (O.DST, O.DFST):
                value, done = dev.recv(insn.port, issue)
                a["iface_slots"] += 1
                if base is None:
                    self.dirty_all = True
                    self._inexact("dyser store to unresolved address")
                else:
                    addr = base + int(insn.imm)
                    self._data_access(addr, is_write=True)
                    if value is not None:
                        value = (float(value) if op is O.DFST
                                 else int(value))
                    self._store_word(addr, value)
                self._sq_busy = max(self._sq_busy, done)
                return issue + 1, None
            count = int(insn.imm)
            wide = op in (O.DSTW, O.DFSTW)
            done = issue
            values = []
            for i in range(count):
                port = insn.port + i if wide else insn.port
                value, done = dev.recv(port, done)
                values.append(value)
            a["iface_slots"] += max(1, count // rate)
            if base is None:
                self.dirty_all = True
                self._inexact("dyser store to unresolved address")
            else:
                cast = float if op in (O.DFSTV, O.DFSTW) else int
                self._vector_cache_access(base, count, is_write=True)
                self._store_block(
                    base,
                    [None if v is None else cast(v) for v in values])
            self._sq_busy = max(self._sq_busy, done)
            return issue + 1, None

        raise _WalkAborted(f"unhandled DySER op {op}")

    # -- attribution -----------------------------------------------------

    def region_reports(self, program: Program) -> list[RegionPerf]:
        reports = []
        for cid in sorted(self.acct):
            a = self.acct[cid]
            fires = max(1, a["fires"])
            config = program.dyser_configs.get(cid)
            recurrence = cid in self.recurrences
            rec_ii = a["recv_wait"] / fires if recurrence else 0.0
            port_ii = (a["iface_slots"] + a["addr_cycles"]
                       + a["send_wait"]) / fires
            if not recurrence:
                port_ii += a["recv_wait"] / fires
            config_ii = a["reload_stall"] / fires
            host_ii = max(
                0.0,
                (a["seg_cycles"] - a["iface_slots"] - a["addr_cycles"]
                 - a["send_wait"] - a["recv_wait"]) / fires)
            components = {
                "recurrence": rec_ii,
                "port": port_ii,
                "config": config_ii,
                "host": host_ii,
            }
            bottleneck = max(components, key=lambda k: components[k])
            reports.append(RegionPerf(
                config_id=cid,
                invocations=a["fires"],
                recurrence=recurrence,
                recurrence_ii=rec_ii,
                port_ii=port_ii,
                config_ii=config_ii,
                host_ii=host_ii,
                path_delay=(config.critical_delay()
                            if config is not None else 0),
                config_words=(config.config_words()
                              if config is not None else 0),
                bottleneck=bottleneck,
            ))
        return reports


# ---------------------------------------------------------------------------
# entry points


def analyze_program(program: Program, *, memory: Memory | None = None,
                    int_args=(), fp_args=(),
                    core_config: CoreConfig | None = None,
                    fabric: Fabric | None = None,
                    timing: DyserTimingParams | None = None,
                    cache_params: ConfigCacheParams | None = None,
                    subject: str = "program",
                    step_limit: int = DEFAULT_STEP_LIMIT,
                    work_items: int | None = None) -> PerfPrediction:
    """Statically predict a program's cycles and bottlenecks.

    ``memory`` is the program's prepared input image (the walk claims
    it and mutates a private view of the world built on it); when None
    a blank 64 KiB image is used, matching the fuzz harness's execution
    environment.  Raises :class:`~repro.errors.ReproError` for the
    structural problems the simulator would also refuse at construction
    (unlinkable program, invalid configuration) — everything after that
    degrades into an inexact prediction instead of raising.
    """
    if not program.is_linked:
        program.link()
    program.validate()
    config = core_config or CoreConfig()
    device = None
    if config.has_dyser:
        device = DyserDevice(
            fabric=fabric or Fabric(),
            timing=timing or DyserTimingParams(),
            cache_params=cache_params or ConfigCacheParams(),
        )
        device.register_program(program)
    if memory is None:
        memory = Memory(1 << 16)
    walker = _Walker(program, memory, config, device, step_limit)
    walker.set_args(int_args, fp_args)
    walked = True
    notes: list[str] = []
    try:
        walker.walk()
    except (_WalkAborted, ReproError, OverflowError, ValueError,
            TypeError, KeyError, ZeroDivisionError) as exc:
        walked = False
        notes.append(f"walk aborted: {exc}")
    exact = walked and walker.exact
    predicted = walker.cycles if walked else None
    bound = (predicted if exact else
             _structural_bound(program, config.branch_taken_penalty))
    mode = "dyser" if (device is not None
                       and program.dyser_configs) else "scalar"
    return PerfPrediction(
        subject=subject,
        mode=mode,
        predicted_cycles=predicted,
        lower_bound=bound,
        invocations=walker.invocations if walked else 0,
        instructions=walker.executed,
        exact=exact,
        walked=walked,
        work_items=work_items,
        regions=walker.region_reports(program) if walked else [],
        notes=notes + walker.notes,
    )


def analyze_workload(name: str, *, mode: str = "dyser",
                     scale: str = "small", seed: int = 7,
                     options=None, core_config: CoreConfig | None = None,
                     timing: DyserTimingParams | None = None,
                     cache_params: ConfigCacheParams | None = None,
                     memory_bytes: int = 1 << 22,
                     step_limit: int = DEFAULT_STEP_LIMIT) -> PerfPrediction:
    """Predict one suite workload's run without executing it.

    Compiles through the shared harness memo (a later real run reuses
    the compile), prepares the workload's input image the same way the
    runner would, and walks.  Raises :class:`~repro.errors.ReproError`
    for unknown workloads/modes or compile failures.
    """
    from repro.compiler.driver import CompilerOptions
    from repro.dyser.fabric import FabricGeometry
    from repro.errors import WorkloadError
    from repro.harness.runner import (
        DEFAULT_GEOMETRY, _compile, _options_key, source_hash)
    from repro.workloads import suite as suite_mod

    if mode not in ("scalar", "dyser"):
        raise WorkloadError(f"unknown mode {mode!r}")
    # suite.get also resolves content-addressed ``dsl:`` kernels.
    workload = suite_mod.get(name)
    options = options or CompilerOptions(
        fabric=Fabric(FabricGeometry(*DEFAULT_GEOMETRY)))
    compiled = _compile(name, source_hash(workload.source), mode,
                        _options_key(options))
    memory = Memory(memory_bytes)
    instance = workload.prepare(memory, scale, seed)
    config = core_config or CoreConfig(has_dyser=(mode == "dyser"))
    return analyze_program(
        compiled.program,
        memory=memory,
        int_args=instance.int_args,
        fp_args=instance.fp_args,
        core_config=config,
        fabric=options.fabric if mode == "dyser" else None,
        timing=timing,
        cache_params=cache_params,
        subject=f"{name}/{mode}@{scale}",
        step_limit=step_limit,
        work_items=instance.work_items,
    )


def emit_region_diagnostics(report: DiagnosticReport, name: str,
                            prediction: PerfPrediction) -> None:
    """Emit the per-region RPR400/401/402 bottleneck diagnostics.

    Shared by :func:`perf_report` and callers that analyzed a
    hand-built :class:`~repro.isa.program.Program` directly via
    :func:`analyze_program`.
    """
    for region in prediction.regions:
        where = f"{name}.c{region.config_id}"
        if region.bottleneck == "port" and region.invocations:
            report.emit(
                "RPR400",
                f"port-bandwidth-bound: {region.port_ii:.1f} interface "
                f"cycles/invocation dominate (recurrence "
                f"{region.recurrence_ii:.1f}, config {region.config_ii:.1f},"
                f" host {region.host_ii:.1f}); wider vector ports or "
                f"vectorized transfers would raise throughput",
                location=where, source="perf", **region.to_dict())
        elif region.bottleneck == "recurrence" and region.invocations:
            report.emit(
                "RPR401",
                f"recurrence-bound: a loop-carried value round-trips "
                f"through the core every invocation "
                f"({region.recurrence_ii:.1f} blocked cycles/invocation "
                f"over a {region.path_delay}-cycle datapath); splitting "
                f"the reduction across multiple accumulators would break "
                f"the serialization",
                location=where, source="perf", **region.to_dict())
        elif region.bottleneck == "config" and region.invocations:
            report.emit(
                "RPR402",
                f"config-thrash-bound: {region.config_ii:.1f} reload "
                f"stall cycles/invocation ({region.config_words} words "
                f"per reload); the region working set exceeds the "
                f"configuration cache",
                location=where, source="perf", **region.to_dict())


def perf_report(name: str, *, mode: str = "dyser", scale: str = "small",
                seed: int = 7, options=None,
                core_config: CoreConfig | None = None,
                timing: DyserTimingParams | None = None,
                cache_params: ConfigCacheParams | None = None,
                ) -> DiagnosticReport:
    """``repro lint --perf``: the prediction as RPR4xx diagnostics.

    Never raises for workload/compile problems — they surface as
    diagnostics, exactly like :func:`repro.analysis.api.lint_workload`.
    """
    from repro.analysis.diagnostics import Diagnostic
    from repro.compiler.driver import CompilerOptions
    from repro.dyser.fabric import FabricGeometry
    from repro.harness.runner import (
        DEFAULT_GEOMETRY, _compile, _options_key, source_hash)
    from repro.workloads import SUITE

    report = DiagnosticReport(subject=f"{name}/{mode}:perf")
    try:
        prediction = analyze_workload(
            name, mode=mode, scale=scale, seed=seed, options=options,
            core_config=core_config, timing=timing,
            cache_params=cache_params)
    except ReproError as exc:
        code = getattr(exc, "code", None)
        if code:
            report.add(Diagnostic.from_error(exc, location=name,
                                             source="perf"))
        else:
            report.emit("RPR251", str(exc), location=name, source="perf")
        return report

    emit_region_diagnostics(report, name, prediction)

    # Capability-curtailed regions: the scheduler accepted the region
    # but could not unroll it as far as requested (fabric FU capacity).
    options = options or CompilerOptions(
        fabric=Fabric(FabricGeometry(*DEFAULT_GEOMETRY)))
    if mode == "dyser":
        workload = SUITE.get(name)
        if workload is not None:
            compiled = _compile(name, source_hash(workload.source), mode,
                                _options_key(options))
            for region in compiled.regions:
                if region.accepted and 1 < region.unrolled < options.unroll:
                    report.emit(
                        "RPR403",
                        f"capability-bound: region unrolled "
                        f"{region.unrolled}x of the requested "
                        f"{options.unroll}x — fabric FU capacity limits "
                        f"the spatial schedule",
                        location=f"{name}.{region.loop_header}",
                        source="perf", unrolled=region.unrolled,
                        requested=options.unroll)

    cpi = prediction.cycles_per_invocation
    report.emit(
        "RPR404",
        (f"predicted {prediction.predicted_cycles} cycles"
         if prediction.predicted_cycles is not None
         else "prediction unavailable (walk did not complete)")
        + (f", {prediction.invocations} invocations"
           + (f" ({cpi:.1f} cycles/invocation)" if cpi else "")
           if prediction.invocations else "")
        + f"; sound lower bound {prediction.lower_bound} cycles"
        + ("" if prediction.exact else " [inexact]"),
        location=name, source="perf", **prediction.to_dict())
    return report


# ---------------------------------------------------------------------------
# engine/service cost pre-flight

#: Cost memo keyed by job hash (process-local, like the compile memo).
#: Cleared once past :data:`_COST_MEMO_LIMIT` entries: a long-running
#: service adds one for every fresh seed it prices.
_COST_MEMO: dict[str, int | None] = {}
_COST_MEMO_LIMIT = 4096

#: Walk budget for cost estimation, in instructions.  Within it an
#: estimate walks every instruction the run will execute, mirroring the
#: scoreboard, caches and DySER device, so it is not cheap next to the
#: run: on the 16 ``tiny`` specs of the layer benchmark's
#: ``service-mixed`` workload one estimate costs about 1.5x the core
#: run of the job it prices (CPU time, 2-vCPU Xeon host).  Past the
#: budget the estimate walks the tiny instance and scales by work
#: items.
_COST_STEP_LIMIT = 300_000


def estimate_job_cost(spec) -> int | None:
    """Predicted cycle cost of one :class:`~repro.engine.jobs.JobSpec`.

    Returns None when no defensible estimate exists (analysis failure,
    budget exhausted at every scale).  Memoized by job hash; safe to
    call from the engine pre-flight and the service admission path.
    """
    try:
        key = spec.job_hash
    except Exception:
        return None
    if key in _COST_MEMO:
        return _COST_MEMO[key]
    cost = _estimate(spec)
    if len(_COST_MEMO) > _COST_MEMO_LIMIT:
        _COST_MEMO.clear()
    _COST_MEMO[key] = cost
    return cost


def _estimate(spec) -> int | None:
    try:
        prediction = analyze_workload(
            spec.workload, mode=spec.mode, scale=spec.scale,
            seed=spec.seed, options=spec.options(),
            core_config=spec.core_config(), timing=spec.timing(),
            cache_params=spec.cache_params(),
            memory_bytes=spec.memory_bytes,
            step_limit=_COST_STEP_LIMIT)
    except ReproError:
        return None
    if prediction.walked and prediction.predicted_cycles:
        return prediction.predicted_cycles
    # Budget ran out at the requested scale: walk a tiny instance and
    # scale the estimate by the work-item ratio.
    try:
        tiny = analyze_workload(
            spec.workload, mode=spec.mode, scale="tiny", seed=spec.seed,
            options=spec.options(), core_config=spec.core_config(),
            timing=spec.timing(), cache_params=spec.cache_params(),
            memory_bytes=spec.memory_bytes,
            step_limit=_COST_STEP_LIMIT)
    except ReproError:
        return None
    if not (tiny.walked and tiny.predicted_cycles and tiny.work_items):
        return None
    if not prediction.work_items:
        return None
    scaled = tiny.predicted_cycles * (prediction.work_items
                                      / tiny.work_items)
    return max(1, int(scaled))


def clear_cost_memo() -> None:
    """Drop memoized cost estimates (tests / engine cache resets)."""
    _COST_MEMO.clear()
