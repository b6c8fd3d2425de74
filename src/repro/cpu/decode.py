"""Predecode: programs -> basic blocks of lockstep instruction templates.

This is the static half of every untraced run (:mod:`repro.cpu.
batchcore`).  At load time each program is decoded **once** into basic
blocks, and every instruction into an *op*: the source template of its
kind plus its static operands (register indices, immediates, ports,
branch targets).  Each instruction kind's lockstep semantics is written
once, as a template with two parts:

- the **lane-wide functional statements** — register values, memory
  traffic, cache latencies, branch outcomes and the values crossing
  the DySER fabric.  They are identical across points whose configs
  differ only in timing knobs (FIFO depths, initiation interval,
  config-cache capacity, vector port rate, instruction limits) —
  timing cannot change a value in this machine, so the lane's DySER
  value side (``dyv``), the memory image and the cache hierarchy are
  shared and touched exactly once per dynamic instruction;
- the **per-point timing statements** — scoreboards (register ready
  cycles + stall-cause attribution), structural units (FPU/LSU/fabric/
  store-queue) and the point's DySER device, which takes and returns
  cycles only, over the point's cycle cursor ``t``.  An ``@points``
  line in the functional part places them; they replay exactly the
  reference core's issue rules for each point.

Every runnable form is rendered from these templates:

- **Per-instruction handlers** (``h()``; a terminator returns the next
  block index).  Their source is rendered and compiled once per
  template, with operands as bound arguments, and the timing statements
  inside a loop over the lane's points.  They run cold blocks, and the
  prefix a lane of one runs when its instruction limit lands inside a
  block.
- **Fused block functions** (:meth:`DecodedBlock.fuse`).  Once a block
  is hot (:data:`repro.cpu.batchcore._HOT_BLOCK_RUNS`), the batch core
  renders its fetch checks, instructions and terminator as one function
  that returns the next block index.  Operands and the context's
  latencies are literals; a lane of one binds its point's scoreboards as
  locals and keeps its cycle cursor in one, wider lanes loop over their
  points inside each instruction.

Control flow is *shared* across the lane by construction, which is why
no template ever needs a per-point branch target.  Divergence therefore
only ever means "a point faults" (e.g. a per-point instruction limit),
and the batch core handles that, never a template.

The decode result is **config-independent**: microarchitectural numbers
(latencies, penalties, cache hit latencies, the vector port rates) are
read from the context when an op is bound or fused, so one decode serves
every :class:`~repro.cpu.core.CoreConfig` with the same I$ line
geometry.

Cycle-exactness contract: for every point, every template replicates
the corresponding case of :meth:`repro.cpu.core.Core.run` — same
issue-floor rules, same stall-cause attribution (including the ``cause
or DATA_HAZARD`` default and the LSU_BUSY refinement on DySER memory
ops), same functional semantics (64-bit wrapping, r0 discipline,
division conventions).  The source-register rules and the value
semantics are not restated: the templates take them from
:mod:`repro.cpu.rules`, whose expression templates also compile into
the plain functions the reference core calls.  The differential
harnesses in :mod:`repro.harness.parity` and :mod:`repro.harness.batch`
enforce the rest.

Two caches, both dropped by ``clear_decode_caches()`` (and so by
:func:`repro.harness.runner.clear_caches`):

- the decode cache, keyed by program *identity* (``id()`` plus a
  liveness check through a weak reference — :class:`~repro.isa.program.
  Program` is a mutable dataclass and therefore unhashable) and by the
  I$ line geometry, evicted when the program is collected;
- the code cache: compiled handler and block binders keyed by their
  source text, least recently used first and bounded at
  :data:`_CODE_CACHE_SIZE` entries.
"""

from __future__ import annotations

import re
import weakref
from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache
from string import Formatter

from repro.errors import SimulationError
from repro.cpu.regfile import wrap64
from repro.cpu.rules import (
    _FP_INT_SRC, _NS, FP_INT_DEST, branch_expr, fp_expr, fp_insn_srcs,
    int_alu_srcs, int_expr)
from repro.cpu.statistics import StallCause
from repro.isa.opcodes import InsnClass, Opcode, WIDE_OPS
from repro.isa.program import Program

_INSN_BYTES = 4

#: Template field -> StallCause ID, by declaration order of
#: :class:`repro.cpu.statistics.StallCause` (templates accumulate into a
#: flat int array per point; the batch core converts back to the
#: enum-keyed Counter when the run finishes).  A cause map holds 0
#: (DATA_HAZARD) where the reference core holds None, so ``cause or
#: DATA_HAZARD`` is just the map entry.
_CAUSE_FIELDS = {cause.name: str(i) for i, cause in enumerate(StallCause)}

#: Compiled binders kept by source text.
_CODE_CACHE_SIZE = 512


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------

#: The names a timing loop binds for one point of each view of the
#: batch context (see ``batchcore._BatchCtx``).
_VIEWS = {
    "pi": "irdy, icz, st, sc",
    "pf": "frdy, fcz, st, sc",
    "pa": "irdy, icz, frdy, fcz, st, sc",
    "pdi": "p, dev, irdy, icz, st, sc",
    "pdf": "p, dev, frdy, fcz, st, sc",
}

#: Context names templates read; a binder binds those its source uses.
_CTX = {
    "ir": "ctx.ir", "fr": "ctx.fr", "fa": "ctx.fa", "da": "ctx.da",
    "vca": "ctx.vca", "lw": "ctx.mem.load_word",
    "sw": "ctx.mem.store_word", "lb": "ctx.mem.load_block",
    "sb": "ctx.mem.store_block", "fl": "ctx.fl", "misc": "ctx.misc",
    "penalty": "ctx.penalty", "ihit": "ctx.ihit", "dhit": "ctx.dhit",
    "pipelined": "ctx.pipelined", "dyv": "ctx.dyv",
    **{view: f"ctx.{view}" for view in _VIEWS},
}

#: Context numbers a template reads as fields: names in a handler,
#: literals in a fused block.
_CTX_FIELDS = ("penalty", "ihit", "dhit", "pipelined")

_POINTS = "@points"
_FORMATTER = Formatter()


class _Tpl:
    """One instruction kind's lockstep semantics.

    ``body`` holds the lane-wide functional statements; its ``@points``
    line places ``timing``, the per-point statements, which read and
    advance the point's cycle cursor ``t`` and the names ``view`` binds.
    ``params`` are the operand fields (``{name}``) an op supplies.
    """

    __slots__ = ("view", "body", "timing", "params")

    def __init__(self, view: str, body: list[str],
                 timing: list[str] = ()) -> None:
        self.view = view
        self.body = "\n".join(body)
        self.timing = "\n".join(timing)
        fields = {name for text in (self.body, self.timing)
                  for _, name, _, _ in _FORMATTER.parse(text) if name}
        self.params = tuple(sorted(
            fields - set(_CTX_FIELDS) - set(_CAUSE_FIELDS)))

    def expand(self, fields: dict, solo: bool, last: bool) -> list[str]:
        """Source lines with ``fields`` substituted.  ``@points`` becomes
        a loop over the view, or, for a lane of one (``solo``), the
        timing statements themselves; the ``last`` op of a solo block
        also stores the cycle cursor back."""
        timing = self.timing.format_map(fields).splitlines()
        if solo:
            points = timing + (["sc[4] = t"] if last else [])
        elif timing:
            points = [f"for {_VIEWS[self.view]} in {self.view}:",
                      "    t = sc[4]",
                      *("    " + line for line in timing),
                      "    sc[4] = t"]
        else:
            points = []
        lines = []
        for line in self.body.format_map(fields).splitlines():
            text = line.lstrip()
            if text == _POINTS:
                pad = line[:len(line) - len(text)]
                lines += [pad + point for point in points]
            else:
                lines.append(line)
        return lines


def _waits(regs, rdy: str, cz: str, cause: str = "c") -> list[str]:
    """Raise the issue floor to each source's ready cycle, taking the
    cause of the last wait that raised it."""
    lines = []
    for reg in regs:
        lines += [f"r = {rdy}[{{{reg}}}]", "if r > issue:",
                  "    issue = r", f"    {cause} = {cz}[{{{reg}}}]"]
    return lines


_WAIT = ["issue = t", "c = 0"]
_LSU_WAIT = ["lsu = sc[1]", "issue = t if t >= lsu else lsu", "c = 0"]
_CHARGE = ["if issue > t:", "    st[c] += issue - t"]
_FABRIC = ["fab = sc[2]", "if fab > issue:",
           "    st[{DYSER_CONFIG}] += fab - issue", "    issue = fab"]
_WRAP = ["if not -9223372036854775808 <= v < 9223372036854775808:",
         "    v = wrap64(v)"]
_SRCS = ("s1", "s2", "s3")


@cache
def _fetch_tpl(conditional: bool) -> _Tpl:
    body = ["mlat = fa({faddr})", "fl[0] = {line}",
            "if mlat > {ihit}:", f"    {_POINTS}"]
    if conditional:
        body = ["if fl[0] != {line}:", *("    " + line for line in body)]
    return _Tpl("pi", body, ["st[{FETCH_MISS}] += mlat", "t += mlat"])


@cache
def _alu_tpl(op_value: str, a: str, b: str, nsrcs: int, rd: bool) -> _Tpl:
    timing = [*_WAIT, *_waits(_SRCS[:nsrcs], "irdy", "icz"), *_CHARGE]
    if rd:
        timing += ["irdy[{rd}] = issue + {lat}", "icz[{rd}] = 0"]
    timing.append("t = issue + 1")
    body = [_POINTS]
    if op_value == "sel":
        if rd:
            body.append("ir[{rd}] = ir[{s2}] if ir[{s1}] else ir[{s3}]")
    else:
        body.append(f"v = {int_expr(op_value, a, b)}")
        if rd:
            body += [*_WRAP, "ir[{rd}] = v"]
    return _Tpl("pi", body, timing)


@cache
def _move_tpl(fp: bool, copy: bool, wr: bool) -> _Tpl:
    regs, rdy, cz, view = (("fr", "frdy", "fcz", "pf") if fp
                           else ("ir", "irdy", "icz", "pi"))
    if copy:
        timing = [*_WAIT, *_waits(("s1",), rdy, cz), *_CHARGE,
                  "t = issue + 1"]
        value = f"{regs}[{{s1}}]"
    else:
        timing = ["t += 1"]
        value = "{imm}"
    body = [_POINTS]
    if wr:
        timing += [f"{rdy}[{{rd}}] = t", f"{cz}[{{rd}}] = 0"]
        body.append(f"{regs}[{{rd}}] = {value}")
    return _Tpl(view, body, timing)


@cache
def _fp_tpl(op_value: str, int_src: bool, nsrcs: int, int_dest: bool,
            rd: bool) -> _Tpl:
    regs = _SRCS[:nsrcs]
    isrcs, fsrcs = (regs[:1], regs[1:]) if int_src else ((), regs)
    a = "ir[{s1}]" if int_src else "fr[{s1}]"
    body = [f"v = {fp_expr(op_value, a, 'fr[{s2}]', 'fr[{s3}]')}"]
    if not int_dest:
        body.append("fr[{rd}] = float(v)")
    elif rd:
        body += [*_WRAP, "ir[{rd}] = v"]
    body.append(_POINTS)
    timing = [*_WAIT, *_waits(isrcs, "irdy", "icz")]
    if fsrcs:
        # An FP source's stall cause outranks an integer one's.
        timing += ["cf = 0", *_waits(fsrcs, "frdy", "fcz", "cf"),
                   "c = cf or c"]
    timing += [
        "fpu = sc[0]",
        "if not {pipelined} and fpu > issue:",
        "    st[{STRUCTURAL_FPU}] += fpu - issue",
        "    if issue > t:",
        "        st[c] += issue - t",
        "    issue = fpu",
        "elif issue > t:",
        "    st[c] += issue - t",
        "ready = issue + {lat}",
        "sc[0] = ready",
    ]
    if not int_dest:
        timing += ["frdy[{rd}] = ready", "fcz[{rd}] = 0"]
    elif rd:
        timing += ["irdy[{rd}] = ready", "icz[{rd}] = 0"]
    timing.append("t = issue + 1")
    return _Tpl("pa", body, timing)


@cache
def _load_tpl(fp: bool, rd: bool) -> _Tpl:
    body = ["ea = ir[{s1}] + {imm}", "mlat = da(ea)"]
    if fp:
        body.append("fr[{rd}] = float(lw(ea))")
    else:
        # Converted (and faulting) even when rd is r0.
        body.append("v = int(lw(ea))")
        if rd:
            body += [*_WRAP, "ir[{rd}] = v"]
    body += ["mcz = {LOAD_MISS} if mlat > {dhit} else 0", _POINTS]
    timing = [*_LSU_WAIT, *_waits(("s1",), "irdy", "icz"), *_CHARGE]
    if fp:
        timing += ["frdy[{rd}] = issue + mlat", "fcz[{rd}] = mcz"]
    elif rd:
        timing += ["irdy[{rd}] = issue + mlat", "icz[{rd}] = mcz"]
    timing += ["t = issue + 1", "sc[1] = t"]
    return _Tpl("pa" if fp else "pi", body, timing)


@cache
def _store_tpl(fp: bool) -> _Tpl:
    body = ["ea = ir[{s1}] + {imm}", "da(ea, True)",
            f"sw(ea, {'fr' if fp else 'ir'}[{{s2}}])", _POINTS]
    timing = [*_LSU_WAIT, *_waits(("s1",), "irdy", "icz")]
    if fp:
        timing += ["cf = 0", *_waits(("s2",), "frdy", "fcz", "cf"),
                   "c = cf or c"]
    else:
        timing += _waits(("s2",), "irdy", "icz")
    timing += [*_CHARGE, "t = issue + 1", "sc[1] = t"]
    return _Tpl("pa" if fp else "pi", body, timing)


_NOP = _Tpl("pi", [_POINTS], ["t += 1"])

_DINIT = _Tpl("pdi", ["dyv.init_config({imm})", _POINTS], [
    "ready = dev.init_config({imm}, t)",
    "if ready > t:",
    "    st[{DYSER_CONFIG}] += ready - t",
    "sc[2] = ready",
    "t = ready + 1",
])


@cache
def _dsend_tpl(fp: bool) -> _Tpl:
    regs, rdy, cz, view = (("fr", "frdy", "fcz", "pdf") if fp
                           else ("ir", "irdy", "icz", "pdi"))
    return _Tpl(view, [f"dyv.send({{port}}, {regs}[{{s1}}])", _POINTS], [
        *_WAIT, *_waits(("s1",), rdy, cz), *_CHARGE, *_FABRIC,
        "done = dev.send({port}, issue)",
        "if done > issue:",
        "    st[{DYSER_SEND}] += done - issue",
        "    t = done + 1",
        "else:",
        "    t = issue + 1",
    ])


@cache
def _drecv_tpl(fp: bool, rd: bool) -> _Tpl:
    body = ["value = dyv.recv({port})", _POINTS]
    if fp:
        body.append("fr[{rd}] = float(value)")
    else:
        body.append("v = int(value)")
        if rd:
            body += [*_WRAP, "ir[{rd}] = v"]
    timing = [
        "fab = sc[2]",
        "issue = t if t >= fab else fab",
        "if issue > t:",
        "    st[{DYSER_CONFIG}] += issue - t",
        "done = dev.recv({port}, issue)",
        "if done > issue:",
        "    st[{DYSER_RECV}] += done - issue",
    ]
    if fp or rd:
        # Ready before the next issue slot: no cause tag.
        timing.append(f"{'frdy' if fp else 'irdy'}[{{rd}}] = done")
    timing.append("t = done + 1")
    return _Tpl("pdf" if fp else "pdi", body, timing)


#: A DySER memory op's issue: the LSU, then the base register (an LSU
#: wait with no other cause is charged as LSU_BUSY), then the fabric.
_DYSER_MEM_WAIT = [
    *_LSU_WAIT, *_waits(("s1",), "irdy", "icz"),
    "if lsu > t and issue == lsu and not c:",
    "    c = {LSU_BUSY}",
    *_CHARGE, *_FABRIC,
]


@cache
def _dld_tpl(fp: bool, vector: bool) -> _Tpl:
    cast = "float" if fp else "int"
    if not vector:
        return _Tpl("pdi", [
            "ea = ir[{s1}] + {imm}", "mlat = da(ea)",
            f"dyv.send({{port}}, {cast}(lw(ea)))", _POINTS,
        ], [
            *_DYSER_MEM_WAIT,
            "arrive = issue + mlat",
            "done = dev.send({port}, arrive)",
            "if done > arrive:",
            "    st[{DYSER_SEND}] += done - arrive",
            "t = issue + 1",
            "sc[1] = t",
        ])
    return _Tpl("pdi", [
        "base = ir[{s1}]", "mlat = vca(base, {count}, False)",
        f"dyv.send_many({{ports}}, [{cast}(v) for v in lb(base, {{count}})])",
        _POINTS,
    ], [
        *_DYSER_MEM_WAIT,
        "t0 = issue + mlat",
        "stall = dev.send_many({ports}, [t0 + o for o in {offs}[p]])",
        "if stall:",
        "    st[{DYSER_SEND}] += stall",
        "sc[1] = issue + {holds}[p]",
        "t = issue + 1",
    ])


@cache
def _dst_tpl(fp: bool, vector: bool) -> _Tpl:
    cast = "float" if fp else "int"
    if not vector:
        return _Tpl("pdi", [
            "value = dyv.recv({port})", _POINTS, "ea = ir[{s1}] + {imm}",
            "da(ea, True)", f"sw(ea, {cast}(value))",
        ], [
            *_DYSER_MEM_WAIT,
            "done = dev.recv({port}, issue)",
            "if done > sc[3]:",
            "    sc[3] = done",
            "t = issue + 1",
            "sc[1] = t",
        ])
    return _Tpl("pdi", [
        "values = [dyv.recv(port) for port in {ports}]", "base = ir[{s1}]",
        _POINTS, "vca(base, {count}, True)",
        f"sb(base, [{cast}(v) for v in values])",
    ], [
        *_DYSER_MEM_WAIT,
        "done = issue",
        "for port in {ports}:",
        "    done = dev.recv(port, done)",
        "if done > sc[3]:",
        "    sc[3] = done",
        "sc[1] = issue + {holds}[p]",
        "t = issue + 1",
    ])


@cache
def _branch_tpl(op) -> _Tpl:
    return _Tpl("pi", [
        f"taken = {branch_expr(op, 'ir[{s1}]', 'ir[{s2}]')}",
        _POINTS,
        "if taken:",
        "    misc[0] += 1",
        "    return {tbi}",
        "return {fbi}",
    ], [
        *_WAIT, *_waits(("s1", "s2"), "irdy", "icz"), *_CHARGE,
        "if taken:",
        "    if {penalty} > 0:",
        "        st[{BRANCH}] += {penalty}",
        "    t = issue + 1 + {penalty}",
        "else:",
        "    t = issue + 1",
    ])


_JUMP = _Tpl("pi", ["misc[0] += 1", _POINTS, "return {tbi}"], [
    "if {penalty} > 0:",
    "    st[{BRANCH}] += {penalty}",
    "t += 1 + {penalty}",
])

# Drain the decoupled DySER store queue before retiring.
_HALT = _Tpl("pi", [_POINTS, "return -1"],
             ["q = sc[3]", "t = (t if t >= q else q) + 1"])

_FALL = _Tpl("pi", [_POINTS, "return {fbi}"])

_NO_DYSER = _Tpl("", ["raise SimulationError({msg})"])


# ---------------------------------------------------------------------------
# Ops: a template and its static operands
# ---------------------------------------------------------------------------

class _Late:
    """An operand read from the batch context when the op is bound."""

    __slots__ = ("fn",)

    def __init__(self, fn) -> None:
        self.fn = fn


_LAT = {c: _Late(lambda ctx, c=c: ctx.lats[c]) for c in InsnClass}


class _Op:
    """One instruction (or fetch check, or terminator) of a block."""

    __slots__ = ("tpl", "vals", "name", "late")

    def __init__(self, tpl: _Tpl, name: str = "", **operands) -> None:
        self.tpl = tpl
        self.name = name
        self.vals = tuple(operands[p] for p in tpl.params)
        self.late = any(type(v) is _Late for v in self.vals)

    def resolve(self, ctx) -> tuple[_Tpl, tuple]:
        """The template and operand values this op runs in ``ctx``."""
        if self.tpl.view in ("pdi", "pdf") and ctx.devs[0] is None:
            return _NO_DYSER, (
                f"{self.name} executed on a core without DySER",)
        if not self.late:
            return self.tpl, self.vals
        return self.tpl, tuple(v.fn(ctx) if type(v) is _Late else v
                               for v in self.vals)

    def bind(self, ctx):
        """This op's per-instruction handler, bound to ``ctx``."""
        tpl, vals = self.resolve(ctx)
        return _handler_binder(tpl)(ctx, *vals)


def _alu_op(insn, iclass) -> _Op:
    srcs = int_alu_srcs(insn)
    imm = int(insn.imm) if insn.imm is not None else None
    a = "ir[{s1}]" if insn.rs1 is not None else "0"
    b = ("{imm}" if imm is not None
         else "ir[{s2}]" if insn.rs2 is not None else "0")
    return _Op(_alu_tpl(insn.op.value, a, b, len(srcs), bool(insn.rd)),
               s1=insn.rs1, s2=insn.rs2, s3=insn.rs3, rd=insn.rd, imm=imm,
               lat=_LAT[iclass])


def _move_op(insn) -> _Op:
    op = insn.op
    fp = op in (Opcode.FLI, Opcode.FMOV)
    copy = op in (Opcode.MOV, Opcode.FMOV)
    imm = None
    if not copy:
        imm = float(insn.imm) if fp else wrap64(int(insn.imm))
    # r0 stays zero and ready; an FP destination is always written.
    return _Op(_move_tpl(fp, copy, fp or bool(insn.rd)),
               s1=insn.rs1, rd=insn.rd, imm=imm)


def _fp_op(insn, iclass) -> _Op:
    op = insn.op
    int_srcs, fp_srcs = fp_insn_srcs(insn)
    tpl = _fp_tpl(op.value, op in _FP_INT_SRC, len(int_srcs) + len(fp_srcs),
                  op in FP_INT_DEST, bool(insn.rd))
    return _Op(tpl, s1=insn.rs1, s2=insn.rs2, s3=insn.rs3, rd=insn.rd,
               lat=_LAT[iclass])


def _holds(count: int) -> _Late:
    """Issue slots a ``count``-word transfer holds the LSU, per point."""
    return _Late(lambda ctx: [max(1, count // r) for r in ctx.rates])


def _offsets(count: int) -> _Late:
    """Per point, value i's arrival offset (i // rate): data-independent,
    so a transfer only adds its first arrival cycle."""
    return _Late(lambda ctx: [[i // r for i in range(count)]
                              for r in ctx.rates])


def _dyser_op(insn, iclass) -> _Op:
    op = insn.op
    name = op.value
    if iclass is InsnClass.DYSER_INIT:
        return _Op(_DINIT, name, imm=int(insn.imm))
    if iclass is InsnClass.DYSER_SEND:
        return _Op(_dsend_tpl(op is Opcode.DFSEND), name, s1=insn.rs1,
                   port=insn.port)
    if iclass is InsnClass.DYSER_RECV:
        return _Op(_drecv_tpl(op is Opcode.DFRECV, bool(insn.rd)), name,
                   rd=insn.rd, port=insn.port)
    imm = int(insn.imm)
    # Value i moves through port ``port + i`` (wide) or ``port``.
    ports = (range(insn.port, insn.port + imm) if op in WIDE_OPS
             else (insn.port,) * imm)
    operands = dict(s1=insn.rs1, imm=imm, port=insn.port, count=imm,
                    holds=_holds(imm), ports=ports)
    if iclass is InsnClass.DYSER_LOAD:
        vector = op not in (Opcode.DLD, Opcode.DFLD)
        fp = op in (Opcode.DFLD, Opcode.DFLDV, Opcode.DFLDW)
        return _Op(_dld_tpl(fp, vector), name, offs=_offsets(imm),
                   **operands)
    vector = op not in (Opcode.DST, Opcode.DFST)
    fp = op in (Opcode.DFST, Opcode.DFSTV, Opcode.DFSTW)
    return _Op(_dst_tpl(fp, vector), name, **operands)


def _exec_op(insn) -> _Op:
    iclass = insn.info.iclass
    C = InsnClass
    if iclass in (C.ALU, C.MUL, C.DIV):
        return _alu_op(insn, iclass)
    if iclass is C.MOVE:
        return _move_op(insn)
    if iclass in (C.FPU, C.FDIV):
        return _fp_op(insn, iclass)
    if iclass is C.LOAD:
        return _Op(_load_tpl(insn.op is Opcode.FLD, bool(insn.rd)),
                   s1=insn.rs1, rd=insn.rd, imm=int(insn.imm))
    if iclass is C.STORE:
        return _Op(_store_tpl(insn.op is Opcode.FST), s1=insn.rs1,
                   s2=insn.rs2, imm=int(insn.imm))
    if insn.info.is_dyser:
        return _dyser_op(insn, iclass)
    if insn.op is Opcode.NOP:
        return _Op(_NOP)
    raise SimulationError(f"unhandled opcode {insn.op}")


# ---------------------------------------------------------------------------
# Rendering and the code cache
# ---------------------------------------------------------------------------

_GLOBALS = {**_NS, "SimulationError": SimulationError}
_WORD = re.compile(r"[A-Za-z_]\w*")


@lru_cache(maxsize=_CODE_CACHE_SIZE)
def _compiled(source: str):
    """The ``_bind`` function ``source`` defines (compiled once per
    source text)."""
    ns = dict(_GLOBALS)
    exec(source, ns)  # noqa: S102 - rendered from the templates above
    return ns["_bind"]


def _binder_source(params, lines: list[str], fn: str, head=()) -> str:
    """``_bind(ctx, *params)``: binds the context names ``lines`` use,
    then ``head``, and returns the function ``fn`` running ``lines``."""
    words = set(_WORD.findall("\n".join(lines)))
    return "\n".join([
        f"def _bind({', '.join(('ctx', *params))}):",
        *(f"    {name} = {expr}" for name, expr in _CTX.items()
          if name in words),
        *("    " + line for line in head),
        f"    def {fn}():",
        *("        " + line for line in lines),
        f"    return {fn}",
        "",
    ])


@lru_cache(maxsize=None)
def _handler_binder(tpl: _Tpl):
    """The per-instruction handler binder of ``tpl``: operands are its
    arguments, the timing a loop over the lane's points."""
    fields = {**_CAUSE_FIELDS, **{name: name for name in _CTX_FIELDS},
              **{name: name for name in tpl.params}}
    return _compiled(_binder_source(
        tpl.params, tpl.expand(fields, solo=False, last=False), "h"))


def _literal(value, consts: list) -> str:
    """Source for ``value`` in a fused block: a literal, or the name of
    a bound constant."""
    if value is None or type(value) in (bool, str):
        return repr(value)
    if type(value) is int:
        return f"({value})" if value < 0 else str(value)
    consts.append(value)
    return f"k{len(consts) - 1}"


# ---------------------------------------------------------------------------
# Basic-block construction
# ---------------------------------------------------------------------------

_fused_blocks = 0


@dataclass(frozen=True)
class DecodedBlock:
    """One basic block as ops.

    ``ops`` covers every non-terminating instruction (fetch checks
    interleaved in front of their instruction); the block's control
    transfer is ``term``.  ``starts[k]`` is the offset of instruction
    *k*'s first op, used when an instruction limit lands inside the
    block of a lane of one.  ``mix`` is the per-class instruction
    histogram, folded into :class:`~repro.cpu.statistics.ExecStats`
    once per block execution rather than once per instruction.
    """

    start: int
    length: int
    ops: tuple
    term: _Op
    starts: tuple[int, ...]
    mix: tuple

    def bind(self, ctx) -> tuple[tuple, object]:
        """``(handlers, term)``: per-instruction handlers bound to
        ``ctx``; ``term()`` returns the next block index."""
        return tuple(op.bind(ctx) for op in self.ops), self.term.bind(ctx)

    def fuse(self, ctx, solo: bool):
        """The whole block as one function bound to ``ctx``: it returns
        the next block index.  ``solo`` renders it for a lane of one."""
        global _fused_blocks
        consts: list = []
        fields = dict(_CAUSE_FIELDS)
        fields.update((name, _literal(getattr(ctx, name), consts))
                      for name in _CTX_FIELDS)
        lines = ["t = sc[4]"] if solo else []
        for op in (*self.ops, self.term):
            tpl, vals = op.resolve(ctx)
            fields.update(zip(tpl.params,
                              [_literal(v, consts) for v in vals],
                              strict=True))
            lines += tpl.expand(fields, solo, op is self.term)
        head = []
        if solo:
            head.append(f"{_VIEWS['pdi']}, frdy, fcz = ctx.solo")
        if consts:
            head.append(f"{', '.join(f'k{i}' for i in range(len(consts)))},"
                        " = consts")
        binder = _compiled(_binder_source(("consts",), lines, "block", head))
        _fused_blocks += 1
        return binder(ctx, tuple(consts))


@dataclass(frozen=True)
class DecodedProgram:
    """All basic blocks of one program (entry is ``blocks[0]``)."""

    blocks: tuple[DecodedBlock, ...]
    n: int
    name: str
    insns_per_line: int


def _build(program: Program, insns_per_line: int) -> DecodedProgram:
    insns = program.instructions
    n = len(insns)
    control = (InsnClass.BRANCH, InsnClass.JUMP)
    leaders = {0}
    for i, insn in enumerate(insns):
        iclass = insn.info.iclass
        if iclass in control:
            if insn.target_index is not None and insn.target_index < n:
                leaders.add(insn.target_index)
            leaders.add(i + 1)
        elif insn.op is Opcode.HALT:
            leaders.add(i + 1)
    ordered = sorted(x for x in leaders if x < n)
    block_of = {pc: bi for bi, pc in enumerate(ordered)}
    bounds = ordered + [n]

    blocks = []
    for bi, start in enumerate(ordered):
        end = bounds[bi + 1]
        ops: list[_Op] = []
        starts: list[int] = []
        mix: Counter = Counter()
        term = None
        for pc in range(start, end):
            insn = insns[pc]
            starts.append(len(ops))
            mix[insn.info.iclass] += 1
            line = pc // insns_per_line
            if pc == start or pc % insns_per_line == 0:
                ops.append(_Op(_fetch_tpl(pc == start),
                               faddr=pc * _INSN_BYTES, line=line))
            iclass = insn.info.iclass
            if iclass is InsnClass.BRANCH:
                ti = insn.target_index
                term = _Op(_branch_tpl(insn.op), s1=insn.rs1, s2=insn.rs2,
                           tbi=block_of[ti] if ti < n else -2,
                           fbi=block_of.get(pc + 1, -2))
            elif iclass is InsnClass.JUMP:
                ti = insn.target_index
                term = _Op(_JUMP, tbi=block_of[ti] if ti < n else -2)
            elif insn.op is Opcode.HALT:
                term = _Op(_HALT)
            else:
                ops.append(_exec_op(insn))
        if term is None:
            term = _Op(_FALL, fbi=block_of.get(end, -2))
        blocks.append(DecodedBlock(
            start=start,
            length=end - start,
            ops=tuple(ops),
            term=term,
            starts=tuple(starts),
            mix=tuple(mix.items()),
        ))
    return DecodedProgram(
        blocks=tuple(blocks), n=n, name=program.name,
        insns_per_line=insns_per_line,
    )


# ---------------------------------------------------------------------------
# Decode cache
# ---------------------------------------------------------------------------

# Program is a mutable (unhashable) dataclass, so the cache is keyed by
# identity and guarded by a weak reference: a dead or recycled id() can
# never serve a stale entry, and finalizers evict on collection.
_DECODE_CACHE: dict[tuple[int, int], tuple] = {}


def decode_program(program: Program,
                   insns_per_line: int | None = None) -> DecodedProgram:
    """Decode ``program`` (cached by identity and I$ line geometry).

    ``insns_per_line`` defaults to the stock I$ line geometry
    (:func:`repro.cpu.cache.icache_config`), matching a default
    :class:`~repro.cpu.core.CoreConfig`.
    """
    if insns_per_line is None:
        from repro.cpu.cache import icache_config

        insns_per_line = max(1,
                             icache_config().line_bytes // _INSN_BYTES)
    key = (id(program), insns_per_line)
    entry = _DECODE_CACHE.get(key)
    if entry is not None and entry[0]() is program:
        return entry[1]
    if not program.is_linked:
        program.link()
    program.validate()
    decoded = _build(program, insns_per_line)
    _DECODE_CACHE[key] = (weakref.ref(program), decoded)
    weakref.finalize(program, _DECODE_CACHE.pop, key, None)
    return decoded


def decode_cache_size() -> int:
    """Number of live decoded programs (for tests and cache stats)."""
    return len(_DECODE_CACHE)


def fused_block_count() -> int:
    """Blocks rendered as fused functions since the caches were last
    cleared (for tests and the parity smoke)."""
    return _fused_blocks


def clear_decode_caches() -> None:
    """Drop all decoded programs, all compiled handler and block code,
    and the fused-block count."""
    global _fused_blocks
    _DECODE_CACHE.clear()
    _handler_binder.cache_clear()
    _compiled.cache_clear()
    _fused_blocks = 0
