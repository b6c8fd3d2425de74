"""The instruction rules every timing model reads: one definition each.

Two implementations execute the same in-order OpenSPARC-T1-flavoured
pipeline: the reference core's interpreter loop
(:meth:`repro.cpu.core.Core.run`, which the static cost walker of
:mod:`repro.analysis.perf` also runs, over unknown values) and the
lockstep handlers (:mod:`repro.cpu.decode`).  This module holds what
they would otherwise each restate:

- the **source-register rules** — which registers an instruction waits
  on before it may issue (:func:`int_alu_srcs`, :func:`fp_insn_srcs`);
- the **value semantics** of every integer, FP and branch opcode, as
  expression templates (``_INT_EXPR``, ``_FP_EXPR``, ``_BRANCH_EXPR``)
  that the lockstep templates inline over register reads
  (:func:`int_expr`, :func:`fp_expr`, :func:`branch_expr`) and that
  compile into plain functions (:func:`int_op`, :func:`fp_op`, the
  branch comparators) the reference loop calls with operand values;
- the **per-pc static table** (:func:`decode_table`) the reference
  loop dispatches on: kind, sources, immediate, result latency,
  evaluator, DySER LSU occupancy and FP-to-integer retirement.
"""

from __future__ import annotations

import math

from repro.cpu.regfile import wrap64
from repro.dyser.ops import int_div, int_rem
from repro.isa.opcodes import InsnClass, MULTI_OPS, OP_INFO, Opcode

# ---------------------------------------------------------------------------
# Source-register rules
# ---------------------------------------------------------------------------


def int_alu_srcs(insn) -> tuple:
    """Timing source registers of an integer ALU/MUL/DIV instruction.

    SEL waits on all three sources; register-immediate forms (mnemonics
    ending in ``i`` with an immediate present) wait only on rs1;
    everything else on rs1+rs2.
    """
    op = insn.op
    if op is Opcode.SEL:
        return (insn.rs1, insn.rs2, insn.rs3)
    if insn.imm is not None and op.value.endswith("i"):
        return (insn.rs1,)
    return (insn.rs1, insn.rs2)


def fp_insn_srcs(insn) -> tuple[tuple, tuple]:
    """(int_srcs, fp_srcs) of an FPU/FDIV instruction, in operand order:
    the first operand of ``i2f`` and ``fsel`` is an integer register,
    every other operand an FP register."""
    regs = (insn.rs1, insn.rs2, insn.rs3)[:_FP_ARITY[insn.op.value]]
    if insn.op in _FP_INT_SRC:
        return regs[:1], regs[1:]
    return (), regs


#: FP-class opcodes that retire into the *integer* register file.
FP_INT_DEST = frozenset({Opcode.FLT, Opcode.FLE, Opcode.FEQ, Opcode.F2I})

#: FP-class opcodes whose first operand is an integer register.
_FP_INT_SRC = frozenset({Opcode.I2F, Opcode.FSEL})


# ---------------------------------------------------------------------------
# Value semantics (tiny exec-codegen, cached per pattern)
# ---------------------------------------------------------------------------

#: Expression template per integer opcode; ``{a}``/``{b}`` are the
#: operand slots.
_INT_EXPR = {
    "add": "{a} + {b}", "addi": "{a} + {b}",
    "sub": "{a} - {b}",
    "mul": "{a} * {b}", "muli": "{a} * {b}",
    "div": "int_div({a}, {b})",
    "rem": "int_rem({a}, {b})",
    "and": "{a} & {b}", "andi": "{a} & {b}",
    "or": "{a} | {b}", "ori": "{a} | {b}",
    "xor": "{a} ^ {b}", "xori": "{a} ^ {b}",
    "sll": "{a} << ({b} & 63)", "slli": "{a} << ({b} & 63)",
    "srl": "({a} & 18446744073709551615) >> ({b} & 63)",
    "srli": "({a} & 18446744073709551615) >> ({b} & 63)",
    "sra": "{a} >> ({b} & 63)", "srai": "{a} >> ({b} & 63)",
    "slt": "1 if {a} < {b} else 0", "slti": "1 if {a} < {b} else 0",
    "seq": "1 if {a} == {b} else 0",
    "min": "min({a}, {b})", "max": "max({a}, {b})",
}

#: Expression template per FP-class opcode; ``{a}``/``{b}``/``{c}``
#: are the operands in :func:`fp_insn_srcs` order.  ``_v`` names a
#: value read once and used twice.
_FP_EXPR = {
    "i2f": "float({a})",
    "fadd": "{a} + {b}",
    "fsub": "{a} - {b}",
    "fmul": "{a} * {b}",
    "fdiv": "{a} / _v if (_v := {b}) else inf",
    "fsqrt": "sqrt(_v) if (_v := {a}) >= 0.0 else nan",
    "fneg": "-{a}",
    "fabs": "abs({a})",
    "fmin": "min({a}, {b})",
    "fmax": "max({a}, {b})",
    "fsel": "{b} if {a} else {c}",
    "flt": "1 if {a} < {b} else 0",
    "fle": "1 if {a} <= {b} else 0",
    "feq": "1 if {a} == {b} else 0",
    "f2i": "wrap64(int({a}))",
}

#: Operand count of each FP-class opcode, read off its template.
_FP_ARITY = {op: sum(f"{{{s}}}" in expr for s in "abc")
             for op, expr in _FP_EXPR.items()}

_NS = {"int_div": int_div, "int_rem": int_rem, "min": min, "max": max,
       "abs": abs, "float": float, "int": int, "wrap64": wrap64,
       "sqrt": math.sqrt, "inf": math.inf, "nan": math.nan}

_OPS: dict[str, object] = {}


def _compile(source: str, name: str):
    ns = dict(_NS)
    exec(source, ns)  # noqa: S102 - static templates above, no external input
    return ns[name]


def int_expr(op_value: str, a: str, b: str) -> str:
    """Source of an integer op over operand expressions ``a`` and
    ``b``, before the 64-bit wrap."""
    return _INT_EXPR[op_value].format(a=a, b=b)


def fp_expr(op_value: str, a: str, b: str, c: str) -> str:
    """Source of an FP-class op over operand expressions in
    :func:`fp_insn_srcs` order (``_v`` is a scratch name)."""
    return _FP_EXPR[op_value].format(a=a, b=b, c=c)


def int_op(op_value: str):
    """``(a, b) -> result`` function of an integer op, its result
    wrapped to 64 bits (cached per op; integer and FP mnemonics never
    collide)."""
    fn = _OPS.get(op_value)
    if fn is None:
        fn = _OPS[op_value] = _compile(
            f"def fn(a, b):\n"
            f"    v = {int_expr(op_value, 'a', 'b')}\n"
            f"    return v if {-(1 << 63)} <= v < {1 << 63} else wrap64(v)\n",
            "fn")
    return fn


def fp_op(op_value: str):
    """Function of an FP-class op over its operand values, in
    :func:`fp_insn_srcs` order (cached per op)."""
    fn = _OPS.get(op_value)
    if fn is None:
        params = "abc"[:_FP_ARITY[op_value]]
        fn = _OPS[op_value] = _compile(
            f"def fn({', '.join(params)}):\n"
            f"    return {fp_expr(op_value, 'a', 'b', 'c')}\n", "fn")
    return fn


#: Condition of each branch opcode over its two register operands.
_BRANCH_EXPR = {
    Opcode.BEQ: "{a} == {b}",
    Opcode.BNE: "{a} != {b}",
    Opcode.BLT: "{a} < {b}",
    Opcode.BGE: "{a} >= {b}",
    Opcode.BLE: "{a} <= {b}",
    Opcode.BGT: "{a} > {b}",
}


def branch_expr(op, a: str, b: str) -> str:
    """Source of a branch condition over operand expressions."""
    return _BRANCH_EXPR[op].format(a=a, b=b)


_BRANCH_TAKEN = {
    op: _compile(f"def fn(a, b):\n    return {branch_expr(op, 'a', 'b')}\n",
                 "fn")
    for op in _BRANCH_EXPR
}


# ---------------------------------------------------------------------------
# The per-pc static table
# ---------------------------------------------------------------------------

#: Dispatch kinds, in the order ``Core.run`` tests them: the integer
#: ALU kinds come first (``<= K_SEL``), and the two load kinds and the
#: two store kinds are adjacent, so it tells them apart by range.
(K_ALU, K_SEL, K_BRANCH, K_LD, K_FLD, K_FPU, K_DYSER, K_MOV, K_LI, K_ST,
 K_FST, K_JUMP, K_FLI, K_FMOV, K_NOP, K_HALT, K_BAD_IMM,
 K_UNHANDLED) = range(18)

_CLASS_KIND = {
    InsnClass.ALU: K_ALU, InsnClass.MUL: K_ALU, InsnClass.DIV: K_ALU,
    InsnClass.FPU: K_FPU, InsnClass.FDIV: K_FPU,
    InsnClass.BRANCH: K_BRANCH, InsnClass.JUMP: K_JUMP,
}
_KIND_OF_OP = {
    op: _CLASS_KIND.get(info.iclass,
                        K_DYSER if info.is_dyser else K_UNHANDLED)
    for op, info in OP_INFO.items()
}
# Ops whose arm differs from the rest of their class.
_KIND_OF_OP.update({
    Opcode.SEL: K_SEL, Opcode.LD: K_LD, Opcode.FLD: K_FLD,
    Opcode.MOV: K_MOV, Opcode.LI: K_LI, Opcode.ST: K_ST, Opcode.FST: K_FST,
    Opcode.FLI: K_FLI, Opcode.FMOV: K_FMOV, Opcode.NOP: K_NOP,
    Opcode.HALT: K_HALT,
})


class _Unconvertible:
    """A load or store immediate ``int()`` rejects.  Adding it to a
    base address raises what the conversion raised, so the fault lands
    where the instruction executes, not where the table is built."""

    def __init__(self, exc: Exception) -> None:
        self.exc = exc

    def __radd__(self, base):
        raise self.exc


def decode_table(instructions: list, config) -> tuple[list, ...]:
    """Static per-pc facts of a program under one ``CoreConfig``.

    Eight lists indexed by pc: the dispatch kind; the integer and FP
    source registers the instruction waits on; the immediate as an int
    (wrapped to 64 bits for ``li``, a float for ``fli``); the result
    latency; the evaluator (an :func:`int_op`, :func:`fp_op` or branch
    comparator); for DySER memory ops, the issue slots the transfer
    holds the LSU for; and whether an FPU op retires into the integer
    register file (:data:`FP_INT_DEST`).  Any
    other immediate ``int()`` or ``float()`` rejects gives kind
    ``K_BAD_IMM`` and its exception in place of the evaluator, raised
    when execution reaches it.
    """
    rows: list[tuple] = []
    rate = max(1, config.vector_port_words_per_cycle)
    for insn in instructions:
        op = insn.op
        kind = _KIND_OF_OP[op]
        int_srcs: tuple = ()
        fp_srcs: tuple = ()
        imm: object = None
        func: object = None
        occ: int | None = None
        try:
            if kind <= K_SEL:
                int_srcs = int_alu_srcs(insn)
                if kind == K_ALU:
                    func = int_op(op.value)
                    if insn.imm is not None:
                        imm = int(insn.imm)
            elif kind == K_FPU:
                int_srcs, fp_srcs = fp_insn_srcs(insn)
                func = fp_op(op.value)
            elif kind == K_BRANCH:
                int_srcs = (insn.rs1, insn.rs2)
                func = _BRANCH_TAKEN[op]
            elif kind in (K_LD, K_FLD, K_MOV):
                int_srcs = (insn.rs1,)
            elif kind == K_ST:
                int_srcs = (insn.rs1, insn.rs2)
            elif kind == K_FST:
                int_srcs, fp_srcs = (insn.rs1,), (insn.rs2,)
            elif kind == K_FMOV:
                fp_srcs = (insn.rs1,)
            elif kind == K_DYSER and insn.info.is_memory:
                # A vector count int() rejects is raised by the DySER
                # arm before this occupancy is used.
                occ = (max(1, int(insn.imm) // rate)
                       if op in MULTI_OPS else 1)
            if kind in (K_LD, K_FLD, K_ST, K_FST):
                imm = int(insn.imm)
            elif kind == K_LI:
                imm = wrap64(int(insn.imm))
            elif kind == K_FLI:
                imm = float(insn.imm)
        except (OverflowError, ValueError, TypeError) as exc:
            if kind in (K_LD, K_FLD, K_ST, K_FST):
                imm = _Unconvertible(exc)
            elif kind != K_DYSER:
                kind, func = K_BAD_IMM, exc
        rows.append((kind, int_srcs, fp_srcs, imm,
                     config.latency_for(insn.info.iclass), func, occ,
                     kind == K_FPU and op in FP_INT_DEST))
    return tuple(list(column) for column in zip(*rows))
