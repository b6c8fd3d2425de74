"""Opcode definitions for the SPARC-flavoured host ISA plus DySER extension.

The prototype paper integrates DySER into the OpenSPARC T1 pipeline.  We do
not model SPARC encodings (register windows, condition codes); instead we
define a load/store RISC ISA with the same performance-relevant structure:
single-issue integer pipeline, separate FP register file, explicit
load/store, compare-and-branch, plus the DySER extension instructions the
paper's ISA interface defines (``dyser_init``, ``dyser_send``,
``dyser_recv``, ``dyser_load``, ``dyser_store`` and vector variants).

Each opcode carries static metadata used by the assembler, the functional
executor and the timing model: its operand signature, instruction class,
and whether it touches the FP register file.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class InsnClass(enum.Enum):
    """Coarse instruction class used for timing and statistics."""

    ALU = "alu"              # integer arithmetic/logic
    MUL = "mul"              # integer multiply
    DIV = "div"              # integer divide/remainder
    FPU = "fpu"              # FP add/sub/mul/compare/convert/select
    FDIV = "fdiv"            # FP divide and sqrt
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    MOVE = "move"            # register moves / immediates
    DYSER_INIT = "dyser_init"
    DYSER_SEND = "dyser_send"
    DYSER_RECV = "dyser_recv"
    DYSER_LOAD = "dyser_load"
    DYSER_STORE = "dyser_store"
    SYSTEM = "system"        # halt, nop


class Opcode(enum.Enum):
    """Every instruction the host core understands."""

    # Integer ALU, register-register.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    SLT = "slt"              # rd = (rs1 < rs2) ? 1 : 0, signed
    SEQ = "seq"              # rd = (rs1 == rs2) ? 1 : 0
    MIN = "min"
    MAX = "max"
    SEL = "sel"              # rd = rs1 ? rs2 : rs3 (if-conversion support)

    # Integer ALU, register-immediate.
    ADDI = "addi"
    MULI = "muli"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLLI = "slli"
    SRLI = "srli"
    SRAI = "srai"
    SLTI = "slti"

    # Moves and constants.
    LI = "li"                # rd = imm (64-bit)
    MOV = "mov"              # rd = rs1
    FLI = "fli"              # fd = float imm
    FMOV = "fmov"            # fd = fs1
    I2F = "i2f"              # fd = float(rs1)
    F2I = "f2i"              # rd = int(fs1), truncating

    # Floating point (double precision).
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FSQRT = "fsqrt"
    FNEG = "fneg"
    FABS = "fabs"
    FMIN = "fmin"
    FMAX = "fmax"
    FLT = "flt"              # rd(int) = (fs1 < fs2)
    FLE = "fle"              # rd(int) = (fs1 <= fs2)
    FEQ = "feq"              # rd(int) = (fs1 == fs2)
    FSEL = "fsel"            # fd = rs1 ? fs2 : fs3

    # Memory: 8-byte words, base register + immediate byte offset.
    LD = "ld"                # rd = mem[rs1 + imm] as int
    ST = "st"                # mem[rs1 + imm] = rs2
    FLD = "fld"              # fd = mem[rs1 + imm] as float
    FST = "fst"              # mem[rs1 + imm] = fs2

    # Control flow: compare-and-branch to a label.
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BLE = "ble"
    BGT = "bgt"
    J = "j"                  # unconditional jump to label

    # DySER extension (the paper's accelerator interface).
    DINIT = "dinit"          # load configuration `imm` into the fabric
    DSEND = "dsend"          # send int rs1 to input port `port`
    DFSEND = "dfsend"        # send float fs1 to input port `port`
    DRECV = "drecv"          # rd = receive from output port `port`
    DFRECV = "dfrecv"        # fd = receive from output port `port`
    DLD = "dld"              # mem[rs1 + imm] -> input port (int path)
    DFLD = "dfld"            # mem[rs1 + imm] -> input port (float path)
    DST = "dst"              # output port -> mem[rs1 + imm] (int path)
    DFST = "dfst"            # output port -> mem[rs1 + imm] (float path)
    # Vector (temporal): imm consecutive words stream into ONE port's FIFO,
    # feeding imm successive invocations.
    DLDV = "dldv"            # mem[rs1..rs1+8*imm) -> port (int path)
    DFLDV = "dfldv"
    DSTV = "dstv"            # port -> mem[rs1..], imm values (int path)
    DFSTV = "dfstv"
    # Wide (spatial): imm consecutive words spread across ports
    # port..port+imm-1, all feeding the SAME invocation — DySER's wide
    # vector port interface, which enables in-fabric reduction trees.
    DLDW = "dldw"            # mem[rs1..] -> ports port.. (int path)
    DFLDW = "dfldw"
    DSTW = "dstw"            # ports port.. -> mem[rs1..] (int path)
    DFSTW = "dfstw"

    # System.
    NOP = "nop"
    HALT = "halt"


@dataclass(frozen=True)
class OpInfo:
    """Static properties of one opcode.

    ``signature`` is a tuple of operand kinds, in assembly order, drawn
    from: ``rd``, ``rs1``, ``rs2``, ``rs3``, ``fd``, ``fs1``, ``fs2``,
    ``fs3``, ``imm``, ``port``, ``label``.
    """

    opcode: Opcode
    iclass: InsnClass
    signature: tuple[str, ...]
    commutative: bool = False

    @property
    def writes_fp(self) -> bool:
        return "fd" in self.signature

    @property
    def is_branch(self) -> bool:
        return self.iclass in (InsnClass.BRANCH, InsnClass.JUMP)

    @property
    def is_dyser(self) -> bool:
        return self.iclass in (
            InsnClass.DYSER_INIT,
            InsnClass.DYSER_SEND,
            InsnClass.DYSER_RECV,
            InsnClass.DYSER_LOAD,
            InsnClass.DYSER_STORE,
        )

    @property
    def is_memory(self) -> bool:
        return self.iclass in (
            InsnClass.LOAD,
            InsnClass.STORE,
            InsnClass.DYSER_LOAD,
            InsnClass.DYSER_STORE,
        )


def _build_table() -> dict[Opcode, OpInfo]:
    O, C = Opcode, InsnClass
    rrr = ("rd", "rs1", "rs2")
    fff = ("fd", "fs1", "fs2")
    rri = ("rd", "rs1", "imm")
    entries: list[OpInfo] = [
        OpInfo(O.ADD, C.ALU, rrr, commutative=True),
        OpInfo(O.SUB, C.ALU, rrr),
        OpInfo(O.MUL, C.MUL, rrr, commutative=True),
        OpInfo(O.DIV, C.DIV, rrr),
        OpInfo(O.REM, C.DIV, rrr),
        OpInfo(O.AND, C.ALU, rrr, commutative=True),
        OpInfo(O.OR, C.ALU, rrr, commutative=True),
        OpInfo(O.XOR, C.ALU, rrr, commutative=True),
        OpInfo(O.SLL, C.ALU, rrr),
        OpInfo(O.SRL, C.ALU, rrr),
        OpInfo(O.SRA, C.ALU, rrr),
        OpInfo(O.SLT, C.ALU, rrr),
        OpInfo(O.SEQ, C.ALU, rrr, commutative=True),
        OpInfo(O.MIN, C.ALU, rrr, commutative=True),
        OpInfo(O.MAX, C.ALU, rrr, commutative=True),
        OpInfo(O.SEL, C.ALU, ("rd", "rs1", "rs2", "rs3")),
        OpInfo(O.ADDI, C.ALU, rri),
        OpInfo(O.MULI, C.MUL, rri),
        OpInfo(O.ANDI, C.ALU, rri),
        OpInfo(O.ORI, C.ALU, rri),
        OpInfo(O.XORI, C.ALU, rri),
        OpInfo(O.SLLI, C.ALU, rri),
        OpInfo(O.SRLI, C.ALU, rri),
        OpInfo(O.SRAI, C.ALU, rri),
        OpInfo(O.SLTI, C.ALU, rri),
        OpInfo(O.LI, C.MOVE, ("rd", "imm")),
        OpInfo(O.MOV, C.MOVE, ("rd", "rs1")),
        OpInfo(O.FLI, C.MOVE, ("fd", "imm")),
        OpInfo(O.FMOV, C.MOVE, ("fd", "fs1")),
        OpInfo(O.I2F, C.FPU, ("fd", "rs1")),
        OpInfo(O.F2I, C.FPU, ("rd", "fs1")),
        OpInfo(O.FADD, C.FPU, fff, commutative=True),
        OpInfo(O.FSUB, C.FPU, fff),
        OpInfo(O.FMUL, C.FPU, fff, commutative=True),
        OpInfo(O.FDIV, C.FDIV, fff),
        OpInfo(O.FSQRT, C.FDIV, ("fd", "fs1")),
        OpInfo(O.FNEG, C.FPU, ("fd", "fs1")),
        OpInfo(O.FABS, C.FPU, ("fd", "fs1")),
        OpInfo(O.FMIN, C.FPU, fff, commutative=True),
        OpInfo(O.FMAX, C.FPU, fff, commutative=True),
        OpInfo(O.FLT, C.FPU, ("rd", "fs1", "fs2")),
        OpInfo(O.FLE, C.FPU, ("rd", "fs1", "fs2")),
        OpInfo(O.FEQ, C.FPU, ("rd", "fs1", "fs2"), commutative=True),
        OpInfo(O.FSEL, C.FPU, ("fd", "rs1", "fs2", "fs3")),
        OpInfo(O.LD, C.LOAD, ("rd", "rs1", "imm")),
        OpInfo(O.ST, C.STORE, ("rs2", "rs1", "imm")),
        OpInfo(O.FLD, C.LOAD, ("fd", "rs1", "imm")),
        OpInfo(O.FST, C.STORE, ("fs2", "rs1", "imm")),
        OpInfo(O.BEQ, C.BRANCH, ("rs1", "rs2", "label")),
        OpInfo(O.BNE, C.BRANCH, ("rs1", "rs2", "label")),
        OpInfo(O.BLT, C.BRANCH, ("rs1", "rs2", "label")),
        OpInfo(O.BGE, C.BRANCH, ("rs1", "rs2", "label")),
        OpInfo(O.BLE, C.BRANCH, ("rs1", "rs2", "label")),
        OpInfo(O.BGT, C.BRANCH, ("rs1", "rs2", "label")),
        OpInfo(O.J, C.JUMP, ("label",)),
        OpInfo(O.DINIT, C.DYSER_INIT, ("imm",)),
        OpInfo(O.DSEND, C.DYSER_SEND, ("port", "rs1")),
        OpInfo(O.DFSEND, C.DYSER_SEND, ("port", "fs1")),
        OpInfo(O.DRECV, C.DYSER_RECV, ("rd", "port")),
        OpInfo(O.DFRECV, C.DYSER_RECV, ("fd", "port")),
        OpInfo(O.DLD, C.DYSER_LOAD, ("port", "rs1", "imm")),
        OpInfo(O.DFLD, C.DYSER_LOAD, ("port", "rs1", "imm")),
        OpInfo(O.DST, C.DYSER_STORE, ("port", "rs1", "imm")),
        OpInfo(O.DFST, C.DYSER_STORE, ("port", "rs1", "imm")),
        OpInfo(O.DLDV, C.DYSER_LOAD, ("port", "rs1", "imm")),
        OpInfo(O.DFLDV, C.DYSER_LOAD, ("port", "rs1", "imm")),
        OpInfo(O.DSTV, C.DYSER_STORE, ("port", "rs1", "imm")),
        OpInfo(O.DFSTV, C.DYSER_STORE, ("port", "rs1", "imm")),
        OpInfo(O.DLDW, C.DYSER_LOAD, ("port", "rs1", "imm")),
        OpInfo(O.DFLDW, C.DYSER_LOAD, ("port", "rs1", "imm")),
        OpInfo(O.DSTW, C.DYSER_STORE, ("port", "rs1", "imm")),
        OpInfo(O.DFSTW, C.DYSER_STORE, ("port", "rs1", "imm")),
        OpInfo(O.NOP, C.SYSTEM, ()),
        OpInfo(O.HALT, C.SYSTEM, ()),
    ]
    table = {e.opcode: e for e in entries}
    missing = set(Opcode) - set(table)
    if missing:  # pragma: no cover - construction-time sanity check
        raise AssertionError(f"opcodes without OpInfo: {missing}")
    return table


#: Static metadata for every opcode.
OP_INFO: dict[Opcode, OpInfo] = _build_table()

#: Temporal vector transfers: ``imm`` elements stream into one port FIFO.
VECTOR_OPS = frozenset(
    {Opcode.DLDV, Opcode.DFLDV, Opcode.DSTV, Opcode.DFSTV}
)

#: Wide (spatial) transfers: ``imm`` elements spread across adjacent ports.
WIDE_OPS = frozenset(
    {Opcode.DLDW, Opcode.DFLDW, Opcode.DSTW, Opcode.DFSTW}
)

#: All multi-element DySER transfers.
MULTI_OPS = VECTOR_OPS | WIDE_OPS

#: DySER opcodes operating on the FP value path.
FP_PATH_DYSER_OPS = frozenset(
    {Opcode.DFSEND, Opcode.DFRECV, Opcode.DFLD, Opcode.DFST,
     Opcode.DFLDV, Opcode.DFSTV, Opcode.DFLDW, Opcode.DFSTW}
)


def info(op: Opcode) -> OpInfo:
    """Return the :class:`OpInfo` for ``op``."""
    return OP_INFO[op]
