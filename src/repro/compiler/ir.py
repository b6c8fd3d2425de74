"""SSA intermediate representation.

Compute instructions reuse :class:`repro.dyser.ops.FuOp` for their opcodes
— deliberately: the execute slice of a region becomes a DySER DFG by a
direct op-for-op mapping, which is the essence of the co-design.  Memory
access, phis and copies are IR-only and always stay on the host core.

A function is a CFG of basic blocks.  Operands are either :class:`Value`
(virtual registers, defined exactly once) or :class:`Const`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.types import Scalar
from repro.dyser.ops import FU_OP_INFO, FuOp
from repro.errors import CompilerError


@dataclass(frozen=True, eq=False)
class Value:
    """An SSA virtual register."""

    id: int
    scalar: Scalar
    name: str = ""

    def __repr__(self) -> str:
        prefix = "%f" if self.scalar is Scalar.FLOAT else "%i"
        suffix = f".{self.name}" if self.name else ""
        return f"{prefix}{self.id}{suffix}"


@dataclass(frozen=True)
class Const:
    """A compile-time constant operand."""

    value: int | float
    scalar: Scalar

    def __repr__(self) -> str:
        return repr(self.value)


Operand = Value | Const


def const_int(v: int) -> Const:
    return Const(int(v), Scalar.INT)


# -- instructions ------------------------------------------------------------


@dataclass(eq=False)
class Instr:
    """Base class; ``result`` is None for instructions with no def."""

    result: Value | None = None

    def uses(self) -> list[Operand]:
        raise NotImplementedError

    def replace_uses(self, mapping: dict[Value, Operand]) -> None:
        raise NotImplementedError


@dataclass(eq=False)
class Compute(Instr):
    """Pure computation; directly mappable onto a DySER FU."""

    op: FuOp = FuOp.ADD
    args: list[Operand] = field(default_factory=list)

    def __post_init__(self) -> None:
        arity = FU_OP_INFO[self.op].arity
        if len(self.args) != arity:
            raise CompilerError(
                f"{self.op.value}: expected {arity} args, got "
                f"{len(self.args)}")

    def uses(self) -> list[Operand]:
        return list(self.args)

    def replace_uses(self, mapping: dict[Value, Operand]) -> None:
        self.args = [mapping.get(a, a) if isinstance(a, Value) else a
                     for a in self.args]

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return f"{self.result!r} = {self.op.value} {args}"


@dataclass(eq=False)
class Load(Instr):
    """result = mem[addr]; addr is a byte address (int-typed operand)."""

    addr: Operand = None  # type: ignore[assignment]

    def uses(self) -> list[Operand]:
        return [self.addr]

    def replace_uses(self, mapping: dict[Value, Operand]) -> None:
        if isinstance(self.addr, Value):
            self.addr = mapping.get(self.addr, self.addr)

    def __repr__(self) -> str:
        return f"{self.result!r} = load [{self.addr!r}]"


@dataclass(eq=False)
class Store(Instr):
    """mem[addr] = value."""

    addr: Operand = None  # type: ignore[assignment]
    value: Operand = None  # type: ignore[assignment]

    def uses(self) -> list[Operand]:
        return [self.addr, self.value]

    def replace_uses(self, mapping: dict[Value, Operand]) -> None:
        if isinstance(self.addr, Value):
            self.addr = mapping.get(self.addr, self.addr)
        if isinstance(self.value, Value):
            self.value = mapping.get(self.value, self.value)

    def __repr__(self) -> str:
        return f"store [{self.addr!r}] = {self.value!r}"


@dataclass(eq=False)
class Copy(Instr):
    """result = src (introduced by out-of-SSA lowering)."""

    src: Operand = None  # type: ignore[assignment]

    def uses(self) -> list[Operand]:
        return [self.src]

    def replace_uses(self, mapping: dict[Value, Operand]) -> None:
        if isinstance(self.src, Value):
            self.src = mapping.get(self.src, self.src)

    def __repr__(self) -> str:
        return f"{self.result!r} = copy {self.src!r}"


@dataclass(eq=False)
class Phi(Instr):
    """SSA phi: result = phi [pred_block -> operand]."""

    incomings: dict[str, Operand] = field(default_factory=dict)

    def uses(self) -> list[Operand]:
        return list(self.incomings.values())

    def replace_uses(self, mapping: dict[Value, Operand]) -> None:
        self.incomings = {
            b: (mapping.get(v, v) if isinstance(v, Value) else v)
            for b, v in self.incomings.items()
        }

    def __repr__(self) -> str:
        inc = ", ".join(f"[{b}: {v!r}]" for b, v in self.incomings.items())
        return f"{self.result!r} = phi {inc}"


# -- terminators -----------------------------------------------------------------


@dataclass(eq=False)
class Jump:
    target: str

    def successors(self) -> list[str]:
        return [self.target]

    def uses(self) -> list[Operand]:
        return []

    def __repr__(self) -> str:
        return f"jump {self.target}"


@dataclass(eq=False)
class CondBr:
    cond: Operand
    if_true: str
    if_false: str

    def successors(self) -> list[str]:
        return [self.if_true, self.if_false]

    def uses(self) -> list[Operand]:
        return [self.cond]

    def __repr__(self) -> str:
        return f"br {self.cond!r} ? {self.if_true} : {self.if_false}"


@dataclass(eq=False)
class Ret:
    def successors(self) -> list[str]:
        return []

    def uses(self) -> list[Operand]:
        return []

    def __repr__(self) -> str:
        return "ret"


Terminator = Jump | CondBr | Ret


# -- blocks and functions ------------------------------------------------------------


@dataclass(eq=False)
class Block:
    name: str
    phis: list[Phi] = field(default_factory=list)
    instrs: list[Instr] = field(default_factory=list)
    terminator: Terminator | None = None

    def all_instrs(self) -> list[Instr]:
        return [*self.phis, *self.instrs]

    def __repr__(self) -> str:
        return f"<block {self.name}>"


@dataclass
class Param:
    """Kernel parameter: arrays arrive as base addresses (int values)."""

    name: str
    scalar: Scalar
    is_array: bool
    is_out: bool
    value: Value = None  # type: ignore[assignment]


class Function:
    """A kernel lowered to SSA form."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.params: list[Param] = []
        self.blocks: dict[str, Block] = {}
        self.entry = "entry"
        # Plain ints (not itertools.count) so Functions pickle cleanly;
        # the region selector clones the function per offload attempt.
        self._next_value_id = 0
        self._next_block_id = 0

    # -- construction helpers -------------------------------------------

    def new_value(self, scalar: Scalar, name: str = "") -> Value:
        value = Value(self._next_value_id, scalar, name)
        self._next_value_id += 1
        return value

    def new_block(self, hint: str = "bb") -> Block:
        name = f"{hint}{self._next_block_id}"
        self._next_block_id += 1
        block = Block(name)
        self.blocks[name] = block
        return block

    def add_entry(self) -> Block:
        block = Block(self.entry)
        self.blocks[self.entry] = block
        return block

    # -- queries --------------------------------------------------------

    def block_order(self) -> list[Block]:
        """Blocks in reverse-postorder from the entry."""
        seen: set[str] = set()
        order: list[Block] = []

        def visit(name: str) -> None:
            if name in seen:
                return
            seen.add(name)
            block = self.blocks[name]
            for succ in (block.terminator.successors()
                         if block.terminator else []):
                visit(succ)
            order.append(block)

        visit(self.entry)
        order.reverse()
        # Unreachable blocks go last (and are candidates for removal).
        for block in self.blocks.values():
            if block.name not in seen:
                order.append(block)
        return order

    def predecessors(self) -> dict[str, list[str]]:
        preds: dict[str, list[str]] = {name: [] for name in self.blocks}
        for block in self.blocks.values():
            if block.terminator is None:
                continue
            for succ in block.terminator.successors():
                preds[succ].append(block.name)
        return preds

    def defs(self) -> dict[Value, tuple[Block, Instr]]:
        table: dict[Value, tuple[Block, Instr]] = {}
        for block in self.blocks.values():
            for instr in block.all_instrs():
                if instr.result is not None:
                    table[instr.result] = (block, instr)
        return table

    # -- verification ------------------------------------------------------

    def verify(self) -> None:
        """Structural SSA checks (cheap; run after every pass in tests)."""
        defined: set[Value] = {p.value for p in self.params}
        for block in self.blocks.values():
            if block.terminator is None:
                raise CompilerError(f"{self.name}: {block.name} has no "
                                    f"terminator")
            for succ in block.terminator.successors():
                if succ not in self.blocks:
                    raise CompilerError(
                        f"{self.name}: edge to unknown block {succ}")
            for instr in block.all_instrs():
                if instr.result is not None:
                    if instr.result in defined:
                        raise CompilerError(
                            f"{self.name}: {instr.result!r} defined twice")
                    defined.add(instr.result)
        preds = self.predecessors()
        for block in self.blocks.values():
            for phi in block.phis:
                if set(phi.incomings) != set(preds[block.name]):
                    raise CompilerError(
                        f"{self.name}: phi in {block.name} has incomings "
                        f"{sorted(phi.incomings)} but predecessors are "
                        f"{sorted(preds[block.name])}")
            for instr in block.all_instrs():
                for use in instr.uses():
                    if isinstance(use, Value) and use not in defined:
                        raise CompilerError(
                            f"{self.name}: use of undefined {use!r} in "
                            f"{block.name}")
            for use in block.terminator.uses():
                if isinstance(use, Value) and use not in defined:
                    raise CompilerError(
                        f"{self.name}: terminator uses undefined {use!r}")

    # -- printing -------------------------------------------------------------

    def dump(self) -> str:
        lines = [f"function {self.name}("
                 + ", ".join(f"{p.value!r}:{p.name}" for p in self.params)
                 + ")"]
        for block in self.block_order():
            lines.append(f"{block.name}:")
            for instr in block.all_instrs():
                lines.append(f"    {instr!r}")
            lines.append(f"    {block.terminator!r}")
        return "\n".join(lines)
