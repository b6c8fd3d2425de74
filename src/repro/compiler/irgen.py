"""AST -> SSA lowering with on-the-fly SSA construction.

Uses the Braun et al. (CC 2013) algorithm: variables are written to a
per-block definition table; reads recurse through predecessors, creating
phis lazily and removing the trivial ones.  This avoids a separate
dominance-frontier pass and produces minimal-ish SSA directly.

The input is well typed: :func:`lower_kernel` runs the type checker
(:mod:`repro.compiler.typecheck`) first, so lowering only inserts the
int-to-float conversions its type rules imply.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler import ast_nodes as ast
from repro.compiler.ir import (
    Block,
    Compute,
    CondBr,
    Const,
    Function,
    Jump,
    Load,
    Operand,
    Param,
    Phi,
    Ret,
    Store,
    Value,
    const_int,
)
from repro.compiler.typecheck import check_kernel
from repro.compiler.types import Scalar
from repro.dyser.ops import FuOp
from repro.errors import CompilerError

_WORD_SHIFT = 3  # 8-byte words


@dataclass
class VarInfo:
    key: str                    # unique key into the SSA definition table
    scalar: Scalar
    base: Value | None = None   # array base address (arrays only)


class IrGen:
    """Lowers one kernel to a :class:`Function`."""

    def __init__(self, kernel: ast.Kernel) -> None:
        self.kernel = kernel
        self.func = Function(kernel.name)
        # SSA bookkeeping (Braun et al.).
        self.current_defs: dict[tuple[str, str], Operand] = {}
        self.sealed: set[str] = set()
        self.incomplete: dict[str, dict[str, Phi]] = {}
        self.var_scalars: dict[str, Scalar] = {}
        # Lexical scoping.
        self.scopes: list[dict[str, VarInfo]] = [{}]
        self._unique = 0
        # Loop context for break/continue: (continue_target, break_target).
        self.loop_stack: list[tuple[str, str]] = []

    # ---------------- scoping -------------------------------------------

    def declare(self, name: str, scalar: Scalar,
                base: Value | None = None) -> VarInfo:
        self._unique += 1
        info = VarInfo(f"{name}${self._unique}", scalar, base)
        self.scopes[-1][name] = info
        self.var_scalars[info.key] = scalar
        return info

    def lookup(self, name: str) -> VarInfo:
        return next(scope[name] for scope in reversed(self.scopes)
                    if name in scope)

    # ---------------- SSA definition table (Braun et al.) -----------------

    def write_var(self, key: str, block: str, value: Operand) -> None:
        self.current_defs[(key, block)] = value

    def read_var(self, key: str, block: str) -> Operand:
        if (key, block) in self.current_defs:
            return self.current_defs[(key, block)]
        return self._read_var_recursive(key, block)

    def _read_var_recursive(self, key: str, block: str) -> Operand:
        preds = self.func.predecessors()[block]
        if block not in self.sealed:
            phi = Phi(result=self.func.new_value(
                self.var_scalars[key], key.split("$")[0]))
            self.func.blocks[block].phis.append(phi)
            self.incomplete.setdefault(block, {})[key] = phi
            value: Operand = phi.result
        elif len(preds) == 1:
            value = self.read_var(key, preds[0])
        else:
            phi = Phi(result=self.func.new_value(
                self.var_scalars[key], key.split("$")[0]))
            self.func.blocks[block].phis.append(phi)
            self.write_var(key, block, phi.result)
            value = self._add_phi_operands(key, phi, block)
        self.write_var(key, block, value)
        return value

    def _add_phi_operands(self, key: str, phi: Phi, block: str) -> Operand:
        for pred in self.func.predecessors()[block]:
            phi.incomings[pred] = self.read_var(key, pred)
        return self._try_remove_trivial(phi, block)

    def _try_remove_trivial(self, phi: Phi, block: str) -> Operand:
        uniques = {
            op for op in phi.incomings.values() if op is not phi.result
        }
        if len(uniques) != 1:
            return phi.result
        (replacement,) = uniques
        # Remove the phi and rewrite every use of its result.
        self.func.blocks[block].phis.remove(phi)
        mapping = {phi.result: replacement}
        dependents: list[tuple[Phi, str]] = []
        for bname, blk in self.func.blocks.items():
            for other in blk.all_instrs():
                if other is phi:
                    continue
                if phi.result in other.uses():
                    other.replace_uses(mapping)
                    if isinstance(other, Phi):
                        dependents.append((other, bname))
            term = blk.terminator
            if isinstance(term, CondBr) and term.cond is phi.result:
                term.cond = replacement
        for (k, b), v in list(self.current_defs.items()):
            if v is phi.result:
                self.current_defs[(k, b)] = replacement
        for dep, bname in dependents:
            if dep in self.func.blocks[bname].phis:
                self._try_remove_trivial(dep, bname)
        return replacement

    def seal(self, block: str) -> None:
        for key, phi in self.incomplete.pop(block, {}).items():
            self._add_phi_operands(key, phi, block)
        self.sealed.add(block)

    # ---------------- expression lowering --------------------------------

    def emit(self, block: Block, instr) -> None:
        block.instrs.append(instr)

    def compute(self, block: Block, op: FuOp, args: list[Operand],
                scalar: Scalar, hint: str = "") -> Value:
        result = self.func.new_value(scalar, hint)
        self.emit(block, Compute(result=result, op=op, args=args))
        return result

    def to_float(self, block: Block, op: Operand) -> Operand:
        if isinstance(op, Const):
            return Const(float(op.value), Scalar.FLOAT)
        if op.scalar is Scalar.FLOAT:
            return op
        return self.compute(block, FuOp.I2F, [op], Scalar.FLOAT)

    def coerce_pair(self, block: Block, a: Operand, b: Operand
                    ) -> tuple[Operand, Operand, Scalar]:
        sa = a.scalar
        sb = b.scalar
        if Scalar.FLOAT in (sa, sb):
            return self.to_float(block, a), self.to_float(block, b), \
                Scalar.FLOAT
        return a, b, Scalar.INT

    _INT_ARITH = {
        "+": FuOp.ADD, "-": FuOp.SUB, "*": FuOp.MUL, "/": FuOp.DIV,
        "%": FuOp.REM, "<<": FuOp.SLL, ">>": FuOp.SRA,
        "&": FuOp.AND, "|": FuOp.OR, "^": FuOp.XOR,
    }
    _FLOAT_ARITH = {
        "+": FuOp.FADD, "-": FuOp.FSUB, "*": FuOp.FMUL, "/": FuOp.FDIV,
    }

    def gen_expr(self, block: Block, expr: ast.Expr) -> Operand:
        if isinstance(expr, ast.IntLit):
            return const_int(expr.value)
        if isinstance(expr, ast.FloatLit):
            return Const(expr.value, Scalar.FLOAT)
        if isinstance(expr, ast.Name):
            return self.read_var(self.lookup(expr.ident).key, block.name)
        if isinstance(expr, ast.Index):
            addr = self.gen_address(block, expr)
            result = self.func.new_value(self.lookup(expr.base).scalar,
                                         expr.base)
            self.emit(block, Load(result=result, addr=addr))
            return result
        if isinstance(expr, ast.Unary):
            return self.gen_unary(block, expr)
        if isinstance(expr, ast.Binary):
            return self.gen_binary(block, expr)
        if isinstance(expr, ast.Call):
            return self.gen_call(block, expr)
        raise CompilerError(f"line {expr.line}: cannot lower {expr!r}")

    def gen_address(self, block: Block, expr: ast.Index) -> Operand:
        info = self.lookup(expr.base)
        index = self.gen_expr(block, expr.index)
        offset = self.compute(
            block, FuOp.SLL, [index, const_int(_WORD_SHIFT)], Scalar.INT)
        return self.compute(
            block, FuOp.ADD, [info.base, offset], Scalar.INT, "addr")

    def gen_unary(self, block: Block, expr: ast.Unary) -> Operand:
        operand = self.gen_expr(block, expr.operand)
        if expr.op == "-":
            if isinstance(operand, Const):
                return Const(-operand.value, operand.scalar)
            if operand.scalar is Scalar.FLOAT:
                return self.compute(block, FuOp.FNEG, [operand],
                                    Scalar.FLOAT)
            return self.compute(block, FuOp.SUB, [const_int(0), operand],
                                Scalar.INT)
        # "!" — logical negation of an int condition.
        return self.compute(block, FuOp.SEQ, [operand, const_int(0)],
                            Scalar.INT)

    def gen_binary(self, block: Block, expr: ast.Binary) -> Operand:
        op = expr.op
        left = self.gen_expr(block, expr.left)
        right = self.gen_expr(block, expr.right)

        if op in ("&&", "||"):
            left = self._normalize_bool(block, left)
            right = self._normalize_bool(block, right)
            fu = FuOp.AND if op == "&&" else FuOp.OR
            return self.compute(block, fu, [left, right], Scalar.INT)

        if op in ("<", "<=", ">", ">=", "==", "!="):
            return self.gen_compare(block, op, left, right)

        if op in ("<<", ">>", "&", "|", "^", "%"):
            return self.compute(block, self._INT_ARITH[op], [left, right],
                                Scalar.INT)

        left, right, scalar = self.coerce_pair(block, left, right)
        table = self._FLOAT_ARITH if scalar is Scalar.FLOAT \
            else self._INT_ARITH
        return self.compute(block, table[op], [left, right], scalar)

    def gen_compare(self, block: Block, op: str, left: Operand,
                    right: Operand) -> Operand:
        left, right, scalar = self.coerce_pair(block, left, right)
        is_fp = scalar is Scalar.FLOAT
        if op == ">":
            op, left, right = "<", right, left
        elif op == ">=":
            op, left, right = "<=", right, left
        if op == "<":
            fu = FuOp.FLT if is_fp else FuOp.SLT
            return self.compute(block, fu, [left, right], Scalar.INT)
        if op == "<=":
            if is_fp:
                return self.compute(block, FuOp.FLE, [left, right],
                                    Scalar.INT)
            # a <= b  <=>  !(b < a)
            lt = self.compute(block, FuOp.SLT, [right, left], Scalar.INT)
            return self.compute(block, FuOp.XOR, [lt, const_int(1)],
                                Scalar.INT)
        eq = self.compute(block, FuOp.FEQ if is_fp else FuOp.SEQ,
                          [left, right], Scalar.INT)
        if op == "==":
            return eq
        return self.compute(block, FuOp.XOR, [eq, const_int(1)], Scalar.INT)

    def _normalize_bool(self, block: Block, op: Operand) -> Operand:
        # Normalize to 0/1: x != 0.
        ne = self.compute(block, FuOp.SEQ, [op, const_int(0)], Scalar.INT)
        return self.compute(block, FuOp.XOR, [ne, const_int(1)], Scalar.INT)

    def gen_call(self, block: Block, expr: ast.Call) -> Operand:
        name = expr.func
        args = [self.gen_expr(block, a) for a in expr.args]
        if name == "sqrt":
            return self.compute(block, FuOp.FSQRT,
                                [self.to_float(block, args[0])],
                                Scalar.FLOAT)
        if name == "float":
            return self.to_float(block, args[0])
        if name == "int":
            if args[0].scalar is Scalar.INT:
                return args[0]
            return self.compute(block, FuOp.F2I, [args[0]], Scalar.INT)
        if name == "abs":
            (a,) = args
            if a.scalar is Scalar.FLOAT:
                return self.compute(block, FuOp.FABS, [a], Scalar.FLOAT)
            neg = self.compute(block, FuOp.SUB, [const_int(0), a],
                               Scalar.INT)
            is_neg = self.compute(block, FuOp.SLT, [a, const_int(0)],
                                  Scalar.INT)
            return self.compute(block, FuOp.SEL, [is_neg, neg, a],
                                Scalar.INT)
        # min, max
        a, b, scalar = self.coerce_pair(block, args[0], args[1])
        table = {
            ("min", Scalar.INT): FuOp.MIN,
            ("max", Scalar.INT): FuOp.MAX,
            ("min", Scalar.FLOAT): FuOp.FMIN,
            ("max", Scalar.FLOAT): FuOp.FMAX,
        }
        return self.compute(block, table[(name, scalar)], [a, b], scalar)

    # ---------------- statement lowering -----------------------------------

    def gen_stmts(self, block: Block, stmts: list[ast.Stmt]) -> Block | None:
        """Lower a statement list; returns the live exit block or None if
        control never falls through (break/continue)."""
        current: Block | None = block
        for stmt in stmts:
            if current is None:
                # Unreachable code after break/continue: type-checked
                # like the rest, never lowered.
                break
            current = self.gen_stmt(current, stmt)
        return current

    def gen_stmt(self, block: Block, stmt: ast.Stmt) -> Block | None:
        if isinstance(stmt, ast.Decl):
            value = self.gen_expr(block, stmt.init)
            value = self._coerce_assign(block, value, stmt.type.scalar)
            info = self.declare(stmt.name, stmt.type.scalar)
            self.write_var(info.key, block.name, value)
            return block
        if isinstance(stmt, ast.Assign):
            return self.gen_assign(block, stmt)
        if isinstance(stmt, ast.If):
            return self.gen_if(block, stmt)
        if isinstance(stmt, ast.For):
            return self.gen_for(block, stmt)
        if isinstance(stmt, ast.While):
            return self.gen_while(block, stmt)
        if isinstance(stmt, ast.Break):
            block.terminator = Jump(self.loop_stack[-1][1])
            return None
        if isinstance(stmt, ast.Continue):
            block.terminator = Jump(self.loop_stack[-1][0])
            return None
        raise CompilerError(f"line {stmt.line}: cannot lower {stmt!r}")

    def _coerce_assign(self, block: Block, value: Operand, target: Scalar
                       ) -> Operand:
        """Widen an int value assigned to a float variable."""
        if value.scalar is target:
            return value
        return self.to_float(block, value)

    def gen_assign(self, block: Block, stmt: ast.Assign) -> Block:
        value = self.gen_expr(block, stmt.value)
        if isinstance(stmt.target, ast.Name):
            info = self.lookup(stmt.target.ident)
            value = self._coerce_assign(block, value, info.scalar)
            self.write_var(info.key, block.name, value)
            return block
        info = self.lookup(stmt.target.base)
        value = self._coerce_assign(block, value, info.scalar)
        addr = self.gen_address(block, stmt.target)
        self.emit(block, Store(addr=addr, value=value))
        return block

    def gen_if(self, block: Block, stmt: ast.If) -> Block | None:
        cond = self.gen_expr(block, stmt.cond)
        then_block = self.func.new_block("then")
        merge_block = self.func.new_block("endif")
        if stmt.else_body:
            else_block = self.func.new_block("else")
            block.terminator = CondBr(cond, then_block.name,
                                      else_block.name)
        else:
            else_block = None
            block.terminator = CondBr(cond, then_block.name,
                                      merge_block.name)
        self.seal(then_block.name)
        self.scopes.append({})
        then_exit = self.gen_stmts(then_block, stmt.then_body)
        self.scopes.pop()
        if then_exit is not None:
            then_exit.terminator = Jump(merge_block.name)
        else_exit: Block | None = None
        if else_block is not None:
            self.seal(else_block.name)
            self.scopes.append({})
            else_exit = self.gen_stmts(else_block, stmt.else_body)
            self.scopes.pop()
            if else_exit is not None:
                else_exit.terminator = Jump(merge_block.name)
        self.seal(merge_block.name)
        if not self.func.predecessors()[merge_block.name]:
            # Both arms broke out: merge is unreachable.
            del self.func.blocks[merge_block.name]
            self.sealed.discard(merge_block.name)
            return None
        return merge_block

    def gen_for(self, block: Block, stmt: ast.For) -> Block:
        self.scopes.append({})
        after_init = self.gen_stmt(block, stmt.init)
        assert after_init is block
        header = self.func.new_block("for")
        body = self.func.new_block("body")
        step = self.func.new_block("step")
        exit_block = self.func.new_block("endfor")
        block.terminator = Jump(header.name)
        # Header gains a back edge later; leave it unsealed.
        cond = self.gen_expr(header, stmt.cond)
        header.terminator = CondBr(cond, body.name, exit_block.name)
        self.seal(body.name)
        self.loop_stack.append((step.name, exit_block.name))
        self.scopes.append({})
        body_exit = self.gen_stmts(body, stmt.body)
        self.scopes.pop()
        self.loop_stack.pop()
        if body_exit is not None:
            body_exit.terminator = Jump(step.name)
        self.seal(step.name)
        if self.func.predecessors()[step.name]:
            step_exit = self.gen_stmt(step, stmt.step)
            step_exit.terminator = Jump(header.name)
        else:
            del self.func.blocks[step.name]
            self.sealed.discard(step.name)
        self.seal(header.name)
        self.seal(exit_block.name)
        self.scopes.pop()
        return exit_block

    def gen_while(self, block: Block, stmt: ast.While) -> Block:
        header = self.func.new_block("while")
        body = self.func.new_block("body")
        exit_block = self.func.new_block("endwhile")
        block.terminator = Jump(header.name)
        cond = self.gen_expr(header, stmt.cond)
        header.terminator = CondBr(cond, body.name, exit_block.name)
        self.seal(body.name)
        self.loop_stack.append((header.name, exit_block.name))
        self.scopes.append({})
        body_exit = self.gen_stmts(body, stmt.body)
        self.scopes.pop()
        self.loop_stack.pop()
        if body_exit is not None:
            body_exit.terminator = Jump(header.name)
        self.seal(header.name)
        self.seal(exit_block.name)
        return exit_block

    # ---------------- entry point -----------------------------------------

    def build(self) -> Function:
        entry = self.func.add_entry()
        self.seal(entry.name)
        for p in self.kernel.params:
            scalar = p.type.scalar
            value = self.func.new_value(
                Scalar.INT if p.type.is_array else scalar, p.name)
            param = Param(p.name, scalar, p.type.is_array, p.is_out,
                          value)
            self.func.params.append(param)
            if p.type.is_array:
                self.declare(p.name, scalar, base=value)
            else:
                info = self.declare(p.name, scalar)
                self.write_var(info.key, entry.name, value)
        exit_block = self.gen_stmts(entry, self.kernel.body)
        if exit_block is not None:
            exit_block.terminator = Ret()
        if self.incomplete:
            raise CompilerError(
                f"internal: unsealed blocks remain: "
                f"{sorted(self.incomplete)}")
        self.func.verify()
        return self.func


def lower_kernel(kernel: ast.Kernel) -> Function:
    """Type-check a parsed kernel and lower it to verified SSA."""
    check_kernel(kernel)
    return IrGen(kernel).build()
