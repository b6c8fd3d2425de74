"""Pure-Python reference interpreter over a validated KernelSpec.

This is the DSL's *numpy-reference* role: the lowered workload's
``prepare`` runs the interpreter over the freshly generated inputs to
produce the expected outputs the simulator run is checked against.  It
interprets exactly the AST that lowering prints, so expected values and
simulated values follow the same operation order.

Semantics of the validated subset are unambiguous: int arithmetic is
exact (the validator rejects integer division/modulo), float arithmetic
is IEEE double, comparisons and logical ops produce 0/1 ints.  ``&&``
and ``||`` evaluate both operands, as the compiled code does (it lowers
them without branches), so an operand that faults in the simulator
faults here too.  A step
budget (:data:`~repro.lang.validate.INTERP_STEP_BUDGET`) bounds
data-dependent ``while`` loops: exceeding it raises a structured
:class:`~repro.errors.WorkloadError` instead of hanging a worker.
"""

from __future__ import annotations

import math
from typing import Any

from repro.compiler import ast_nodes as ast
from repro.errors import WorkloadError
from repro.lang.nodes import DyserBlock, KernelSpec
from repro.lang.validate import INTERP_STEP_BUDGET


class _BreakLoop(Exception):
    pass


class _ContinueLoop(Exception):
    pass


class Interpreter:
    """Execute a kernel body against a name -> value environment.

    Arrays are Python lists (mutated in place); scalars are int/float.
    """

    def __init__(self, env: dict[str, Any],
                 budget: int = INTERP_STEP_BUDGET) -> None:
        self.env = env
        self.budget = budget
        self.steps = 0

    def run(self, spec: KernelSpec) -> None:
        for stmt in spec.body:
            self.stmt(stmt)

    # -- statements -----------------------------------------------------

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.budget:
            raise WorkloadError(
                f"kernel exceeded the interpreter step budget "
                f"({self.budget}); data-dependent loops must terminate",
                code="RPR540", steps=self.steps)

    # Dispatch on exact node types: the node classes are leaves, and
    # ``type(x) is C`` is cheaper than an ``isinstance`` miss walking a
    # compiler node's MRO (prepare runs this loop for every DSL run).

    def stmt(self, stmt: ast.Stmt) -> None:
        self._tick()
        if type(stmt) is ast.Decl:
            self.env[stmt.name] = self.expr(stmt.init)
        elif type(stmt) is ast.Assign:
            self.assign(stmt)
        elif type(stmt) is ast.If:
            branch = (stmt.then_body if self.expr(stmt.cond)
                      else stmt.else_body)
            for s in branch:
                self.stmt(s)
        elif type(stmt) is ast.For:
            if isinstance(stmt.init, ast.Decl):
                self.env[stmt.init.name] = self.expr(stmt.init.init)
            else:
                self.assign(stmt.init)
            while self.expr(stmt.cond):
                self._tick()
                try:
                    for s in stmt.body:
                        self.stmt(s)
                except _ContinueLoop:
                    pass
                except _BreakLoop:
                    break
                self.assign(stmt.step)
        elif type(stmt) is ast.While:
            while self.expr(stmt.cond):
                self._tick()
                try:
                    for s in stmt.body:
                        self.stmt(s)
                except _ContinueLoop:
                    continue
                except _BreakLoop:
                    break
        elif type(stmt) is ast.Break:
            raise _BreakLoop()
        elif type(stmt) is ast.Continue:
            raise _ContinueLoop()
        elif type(stmt) is DyserBlock:
            for s in stmt.body:
                self.stmt(s)

    def assign(self, stmt: ast.Assign | None) -> None:
        assert stmt is not None
        value = self.expr(stmt.value)
        target = stmt.target
        if isinstance(target, ast.Index):
            array = self.env[target.base]
            index = self.expr(target.index)
            if not 0 <= index < len(array):
                raise WorkloadError(
                    f"{target.base}[{index}] is out of bounds "
                    f"(length {len(array)})",
                    code="RPR512", index=index, length=len(array))
            array[index] = value
        else:
            assert target is not None
            self.env[target.ident] = value

    # -- expressions ----------------------------------------------------

    def expr(self, expr: ast.Expr | None) -> Any:
        if type(expr) is ast.IntLit or type(expr) is ast.FloatLit:
            return expr.value
        if type(expr) is ast.Name:
            return self.env[expr.ident]
        if type(expr) is ast.Index:
            array = self.env[expr.base]
            index = self.expr(expr.index)
            if not 0 <= index < len(array):
                raise WorkloadError(
                    f"{expr.base}[{index}] is out of bounds "
                    f"(length {len(array)})",
                    code="RPR512", index=index, length=len(array))
            return array[index]
        if type(expr) is ast.Call:
            args = [self.expr(a) for a in expr.args]
            if expr.func == "sqrt":
                if args[0] < 0.0:
                    raise WorkloadError("sqrt of a negative value",
                                        code="RPR511", value=args[0])
                return math.sqrt(args[0])
            if expr.func == "abs":
                return abs(args[0])
            if expr.func == "float":
                return float(args[0])
            if expr.func == "min":
                return min(args)
            return max(args)
        if type(expr) is ast.Unary:
            value = self.expr(expr.operand)
            return -value if expr.op == "-" else int(not value)
        assert type(expr) is ast.Binary
        op = expr.op
        lhs = self.expr(expr.left)
        rhs = self.expr(expr.right)
        if op == "&&":
            return int(bool(lhs) and bool(rhs))
        if op == "||":
            return int(bool(lhs) or bool(rhs))
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if rhs == 0.0:
                raise WorkloadError("division by zero", code="RPR511")
            return lhs / rhs
        if op == "==":
            return int(lhs == rhs)
        if op == "!=":
            return int(lhs != rhs)
        if op == "<":
            return int(lhs < rhs)
        if op == "<=":
            return int(lhs <= rhs)
        if op == ">":
            return int(lhs > rhs)
        return int(lhs >= rhs)
