"""The type checker of the kernel language and the kernel DSL.

Both languages parse into one AST (:mod:`repro.compiler.ast_nodes`) and
are checked here, by one walk.  What differs between them is one frozen
:class:`TypePolicy` per language, picked by the entry point:
:func:`check_kernel` checks a kernel-language kernel under
:data:`KERNEL` (:func:`~repro.compiler.irgen.lower_kernel` calls it, so
nothing lowers an unchecked kernel), and the DSL validator
(:mod:`repro.lang.validate`) runs :class:`TypeChecker` under its own
policy.  Every finding is a registry-coded ``RPR5xx`` diagnostic
(:mod:`repro.analysis.diagnostics`) located at ``line:col``.

Type rules: scalars are int or float; an array is only read or written
through an int index; conditions and the operands of ``!``, ``&&``,
``||``, ``%`` and the bit operators are int; a float never narrows to
an int variable (the kernel language spells that ``int(e)``).  Under
``promote`` (the kernel language) mixed arithmetic, ``min``/``max`` and
``sqrt`` promote int to float, and an int value widens to a float
variable; without it (the DSL) both sides must share a type.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.compiler import ast_nodes as ast
from repro.compiler.parser import INTRINSICS
from repro.errors import TypeCheckError

if TYPE_CHECKING:
    from repro.analysis.diagnostics import DiagnosticReport


@dataclass(frozen=True)
class TypePolicy:
    """What one language allows on top of the shared type rules."""

    #: The ``source`` of every diagnostic emitted under this policy.
    source: str
    #: Block-scoped declarations.  Without them a kernel has one flat
    #: scope (the DSL interpreter keeps one environment), so a name,
    #: sibling loop counters included, is declared once per kernel.
    lexical_scopes: bool
    #: Int-to-float promotion and widening (see the module docstring).
    promote: bool
    #: ``%`` and integer ``/`` (else ``RPR514``).
    int_division: bool
    #: Callable intrinsics, in the order a diagnostic lists them.
    intrinsics: tuple[str, ...]
    #: ``RPR540`` warning text for every ``while`` loop; None for none.
    while_warning: str | None = None


#: The kernel language (:mod:`repro.compiler.parser`).
KERNEL = TypePolicy(source="compiler", lexical_scopes=True, promote=True,
                    int_division=True, intrinsics=tuple(sorted(INTRINSICS)))

_ARITY = {"abs": 1, "sqrt": 1, "float": 1, "int": 1, "min": 2, "max": 2}
_INT_OPS = frozenset({"&&", "||", "%", "<<", ">>", "&", "|", "^"})
_COMPARISONS = frozenset({"==", "!=", "<", "<=", ">", ">="})


class Sym(NamedTuple):
    """A name in scope; ``type`` is ``"int"`` or ``"float"``."""

    type: str
    is_array: bool = False
    writable: bool = True


class TypeChecker:
    """One pass over a body; a poisoned (None) type stops error cascades.

    With a ``report`` every finding goes into it; without one the first
    finding raises :class:`TypeCheckError`.  The entry point fills
    :attr:`scope` with the kernel's parameters before :meth:`stmts`.
    """

    def __init__(self, policy: TypePolicy,
                 report: DiagnosticReport | None = None) -> None:
        self.policy = policy
        self.report = report
        self.scope: ChainMap[str, Sym] = ChainMap()
        self.loop_depth = 0
        #: Arrays written through an index.
        self.written: set[str] = set()

    def fail(self, code: str, node: ast.Node, message: str) -> None:
        if self.report is None:
            raise TypeCheckError(message, node.line, node.col, code=code)
        self.report.emit(code, message, location=f"{node.line}:{node.col}",
                         source=self.policy.source)

    def declare(self, node: ast.Node, name: str, sym: Sym) -> None:
        if name in self.scope.maps[0]:
            self.fail("RPR518", node, f"{name!r} declared twice")
        self.scope[name] = sym

    def symbol(self, node: ast.Node, name: str, *, array: bool,
               undefined: str = "undefined name") -> Sym | None:
        """``name``'s symbol; None after an RPR510 or, when it is not
        of the ``array`` shape, an RPR512."""
        sym = self.scope.get(name)
        if sym is None:
            self.fail("RPR510", node, f"{undefined} {name!r}")
        elif sym.is_array != array:
            self.fail("RPR512", node, f"array {name!r} needs an index"
                      if sym.is_array else f"{name!r} is not an array")
            return None
        return sym

    def assignable(self, got: str | None, want: str) -> bool:
        return (got is None or got == want
                or (self.policy.promote and want == "float"))

    # -- statements ---------------------------------------------------

    def stmts(self, body) -> None:
        for stmt in body:
            self.stmt(stmt)

    def block(self, body, *, loop: bool = False) -> None:
        outer = self.enter()
        self.loop_depth += loop
        self.stmts(body)
        self.loop_depth -= loop
        self.scope = outer

    def enter(self) -> ChainMap[str, Sym]:
        """Open a scope (under lexical scoping); returns the outer one."""
        outer = self.scope
        if self.policy.lexical_scopes:
            self.scope = outer.new_child()
        return outer

    def stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Decl):
            got = self.expr(stmt.init)
            dtype = str(stmt.type)
            if not self.assignable(got, dtype):
                self.fail("RPR511", stmt, f"cannot initialize {dtype} "
                          f"{stmt.name!r} from {got}")
            self.declare(stmt, stmt.name, Sym(dtype))
        elif isinstance(stmt, ast.Assign):
            self.assign(stmt)
        elif isinstance(stmt, ast.If):
            self.cond(stmt.cond)
            self.block(stmt.then_body)
            self.block(stmt.else_body)
        elif isinstance(stmt, ast.For):
            outer = self.enter()
            self.stmt(stmt.init)
            self.cond(stmt.cond)
            self.stmt(stmt.step)
            self.block(stmt.body, loop=True)
            self.scope = outer
        elif isinstance(stmt, ast.While):
            if self.policy.while_warning:
                self.fail("RPR540", stmt, self.policy.while_warning)
            self.cond(stmt.cond)
            self.block(stmt.body, loop=True)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if not self.loop_depth:
                self.fail("RPR526", stmt, "break/continue outside a loop")
        else:   # a transparent block: the DSL's ``dyser { }``
            self.stmts(stmt.body)

    def assign(self, stmt: ast.Assign) -> None:
        got = self.expr(stmt.value)
        target = stmt.target
        indexed = isinstance(target, ast.Index)
        name = target.base if indexed else target.ident
        sym = self.symbol(target, name, array=indexed,
                          undefined="assignment to undefined name")
        if sym is None:
            return
        if indexed:
            self.index(target)
        if not sym.writable:
            self.fail("RPR513", target,
                      f"cannot write to input array {name!r}" if indexed
                      else f"cannot write to read-only {name!r}")
            return
        if indexed:
            self.written.add(name)
        if not self.assignable(got, sym.type):
            self.fail("RPR511", stmt,
                      f"cannot assign {got} to {sym.type} {name!r}")

    def cond(self, expr: ast.Expr) -> None:
        if self.expr(expr) == "float":
            self.fail("RPR511", expr, "condition must be int")

    def index(self, node: ast.Index) -> None:
        if self.expr(node.index) == "float":
            self.fail("RPR511", node, "array index must be int")

    # -- expressions ---------------------------------------------------

    def expr(self, expr: ast.Expr) -> str | None:
        """Returns "int"/"float", or None when already diagnosed."""
        if isinstance(expr, ast.IntLit):
            return "int"
        if isinstance(expr, ast.FloatLit):
            return "float"
        if isinstance(expr, ast.Name):
            sym = self.symbol(expr, expr.ident, array=False)
            return None if sym is None else sym.type
        if isinstance(expr, ast.Index):
            sym = self.symbol(expr, expr.base, array=True)
            if sym is None:
                return None
            self.index(expr)
            return sym.type
        if isinstance(expr, ast.Unary):
            got = self.expr(expr.operand)
            if expr.op == "!" and got == "float":
                self.fail("RPR511", expr, "! needs an int operand")
                return None
            return got
        if isinstance(expr, ast.Call):
            return self.call(expr)
        assert isinstance(expr, ast.Binary), expr
        return self.binary(expr)

    def call(self, expr: ast.Call) -> str | None:
        func, promote = expr.func, self.policy.promote
        if func not in self.policy.intrinsics:
            self.fail("RPR516", expr,
                      f"unknown intrinsic {func!r}; have "
                      f"{', '.join(self.policy.intrinsics)}")
            return None
        if len(expr.args) != _ARITY[func]:
            self.fail("RPR516", expr,
                      f"{func}() takes {_ARITY[func]} "
                      f"argument(s), got {len(expr.args)}")
            return None
        types = [self.expr(a) for a in expr.args]
        if None in types:
            return None
        if func == "sqrt" and types[0] != "float" and not promote:
            self.fail("RPR511", expr, "sqrt() needs a float")
            return None
        if func == "int":
            return "int"
        if func in ("sqrt", "float"):
            return "float"
        if len(set(types)) > 1:    # min/max over int and float
            if not promote:
                self.fail("RPR511", expr,
                          f"{func}() operands must share a type")
                return None
            return "float"
        return types[0]

    def binary(self, expr: ast.Binary) -> str | None:
        lhs, rhs = self.expr(expr.left), self.expr(expr.right)
        if lhs is None or rhs is None:
            return None
        op, policy = expr.op, self.policy
        if op == "%" and not policy.int_division:
            self.fail("RPR514", expr,
                      "modulo is outside the validated DSL subset")
            return None
        if lhs != rhs and not policy.promote:
            self.fail("RPR511", expr,
                      f"operands of {op!r} must share a type "
                      f"({lhs} vs {rhs}); use float() to convert")
            return None
        if op in _INT_OPS:
            if "float" in (lhs, rhs):
                self.fail("RPR511", expr, f"{op!r} needs int operands")
                return None
            return "int"
        if op in _COMPARISONS:
            return "int"
        if op == "/" and lhs == rhs == "int" and not policy.int_division:
            self.fail("RPR514", expr,
                      "integer division is outside the validated "
                      "DSL subset; use float() first")
            return None
        return "float" if "float" in (lhs, rhs) else "int"


def check_kernel(kernel: ast.Kernel) -> None:
    """Check one kernel-language kernel under :data:`KERNEL`; raises
    :class:`TypeCheckError` (code, ``line``, ``column``) on the first
    error."""
    checker = TypeChecker(KERNEL)
    for p in kernel.params:
        checker.declare(p, p.name,
                        Sym(p.type.scalar.value, p.type.is_array))
    checker.stmts(kernel.body)
