"""Abstract syntax tree of the kernel language.

Grammar sketch (see :mod:`repro.compiler.parser` for the full grammar)::

    kernel mm(out float C[], float A[], float B[], int n) {
        for (int i = 0; i < n; i = i + 1) { ... }
    }

Every node carries its source position (``line``, 1-based ``col``) for
diagnostics.  The kernel DSL (:mod:`repro.lang`) parses its bodies into
these same nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.types import Type


@dataclass
class Node:
    line: int = field(default=0, kw_only=True)
    col: int = field(default=0, kw_only=True)


# -- expressions -----------------------------------------------------------


@dataclass
class Expr(Node):
    """An expression; its type is the type checker's to work out."""


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class FloatLit(Expr):
    value: float = 0.0


@dataclass
class Name(Expr):
    ident: str = ""


@dataclass
class Index(Expr):
    """Array element read/write target: base[index]."""

    base: str = ""
    index: Expr | None = None


@dataclass
class Unary(Expr):
    op: str = ""            # "-", "!"
    operand: Expr | None = None


@dataclass
class Binary(Expr):
    op: str = ""            # + - * / % << >> & | ^ < <= > >= == != && ||
    left: Expr | None = None
    right: Expr | None = None


@dataclass
class Call(Expr):
    """Intrinsic call: sqrt, abs, min, max, float, int."""

    func: str = ""
    args: list[Expr] = field(default_factory=list)


# -- statements --------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class Decl(Stmt):
    """Local declaration with mandatory initializer: ``int x = e;``"""

    type: Type | None = None
    name: str = ""
    init: Expr | None = None


@dataclass
class Assign(Stmt):
    """Assignment to a scalar or an array element."""

    target: Name | Index | None = None
    value: Expr | None = None


@dataclass
class If(Stmt):
    cond: Expr | None = None
    then_body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)


@dataclass
class For(Stmt):
    """C-style for with a declared induction variable."""

    init: Decl | Assign | None = None
    cond: Expr | None = None
    step: Assign | None = None
    body: list[Stmt] = field(default_factory=list)


@dataclass
class While(Stmt):
    cond: Expr | None = None
    body: list[Stmt] = field(default_factory=list)


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# -- top level -----------------------------------------------------------------


@dataclass
class Param(Node):
    type: Type | None = None
    name: str = ""
    is_out: bool = False


@dataclass
class Kernel(Node):
    name: str = ""
    params: list[Param] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)
