"""The kernel DSL's own nodes and its content hash (:mod:`repro.lang`).

A parsed kernel is a :class:`KernelSpec`: the DSL header (sizes,
parameters, ``work``, ``flops``) around a body of kernel-language
statements.  Body statements and every expression, header expressions
included, are the compiler's nodes (:mod:`repro.compiler.ast_nodes`);
this module adds only the header declarations and the ``dyser { }``
statement (:class:`DyserBlock`).  Two properties matter:

- **Content-hashable.**  :func:`canonical` is a canonical, JSON-safe
  view of the *semantics* of a node: source positions are deliberately
  excluded, so reformatting a kernel (whitespace, comments, line
  breaks) never changes :attr:`KernelSpec.kernel_hash`.  The hash keys
  the kernel store, the service's ``kernel_hash`` handle and the
  derived workload name.
- **Never mutated.**  Nothing changes a spec after parsing (lowering
  prints it, the compiler parses that text afresh), so a validated spec
  can be shared across threads and memoized safely.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.compiler import ast_nodes as ast

#: Scale names every DSL kernel must define sizes for (mirrors the
#: harness' standard scales; extra scales are allowed on top).
STANDARD_SCALES = ("tiny", "small", "medium")

#: Input-initializer generators the DSL understands.
INIT_FUNCTIONS = ("uniform", "randint", "monotone", "permutation", "zeros")

#: Intrinsic calls allowed in DSL expressions (a validated subset of the
#: kernel language's intrinsics — integer division and bit ops are out).
DSL_INTRINSICS = ("abs", "min", "max", "sqrt", "float")


@dataclass
class DyserBlock(ast.Stmt):
    """``dyser { ... }`` — declared offload intent.

    Lowering inlines the body (the co-designed compiler picks regions
    itself); validation checks the declared region against the default
    fabric's functional-unit and port budgets *before* any worker runs.
    """

    body: list[ast.Stmt] = field(default_factory=list)


# -- header declarations ------------------------------------------------


@dataclass(frozen=True)
class SizeDecl:
    """``size n = { tiny: 16, small: 48, medium: 160 };`` or a derived
    size ``size nnz = 4 * n;`` (expr over earlier sizes)."""

    ident: str
    table: tuple = ()        # ((scale, int), ...) — empty when derived
    expr: ast.Expr | None = None
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class InitSpec:
    """Input generator: ``uniform(lo, hi)``, ``randint(lo, hi)``,
    ``monotone(total)``, ``permutation()``, ``zeros()``.

    Arguments are expressions: literals for ``uniform`` bounds, size
    expressions for ``randint``/``monotone`` bounds (``randint(0, n)``).
    """

    fn: str
    args: tuple = ()
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ParamDecl:
    """``in float vals[nnz] = uniform(-1.0, 1.0);`` / ``out float y[n];``
    / ``in int nrows = n;`` (scalar params are int size expressions)."""

    ident: str
    type: str                      # "int" | "float"
    is_out: bool
    is_array: bool
    length: ast.Expr | None = None  # size expression (arrays only)
    init: InitSpec | None = None    # arrays: generator; scalars: None
    value: ast.Expr | None = None   # scalar ints: size expression
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class KernelSpec:
    """One parsed DSL kernel: header + compute body."""

    name: str
    sizes: tuple = ()    # SizeDecl...
    params: tuple = ()   # ParamDecl...
    body: tuple = ()     # ast.Stmt...
    work: ast.Expr | None = None     # work_items size expression
    flops: float = 0.0               # flops per work item (reporting only)

    def to_dict(self) -> dict:
        return {
            "format": "repro-kernel-dsl-v1",
            "name": self.name,
            "sizes": _all(self.sizes),
            "params": _all(self.params),
            "body": _all(self.body),
            "work": canonical(self.work),
            "flops": self.flops,
        }

    @property
    def kernel_hash(self) -> str:
        """Stable content hash of the canonical AST (hex sha256).

        Positions are excluded, so formatting never changes identity.
        """
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @property
    def workload_name(self) -> str:
        """The suite-registry name a submitted kernel runs under."""
        return f"dsl:{self.kernel_hash[:16]}"


# -- the canonical form --------------------------------------------------


def canonical(node: Any) -> dict | None:
    """The position-free dict of one node (None stays None): a compiler
    expression or statement, a :class:`DyserBlock` or a header
    declaration.  :meth:`KernelSpec.to_dict` is built from it alone."""
    if node is None:
        return None
    return _CANONICAL[type(node)](node)


def _all(nodes) -> list:
    return [canonical(n) for n in nodes]


_CANONICAL: dict[type, Callable[[Any], dict]] = {
    ast.IntLit: lambda n: {"kind": "num", "value": n.value, "type": "int"},
    ast.FloatLit: lambda n: {"kind": "num", "value": n.value,
                             "type": "float"},
    ast.Name: lambda n: {"kind": "name", "ident": n.ident},
    ast.Index: lambda n: {"kind": "index", "ident": n.base,
                          "index": canonical(n.index)},
    ast.Call: lambda n: {"kind": "call", "fn": n.func,
                         "args": _all(n.args)},
    ast.Unary: lambda n: {"kind": "unary", "op": n.op,
                          "operand": canonical(n.operand)},
    ast.Binary: lambda n: {"kind": "binary", "op": n.op,
                           "lhs": canonical(n.left),
                           "rhs": canonical(n.right)},
    ast.Decl: lambda n: {"kind": "decl", "type": str(n.type),
                         "ident": n.name, "expr": canonical(n.init)},
    ast.Assign: lambda n: {"kind": "assign", "target": canonical(n.target),
                           "expr": canonical(n.value)},
    ast.If: lambda n: {"kind": "if", "cond": canonical(n.cond),
                       "then": _all(n.then_body),
                       "orelse": _all(n.else_body)},
    ast.For: lambda n: {"kind": "for", "init": canonical(n.init),
                        "cond": canonical(n.cond),
                        "step": canonical(n.step), "body": _all(n.body)},
    ast.While: lambda n: {"kind": "while", "cond": canonical(n.cond),
                          "body": _all(n.body)},
    ast.Break: lambda n: {"kind": "break"},
    ast.Continue: lambda n: {"kind": "continue"},
    DyserBlock: lambda n: {"kind": "dyser", "body": _all(n.body)},
    SizeDecl: lambda n: {"kind": "size", "ident": n.ident,
                         "table": [list(p) for p in n.table],
                         "expr": canonical(n.expr)},
    InitSpec: lambda n: {"kind": "init", "fn": n.fn, "args": _all(n.args)},
    ParamDecl: lambda n: {"kind": "param", "ident": n.ident,
                          "type": n.type, "out": n.is_out,
                          "array": n.is_array,
                          "length": canonical(n.length),
                          "init": canonical(n.init),
                          "value": canonical(n.value)},
}
