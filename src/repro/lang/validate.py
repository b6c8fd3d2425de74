"""Validation pipeline for DSL kernels: syntax → types/shapes → resources.

:func:`check_source` is the single fail-closed gate every entry point
(CLI ``repro kernel check``, ``POST /v2/kernels``, the fuzz oracle, the
suite's lazy ``dsl:`` loader) goes through.  It never raises on bad
input: every rejection is a structured RPR5xx diagnostic in the returned
:class:`~repro.analysis.diagnostics.DiagnosticReport`, so no worker is
ever burned on an ill-formed kernel and rejections render identically in
text, JSON and the service's 422 envelope.

The RPR5xx code bank (registered in :mod:`repro.analysis.diagnostics`):

===========  ==========================================================
``RPR500``   source failed to tokenize, or uses a bit or shift operator
``RPR501``   source failed to parse
``RPR510``   use of undefined name
``RPR511``   type mismatch
``RPR512``   array/scalar shape misuse
``RPR513``   write to read-only input
``RPR514``   integer division/modulo outside the validated subset
``RPR515``   output parameter never written
``RPR516``   unknown intrinsic or bad arity
``RPR517``   invalid size or parameter declaration
``RPR518``   duplicate declaration
``RPR519``   invalid input initializer
``RPR520``   dyser region exceeds fabric compute capacity
``RPR521``   dyser region live values exceed port capacity
``RPR522``   size table missing standard scales
``RPR523``   size expression not positive at some scale
``RPR524``   kernel declares no output parameter
``RPR525``   invalid dyser region structure
``RPR526``   break or continue outside a loop
``RPR540``   while loop trip count is data-dependent (warning)
===========  ==========================================================
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.diagnostics import DiagnosticReport
from repro.compiler import ast_nodes as ast
from repro.errors import LexerError, ParseError, WorkloadError
from repro.lang import nodes

_SOURCE = "lang"

#: Interpreter statement budget (see :mod:`repro.lang.interp`): part of
#: the trust model, documented here next to the static gates.
INTERP_STEP_BUDGET = 2_000_000


def _fabric_budget() -> tuple[int, int, int]:
    """(functional units, input ports, output ports) of the default
    8x8 prototype fabric the static resource lint checks against."""
    # Imported lazily: repro.dyser participates in the cpu<->dyser
    # import cycle and must not be pulled in at workloads import time.
    from repro.dyser import FabricGeometry

    geometry = FabricGeometry(8, 8)
    return (64, geometry.num_input_ports, geometry.num_output_ports)


def literal_value(expr: ast.Expr | None) -> float | None:
    """Numeric literal value (allowing a leading unary minus), or None.
    Raises :class:`OverflowError` for an int literal past the float
    range."""
    if isinstance(expr, (ast.IntLit, ast.FloatLit)):
        return float(expr.value)
    if isinstance(expr, ast.Unary) and expr.op == "-":
        inner = literal_value(expr.operand)
        return None if inner is None else -inner
    return None


# -- size expressions ----------------------------------------------------


def _is_size_expr(expr: ast.Expr | None, known: set[str]) -> bool:
    """Static size expressions: int literals, size names, ``+ - *``."""
    if isinstance(expr, ast.IntLit):
        return True
    if isinstance(expr, ast.Name):
        return expr.ident in known
    if isinstance(expr, ast.Binary):
        return (expr.op in ("+", "-", "*")
                and _is_size_expr(expr.left, known)
                and _is_size_expr(expr.right, known))
    return False


def eval_size(expr: ast.Expr | None, env: dict[str, int]) -> int:
    """Evaluate a (validated) size expression."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.Name):
        return env[expr.ident]
    if isinstance(expr, ast.Binary):
        lhs, rhs = eval_size(expr.left, env), eval_size(expr.right, env)
        if expr.op == "+":
            return lhs + rhs
        if expr.op == "-":
            return lhs - rhs
        return lhs * rhs
    raise WorkloadError(f"not a size expression: {expr!r}")


def declared_scales(spec: nodes.KernelSpec) -> tuple[str, ...]:
    """Scales every size table declares (standard ones first)."""
    tables = [dict(s.table) for s in spec.sizes if s.table]
    if not tables:
        return nodes.STANDARD_SCALES
    common = set(tables[0])
    for table in tables[1:]:
        common &= set(table)
    ordered = [s for s in nodes.STANDARD_SCALES if s in common]
    ordered += sorted(common - set(nodes.STANDARD_SCALES))
    return tuple(ordered)


def size_env(spec: nodes.KernelSpec, scale: str) -> dict[str, int]:
    """Resolve every declared size at ``scale`` (declaration order)."""
    env: dict[str, int] = {}
    for decl in spec.sizes:
        if decl.table:
            table = dict(decl.table)
            if scale not in table:
                raise WorkloadError(
                    f"unknown scale {scale!r}; have {sorted(table)}")
            env[decl.ident] = int(table[scale])
        else:
            assert decl.expr is not None
            env[decl.ident] = eval_size(decl.expr, env)
    return env


# -- the pipeline --------------------------------------------------------


def check_source(source: str, *, report: DiagnosticReport | None = None,
                 ) -> tuple[Optional[nodes.KernelSpec], DiagnosticReport]:
    """Parse + validate one DSL source.  Never raises on bad input.

    Returns ``(spec, report)``; ``spec`` is None (and ``report.ok`` is
    False) whenever the source must not run.
    """
    report = report if report is not None else DiagnosticReport(
        subject="kernel-dsl")
    try:
        spec = parse_source(source)
    except LexerError as exc:
        report.emit("RPR500", str(exc), source=_SOURCE,
                    line=exc.line, column=exc.column)
        return None, report
    except ParseError as exc:
        report.emit("RPR501", str(exc), source=_SOURCE,
                    line=exc.line, column=exc.column)
        return None, report
    report.subject = spec.name
    validate_spec(spec, report)
    return (spec if report.ok else None), report


def parse_source(source: str) -> nodes.KernelSpec:
    from repro.lang.parser import parse_kernel_source

    return parse_kernel_source(source)


def validate_spec(spec: nodes.KernelSpec,
                  report: DiagnosticReport) -> DiagnosticReport:
    """Type/shape check + resource lint; diagnostics into ``report``."""
    sizes = _check_header(spec, report)
    if not report.ok:
        return report
    _TypeChecker(spec, sizes, report).run()
    if report.ok:
        _lint_regions(spec, report)
    return report


# -- header --------------------------------------------------------------


def _check_header(spec: nodes.KernelSpec,
                  report: DiagnosticReport) -> set[str]:
    known: set[str] = set()
    for decl in spec.sizes:
        where = f"size {decl.ident}"
        if decl.ident in known:
            report.emit("RPR518", f"size {decl.ident!r} declared twice",
                        location=where, source=_SOURCE)
            continue
        if decl.table:
            table = dict(decl.table)
            missing = [s for s in nodes.STANDARD_SCALES if s not in table]
            if missing:
                report.emit(
                    "RPR522",
                    f"size {decl.ident!r} must define the standard "
                    f"scales; missing {missing}",
                    location=where, source=_SOURCE, missing=missing)
            bad = {s: v for s, v in table.items() if v <= 0}
            if bad:
                report.emit("RPR523",
                            f"size {decl.ident!r} must be positive at "
                            f"every scale; got {bad}",
                            location=where, source=_SOURCE)
        elif decl.expr is None or not _is_size_expr(decl.expr, known):
            report.emit("RPR517",
                        f"size {decl.ident!r} must be a scale table or "
                        "an expression over earlier sizes (+ - * only)",
                        location=where, source=_SOURCE)
        known.add(decl.ident)
    if not spec.sizes:
        report.emit("RPR517", "kernel declares no sizes",
                    location=spec.name, source=_SOURCE)
    if report.ok:
        # Derived sizes must stay positive at every declared scale.
        for scale in declared_scales(spec):
            env = size_env(spec, scale)
            for ident, value in env.items():
                if value <= 0:
                    report.emit(
                        "RPR523",
                        f"size {ident!r} is {value} at scale {scale!r}",
                        location=f"size {ident}", source=_SOURCE,
                        scale=scale)
    _check_params(spec, known, report)
    if spec.work is not None and not _is_size_expr(spec.work, known):
        report.emit("RPR517", "work must be a size expression",
                    location="work", source=_SOURCE)
    return known


_INIT_ARITY = {"uniform": 2, "randint": 2, "monotone": 1,
               "permutation": 0, "zeros": 0}
_INIT_ELEM_TYPE = {"uniform": "float", "randint": "int", "monotone": "int",
                   "permutation": "int", "zeros": None}


def _check_params(spec: nodes.KernelSpec, sizes: set[str],
                  report: DiagnosticReport) -> None:
    seen: set[str] = set(sizes)
    out_params = 0
    for param in spec.params:
        where = f"param {param.ident}"
        if param.ident in seen:
            report.emit("RPR518",
                        f"{param.ident!r} declared twice",
                        location=where, source=_SOURCE)
        seen.add(param.ident)
        if param.is_out:
            out_params += 1
            if not param.is_array:
                report.emit("RPR517",
                            "output parameters must be arrays",
                            location=where, source=_SOURCE)
                continue
            if param.init is not None and param.init.fn != "zeros":
                report.emit("RPR519",
                            "output arrays start zeroed; only zeros() "
                            "is a legal initializer",
                            location=where, source=_SOURCE)
        if param.is_array:
            if param.length is None or not _is_size_expr(
                    param.length, sizes):
                report.emit("RPR517",
                            f"array {param.ident!r} needs a static size "
                            "expression length",
                            location=where, source=_SOURCE)
            if not param.is_out:
                _check_init(param, sizes, report)
        else:
            if param.type != "int":
                report.emit("RPR517",
                            "scalar parameters must be int (pass floats "
                            "as 1-element arrays)",
                            location=where, source=_SOURCE)
            elif param.value is None or not _is_size_expr(
                    param.value, sizes):
                report.emit("RPR517",
                            f"scalar {param.ident!r} needs a size "
                            "expression value",
                            location=where, source=_SOURCE)
    if out_params == 0:
        report.emit("RPR524", "kernel declares no output parameter",
                    location=spec.name, source=_SOURCE)


def _check_init(param: nodes.ParamDecl, sizes: set[str],
                report: DiagnosticReport) -> None:
    where = f"param {param.ident}"
    init = param.init
    if init is None:
        report.emit("RPR519",
                    f"input array {param.ident!r} needs an initializer "
                    f"(one of {', '.join(nodes.INIT_FUNCTIONS)})",
                    location=where, source=_SOURCE)
        return
    if init.fn not in nodes.INIT_FUNCTIONS:
        report.emit("RPR519",
                    f"unknown initializer {init.fn!r}; have "
                    f"{', '.join(nodes.INIT_FUNCTIONS)}",
                    location=where, source=_SOURCE)
        return
    if len(init.args) != _INIT_ARITY[init.fn]:
        report.emit("RPR519",
                    f"{init.fn}() takes {_INIT_ARITY[init.fn]} "
                    f"argument(s), got {len(init.args)}",
                    location=where, source=_SOURCE)
        return
    want = _INIT_ELEM_TYPE[init.fn]
    if want is not None and param.type != want:
        report.emit("RPR519",
                    f"{init.fn}() initializes {want} arrays; "
                    f"{param.ident!r} is {param.type}",
                    location=where, source=_SOURCE)
        return
    if init.fn == "uniform":
        for arg in init.args:
            try:
                value = literal_value(arg)
            except OverflowError:
                report.emit("RPR519",
                            "uniform() bound is past the float range",
                            location=f"{arg.line}:{arg.col}",
                            source=_SOURCE)
                return
            if value is None:
                report.emit("RPR519",
                            "uniform() bounds must be numeric literals",
                            location=where, source=_SOURCE)
                return
    else:
        for arg in init.args:
            if not _is_size_expr(arg, sizes):
                report.emit("RPR519",
                            f"{init.fn}() bounds must be size "
                            "expressions",
                            location=where, source=_SOURCE)
                return


# -- body type checking ---------------------------------------------------


class _Sym:
    __slots__ = ("type", "is_array", "writable")

    def __init__(self, type_: str, *, is_array: bool = False,
                 writable: bool = False) -> None:
        self.type = type_
        self.is_array = is_array
        self.writable = writable


class _TypeChecker:
    """One pass over the body; poisoned types stop error cascades."""

    def __init__(self, spec: nodes.KernelSpec, sizes: set[str],
                 report: DiagnosticReport) -> None:
        self.spec = spec
        self.report = report
        self.scope: dict[str, _Sym] = {s: _Sym("int") for s in sizes}
        for p in spec.params:
            self.scope[p.ident] = _Sym(
                p.type, is_array=p.is_array,
                writable=bool(p.is_out and p.is_array))
        self.loop_depth = 0
        self.written_outs: set[str] = set()

    def run(self) -> None:
        for stmt in self.spec.body:
            self.stmt(stmt)
        for p in self.spec.params:
            if p.is_out and p.is_array and p.ident not in self.written_outs:
                self.report.emit(
                    "RPR515",
                    f"output {p.ident!r} is never written",
                    location=f"param {p.ident}", source=_SOURCE)

    def _at(self, node) -> str:
        return f"{node.line}:{node.col}"

    def fail(self, code: str, node, message: str) -> None:
        self.report.emit(code, message, location=self._at(node),
                         source=_SOURCE)

    # -- statements ---------------------------------------------------

    def stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Decl):
            self.decl(stmt)
        elif isinstance(stmt, ast.Assign):
            self.assign(stmt)
        elif isinstance(stmt, ast.If):
            self.cond(stmt.cond)
            for s in stmt.then_body:
                self.stmt(s)
            for s in stmt.else_body:
                self.stmt(s)
        elif isinstance(stmt, ast.For):
            if isinstance(stmt.init, ast.Decl):
                self.decl(stmt.init)
            elif stmt.init is not None:
                self.assign(stmt.init)
            self.cond(stmt.cond)
            if stmt.step is not None:
                self.assign(stmt.step)
            self.loop_depth += 1
            for s in stmt.body:
                self.stmt(s)
            self.loop_depth -= 1
        elif isinstance(stmt, ast.While):
            self.report.emit(
                "RPR540",
                "while loop trip count is data-dependent; the "
                f"interpreter budget ({INTERP_STEP_BUDGET} steps) "
                "applies",
                location=self._at(stmt), source=_SOURCE)
            self.cond(stmt.cond)
            self.loop_depth += 1
            for s in stmt.body:
                self.stmt(s)
            self.loop_depth -= 1
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if self.loop_depth == 0:
                self.fail("RPR526", stmt,
                          "break/continue outside a loop")
        elif isinstance(stmt, nodes.DyserBlock):
            for s in stmt.body:
                self.stmt(s)

    def decl(self, stmt: ast.Decl) -> None:
        dtype = str(stmt.type)
        if stmt.name in self.scope:
            self.fail("RPR518", stmt, f"{stmt.name!r} declared twice")
        got = self.expr(stmt.init)
        if got is not None and got != dtype:
            self.fail("RPR511", stmt,
                      f"cannot initialize {dtype} {stmt.name!r} from {got}")
        self.scope[stmt.name] = _Sym(dtype, writable=True)

    def assign(self, stmt: ast.Assign) -> None:
        got = self.expr(stmt.value)
        target = stmt.target
        assert target is not None
        name = target.base if isinstance(target, ast.Index) else target.ident
        sym = self.scope.get(name)
        if sym is None:
            self.fail("RPR510", target,
                      f"assignment to undefined name {name!r}")
            return
        if isinstance(target, ast.Index):
            if not sym.is_array:
                self.fail("RPR512", target, f"{name!r} is not an array")
                return
            idx = self.expr(target.index)
            if idx is not None and idx != "int":
                self.fail("RPR511", target, "array index must be int")
            if not sym.writable:
                self.fail("RPR513", target,
                          f"cannot write to input array {name!r}")
                return
            self.written_outs.add(name)
        else:
            if sym.is_array:
                self.fail("RPR512", target,
                          f"array {name!r} needs an index")
                return
            if not sym.writable:
                self.fail("RPR513", target,
                          f"cannot write to read-only {name!r}")
                return
        if got is not None and got != sym.type:
            self.fail("RPR511", stmt,
                      f"cannot assign {got} to {sym.type} {name!r}")

    def cond(self, expr: ast.Expr | None) -> None:
        got = self.expr(expr)
        if got is not None and got != "int":
            self.fail("RPR511", expr, "condition must be int")

    # -- expressions ---------------------------------------------------

    def expr(self, expr: ast.Expr | None) -> str | None:
        """Returns "int"/"float", or None when already diagnosed."""
        if isinstance(expr, ast.IntLit):
            return "int"
        if isinstance(expr, ast.FloatLit):
            return "float"
        if isinstance(expr, ast.Name):
            sym = self.scope.get(expr.ident)
            if sym is None:
                self.fail("RPR510", expr,
                          f"undefined name {expr.ident!r}")
                return None
            if sym.is_array:
                self.fail("RPR512", expr,
                          f"array {expr.ident!r} needs an index")
                return None
            return sym.type
        if isinstance(expr, ast.Index):
            sym = self.scope.get(expr.base)
            if sym is None:
                self.fail("RPR510", expr,
                          f"undefined name {expr.base!r}")
                return None
            if not sym.is_array:
                self.fail("RPR512", expr,
                          f"{expr.base!r} is not an array")
                return None
            idx = self.expr(expr.index)
            if idx is not None and idx != "int":
                self.fail("RPR511", expr, "array index must be int")
            return sym.type
        if isinstance(expr, ast.Call):
            return self.call(expr)
        if isinstance(expr, ast.Unary):
            got = self.expr(expr.operand)
            if got is None:
                return None
            if expr.op == "!" and got != "int":
                self.fail("RPR511", expr, "! needs an int operand")
                return None
            return got
        if isinstance(expr, ast.Binary):
            return self.binary(expr)
        raise AssertionError(f"unhandled expr {expr!r}")

    def call(self, expr: ast.Call) -> str | None:
        arity = {"sqrt": 1, "abs": 1, "float": 1, "min": 2, "max": 2}
        if expr.func not in nodes.DSL_INTRINSICS:
            self.fail("RPR516", expr,
                      f"unknown intrinsic {expr.func!r}; have "
                      f"{', '.join(nodes.DSL_INTRINSICS)}")
            return None
        if len(expr.args) != arity[expr.func]:
            self.fail("RPR516", expr,
                      f"{expr.func}() takes {arity[expr.func]} "
                      f"argument(s), got {len(expr.args)}")
            return None
        types = [self.expr(a) for a in expr.args]
        if any(t is None for t in types):
            return None
        if expr.func == "sqrt":
            if types[0] != "float":
                self.fail("RPR511", expr, "sqrt() needs a float")
                return None
            return "float"
        if expr.func == "float":
            return "float"
        if expr.func in ("min", "max") and types[0] != types[1]:
            self.fail("RPR511", expr,
                      f"{expr.func}() operands must share a type")
            return None
        return types[0]

    def binary(self, expr: ast.Binary) -> str | None:
        lhs, rhs = self.expr(expr.left), self.expr(expr.right)
        if lhs is None or rhs is None:
            return None
        op = expr.op
        if op == "%":
            self.fail("RPR514", expr,
                      "modulo is outside the validated DSL subset")
            return None
        if lhs != rhs:
            self.fail("RPR511", expr,
                      f"operands of {op!r} must share a type "
                      f"({lhs} vs {rhs}); use float() to convert")
            return None
        if op in ("&&", "||"):
            if lhs != "int":
                self.fail("RPR511", expr, f"{op!r} needs int operands")
                return None
            return "int"
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return "int"
        if op == "/":
            if lhs == "int":
                self.fail("RPR514", expr,
                          "integer division is outside the validated "
                          "DSL subset; use float() first")
                return None
            return "float"
        return lhs   # + - *


# -- dyser region resource lint -------------------------------------------


def _lint_regions(spec: nodes.KernelSpec,
                  report: DiagnosticReport) -> None:
    regions: list[nodes.DyserBlock] = []
    _collect_regions(spec.body, report, regions, inside=False)
    if not regions:
        return
    fus, in_ports, out_ports = _fabric_budget()
    for i, region in enumerate(regions):
        where = f"dyser.{i}"
        ops = _count_ops(region.body)
        if ops > fus:
            report.emit(
                "RPR520",
                f"region declares {ops} compute ops; the 8x8 fabric "
                f"has {fus} functional units",
                location=where, source=_SOURCE, ops=ops, capacity=fus)
        live_in, live_out = _live_values(region.body)
        if live_in > in_ports:
            report.emit(
                "RPR521",
                f"region needs {live_in} input values; the fabric "
                f"exposes {in_ports} input ports",
                location=where, source=_SOURCE,
                values=live_in, ports=in_ports)
        if live_out > out_ports:
            report.emit(
                "RPR521",
                f"region produces {live_out} output values; the "
                f"fabric exposes {out_ports} output ports",
                location=where, source=_SOURCE,
                values=live_out, ports=out_ports)


def _collect_regions(stmts, report: DiagnosticReport,
                     regions: list, *, inside: bool) -> None:
    for stmt in stmts:
        if isinstance(stmt, nodes.DyserBlock):
            if inside:
                report.emit("RPR525",
                            "dyser regions cannot nest",
                            location=f"{stmt.line}:{stmt.col}",
                            source=_SOURCE)
            else:
                regions.append(stmt)
            if _has_loop(stmt.body):
                report.emit(
                    "RPR525",
                    "dyser regions are acyclic dataflow; hoist loops "
                    "outside the region",
                    location=f"{stmt.line}:{stmt.col}", source=_SOURCE)
            _collect_regions(stmt.body, report, regions, inside=True)
        elif isinstance(stmt, ast.If):
            _collect_regions(stmt.then_body, report, regions, inside=inside)
            _collect_regions(stmt.else_body, report, regions, inside=inside)
        elif isinstance(stmt, (ast.For, ast.While)):
            _collect_regions(stmt.body, report, regions, inside=inside)


def _has_loop(stmts) -> bool:
    for stmt in stmts:
        if isinstance(stmt, (ast.For, ast.While)):
            return True
        if isinstance(stmt, ast.If):
            if _has_loop(stmt.then_body) or _has_loop(stmt.else_body):
                return True
        if isinstance(stmt, nodes.DyserBlock) and _has_loop(stmt.body):
            return True
    return False


def _count_ops(stmts) -> int:
    count = 0

    def walk_expr(expr: ast.Expr | None) -> None:
        nonlocal count
        if isinstance(expr, (ast.Binary, ast.Unary, ast.Call)):
            count += 1
        if isinstance(expr, ast.Binary):
            walk_expr(expr.left)
            walk_expr(expr.right)
        elif isinstance(expr, ast.Unary):
            walk_expr(expr.operand)
        elif isinstance(expr, ast.Call):
            for a in expr.args:
                walk_expr(a)
        elif isinstance(expr, ast.Index):
            walk_expr(expr.index)

    def walk(stmts) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Decl):
                walk_expr(stmt.init)
            elif isinstance(stmt, ast.Assign):
                walk_expr(stmt.value)
                if isinstance(stmt.target, ast.Index):
                    walk_expr(stmt.target.index)
            elif isinstance(stmt, ast.If):
                walk_expr(stmt.cond)
                walk(stmt.then_body)
                walk(stmt.else_body)
            elif isinstance(stmt, (ast.For, ast.While)):
                walk_expr(stmt.cond)
                walk(stmt.body)
            elif isinstance(stmt, nodes.DyserBlock):
                walk(stmt.body)

    walk(stmts)
    return count


def _live_values(stmts) -> tuple[int, int]:
    """(inbound, outbound) value count for a declared region.

    Inbound: distinct scalar names read before local definition plus
    every array-element load (each is one dsend on the access slice).
    Outbound: distinct scalar names written plus array-element stores.
    """
    local: set[str] = set()
    reads: set[str] = set()
    writes: set[str] = set()
    loads = 0
    stores = 0

    def walk_expr(expr: ast.Expr | None) -> None:
        nonlocal loads
        if isinstance(expr, ast.Name):
            if expr.ident not in local:
                reads.add(expr.ident)
        elif isinstance(expr, ast.Index):
            loads += 1
            walk_expr(expr.index)
        elif isinstance(expr, ast.Binary):
            walk_expr(expr.left)
            walk_expr(expr.right)
        elif isinstance(expr, ast.Unary):
            walk_expr(expr.operand)
        elif isinstance(expr, ast.Call):
            for a in expr.args:
                walk_expr(a)

    def walk(stmts) -> None:
        nonlocal stores
        for stmt in stmts:
            if isinstance(stmt, ast.Decl):
                walk_expr(stmt.init)
                local.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                walk_expr(stmt.value)
                if isinstance(stmt.target, ast.Index):
                    walk_expr(stmt.target.index)
                    stores += 1
                elif stmt.target is not None:
                    writes.add(stmt.target.ident)
            elif isinstance(stmt, ast.If):
                walk_expr(stmt.cond)
                walk(stmt.then_body)
                walk(stmt.else_body)
            elif isinstance(stmt, (ast.For, ast.While)):
                walk_expr(stmt.cond)
                walk(stmt.body)
            elif isinstance(stmt, nodes.DyserBlock):
                walk(stmt.body)

    walk(stmts)
    return len(reads) + loads, len(writes - local) + stores
