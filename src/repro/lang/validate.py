"""Validation pipeline for DSL kernels: syntax → types/shapes → resources.

:func:`check_source` is the single fail-closed gate every entry point
(CLI ``repro kernel check``, ``POST /v2/kernels``, the fuzz oracle, the
suite's lazy ``dsl:`` loader) goes through.  It never raises on bad
input: every rejection is a structured RPR5xx diagnostic in the returned
:class:`~repro.analysis.diagnostics.DiagnosticReport`, so no worker is
ever burned on an ill-formed kernel and rejections render identically in
text, JSON and the service's 422 envelope.

The stages: parse (``RPR500``/``RPR501``); the header (sizes, parameters
and initializers: ``RPR517``–``RPR519``, ``RPR522``–``RPR524``); the
body, checked by the kernel language's type checker
(:mod:`repro.compiler.typecheck`) under :data:`DSL_POLICY`, then every
output checked to be written (``RPR515``); and the resource lint of the
``dyser { }`` regions (``RPR520``, ``RPR521``, ``RPR525``).  The codes
are registered in :mod:`repro.analysis.diagnostics`.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.diagnostics import DiagnosticReport
from repro.compiler import ast_nodes as ast
from repro.compiler.typecheck import Sym, TypeChecker, TypePolicy
from repro.errors import SourceError, WorkloadError
from repro.lang import nodes
from repro.lang.parser import parse_kernel_source

_SOURCE = "lang"

#: Interpreter statement budget (see :mod:`repro.lang.interp`): part of
#: the trust model, documented here next to the static gates.
INTERP_STEP_BUDGET = 2_000_000

#: The DSL's type policy (see :mod:`repro.compiler.typecheck`): one flat
#: scope, no int/float mixing, no ``%`` or integer ``/``, only
#: :data:`~repro.lang.nodes.DSL_INTRINSICS`, and a warning per ``while``.
DSL_POLICY = TypePolicy(
    source=_SOURCE, lexical_scopes=False, promote=False,
    int_division=False, intrinsics=nodes.DSL_INTRINSICS,
    while_warning="while loop trip count is data-dependent; the "
                  f"interpreter budget ({INTERP_STEP_BUDGET} steps) "
                  "applies")


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
        spec = parse_kernel_source(source)
    except SourceError as exc:   # RPR500 (tokenize) or RPR501 (parse)
        report.emit(exc.code, str(exc), source=_SOURCE,
                    line=exc.line, column=exc.column)
        return None, report
    report.subject = spec.name
    validate_spec(spec, report)
    return (spec if report.ok else None), report


def validate_spec(spec: nodes.KernelSpec,
                  report: DiagnosticReport) -> DiagnosticReport:
    """Type/shape check + resource lint; diagnostics into ``report``."""
    _check_header(spec, report)
    if not report.ok:
        return report
    _check_body(spec, report)
    if report.ok:
        _lint_regions(spec, report)
    return report


def _check_body(spec: nodes.KernelSpec, report: DiagnosticReport) -> None:
    """The shared type check under :data:`DSL_POLICY`.  The body sees
    the parameters only (sizes reach it as ``in int`` scalars, as in the
    lowered kernel); input arrays and scalars are read-only, and every
    output array must be written somewhere (``RPR515``)."""
    checker = TypeChecker(DSL_POLICY, report)
    for p in spec.params:
        checker.scope[p.ident] = Sym(p.type, p.is_array,
                                     writable=p.is_out and p.is_array)
    checker.stmts(spec.body)
    for p in spec.params:
        if p.is_out and p.is_array and p.ident not in checker.written:
            report.emit("RPR515", f"output {p.ident!r} is never written",
                        location=f"param {p.ident}", source=_SOURCE)


# -- header --------------------------------------------------------------


def _check_header(spec: nodes.KernelSpec, report: DiagnosticReport) -> None:
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


def _flat(stmts):
    """Every statement under ``stmts``, each before its sub-statements."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, ast.If):
            yield from _flat(stmt.then_body)
            yield from _flat(stmt.else_body)
        elif isinstance(stmt, (ast.For, ast.While, nodes.DyserBlock)):
            yield from _flat(stmt.body)


def _exprs(stmt: ast.Stmt):
    """Every expression a statement evaluates itself (a loop's ``cond``
    only), each before its operands."""
    roots: list[ast.Expr | None] = []
    if isinstance(stmt, ast.Decl):
        roots = [stmt.init]
    elif isinstance(stmt, ast.Assign):
        roots = [stmt.value]
        if isinstance(stmt.target, ast.Index):
            roots.append(stmt.target.index)
    elif isinstance(stmt, (ast.If, ast.For, ast.While)):
        roots = [stmt.cond]
    for root in roots:
        yield from _tree(root)


def _tree(expr: ast.Expr | None):
    yield expr
    if isinstance(expr, ast.Binary):
        yield from _tree(expr.left)
        yield from _tree(expr.right)
    elif isinstance(expr, ast.Unary):
        yield from _tree(expr.operand)
    elif isinstance(expr, ast.Call):
        for arg in expr.args:
            yield from _tree(arg)
    elif isinstance(expr, ast.Index):
        yield from _tree(expr.index)


def _has_loop(stmts) -> bool:
    return any(isinstance(s, (ast.For, ast.While)) for s in _flat(stmts))


def _count_ops(stmts) -> int:
    return sum(isinstance(e, (ast.Binary, ast.Unary, ast.Call))
               for s in _flat(stmts) for e in _exprs(s))


def _live_values(stmts) -> tuple[int, int]:
    """(inbound, outbound) value count for a declared region.

    Inbound: distinct scalar names read before local definition plus
    every array-element load (each is one dsend on the access slice).
    Outbound: distinct scalar names written plus array-element stores.
    """
    local: set[str] = set()
    reads: set[str] = set()
    writes: set[str] = set()
    loads = stores = 0
    for stmt in _flat(stmts):
        for expr in _exprs(stmt):
            if isinstance(expr, ast.Name) and expr.ident not in local:
                reads.add(expr.ident)
            loads += isinstance(expr, ast.Index)
        if isinstance(stmt, ast.Decl):
            local.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            if isinstance(stmt.target, ast.Index):
                stores += 1
            elif stmt.target is not None:
                writes.add(stmt.target.ident)
    return len(reads) + loads, len(writes - local) + stores
