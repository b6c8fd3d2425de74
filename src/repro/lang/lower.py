"""Lowering: validated :class:`KernelSpec` → standard :class:`Workload`.

A lowered DSL kernel is indistinguishable from a built-in suite entry:

- the compute body pretty-prints to *kernel-language* source (the
  ``dyser { }`` regions inline — the co-designed compiler re-discovers
  them via its own region selection, which is what the access/execute
  validation already modelled);
- ``prepare`` generates inputs from the declared initializers with a
  seeded ``numpy`` RNG, computes expected outputs with the reference
  interpreter (:mod:`repro.lang.interp`), and returns a standard
  :class:`~repro.workloads.base.Instance`.

Because the result is a plain :class:`Workload`, everything downstream
— :class:`RunConfig`, ``JobSpec`` hashing, the artifact cache, all four
backends, the perf analyzer and the parity harnesses — applies without
modification.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.compiler import ast_nodes as ast
from repro.errors import WorkloadError
from repro.lang.interp import Interpreter
from repro.lang.nodes import DyserBlock, KernelSpec, ParamDecl
from repro.lang.validate import eval_size, literal_value, size_env
from repro.workloads.base import (
    IRREGULAR_DSL,
    Instance,
    Workload,
    allclose_check,
    exact_check,
)


# -- kernel-language pretty printer ---------------------------------------


def _expr_text(expr: ast.Expr | None) -> str:
    if isinstance(expr, ast.IntLit):
        return str(expr.value)
    if isinstance(expr, ast.FloatLit):
        return repr(expr.value)
    if isinstance(expr, ast.Name):
        return expr.ident
    if isinstance(expr, ast.Index):
        return f"{expr.base}[{_expr_text(expr.index)}]"
    if isinstance(expr, ast.Call):
        args = ", ".join(_expr_text(a) for a in expr.args)
        return f"{expr.func}({args})"
    if isinstance(expr, ast.Unary):
        return f"({expr.op}{_expr_text(expr.operand)})"
    assert isinstance(expr, ast.Binary)
    return f"({_expr_text(expr.left)} {expr.op} {_expr_text(expr.right)})"


def _simple_text(stmt: ast.Decl | ast.Assign | None) -> str:
    """A declaration or an assignment, without its ``;``."""
    if isinstance(stmt, ast.Decl):
        return f"{stmt.type} {stmt.name} = {_expr_text(stmt.init)}"
    assert stmt is not None
    return f"{_expr_text(stmt.target)} = {_expr_text(stmt.value)}"


def _stmt_lines(stmt: ast.Stmt, indent: int) -> list[str]:
    pad = "    " * indent
    if isinstance(stmt, (ast.Decl, ast.Assign)):
        return [f"{pad}{_simple_text(stmt)};"]
    if isinstance(stmt, ast.If):
        lines = [f"{pad}if ({_expr_text(stmt.cond)}) {{"]
        for s in stmt.then_body:
            lines.extend(_stmt_lines(s, indent + 1))
        if stmt.else_body:
            lines.append(f"{pad}}} else {{")
            for s in stmt.else_body:
                lines.extend(_stmt_lines(s, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, ast.For):
        head = (f"{pad}for ({_simple_text(stmt.init)}; "
                f"{_expr_text(stmt.cond)}; {_simple_text(stmt.step)}) {{")
        lines = [head]
        for s in stmt.body:
            lines.extend(_stmt_lines(s, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, ast.While):
        lines = [f"{pad}while ({_expr_text(stmt.cond)}) {{"]
        for s in stmt.body:
            lines.extend(_stmt_lines(s, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, ast.Break):
        return [f"{pad}break;"]
    if isinstance(stmt, ast.Continue):
        return [f"{pad}continue;"]
    assert isinstance(stmt, DyserBlock)
    lines = []
    for s in stmt.body:
        lines.extend(_stmt_lines(s, indent))
    return lines


def lowered_source(spec: KernelSpec) -> str:
    """Kernel-language source text for a validated spec."""
    params = []
    for p in spec.params:
        prefix = "out " if p.is_out else ""
        suffix = "[]" if p.is_array else ""
        params.append(f"{prefix}{p.type} {p.ident}{suffix}")
    lines = [f"kernel {spec.name}({', '.join(params)}) {{"]
    for stmt in spec.body:
        lines.extend(_stmt_lines(stmt, 1))
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- input generation ------------------------------------------------------


def _gen_array(param: ParamDecl, length: int,
               env: dict[str, int], rng: np.random.Generator) -> np.ndarray:
    init = param.init
    if param.is_out or init is None or init.fn == "zeros":
        dtype = np.float64 if param.type == "float" else np.int64
        return np.zeros(length, dtype=dtype)
    if init.fn == "uniform":
        lo, hi = (literal_value(a) for a in init.args)
        assert lo is not None and hi is not None
        return rng.uniform(lo, hi, size=length)
    if init.fn == "randint":
        lo, hi = (eval_size(a, env) for a in init.args)
        if hi <= lo:
            raise WorkloadError(
                f"randint({lo}, {hi}) is an empty range",
                code="RPR519", param=param.ident)
        return rng.integers(lo, hi, size=length, dtype=np.int64)
    if init.fn == "monotone":
        total = eval_size(init.args[0], env)
        if length < 2:
            raise WorkloadError(
                "monotone() arrays need length >= 2",
                code="RPR519", param=param.ident)
        inner = np.sort(rng.integers(0, total + 1, size=length - 2,
                                     dtype=np.int64))
        return np.concatenate(([0], inner, [total])).astype(np.int64)
    assert init.fn == "permutation"
    return rng.permutation(length).astype(np.int64)


def _make_prepare(spec: KernelSpec) -> Callable:
    def prepare(memory, scale: str, seed: int) -> Instance:
        env = size_env(spec, scale)
        rng = np.random.default_rng(seed)
        # Generate inputs in declaration order (deterministic RNG use).
        arrays: dict[str, np.ndarray] = {}
        scalars: dict[str, int] = {}
        for p in spec.params:
            if p.is_array:
                assert p.length is not None
                length = eval_size(p.length, env)
                arrays[p.ident] = _gen_array(p, length, env, rng)
            else:
                assert p.value is not None
                scalars[p.ident] = eval_size(p.value, env)

        # Expected outputs via the reference interpreter.  Arrays become
        # Python lists so interpreter arithmetic stays native int/float.
        ienv: dict[str, Any] = dict(env)
        ienv.update(scalars)
        for p in spec.params:
            if p.is_array:
                values = arrays[p.ident]
                ienv[p.ident] = (
                    [float(v) for v in values] if p.type == "float"
                    else [int(v) for v in values])
        Interpreter(ienv).run(spec)

        # Materialize simulator memory and the argument tuple.
        int_args: list[int] = []
        checks: list[Callable] = []
        for p in spec.params:
            if not p.is_array:
                int_args.append(scalars[p.ident])
                continue
            if p.is_out:
                address = memory.alloc(len(arrays[p.ident]))
                expected = np.asarray(
                    ienv[p.ident],
                    dtype=np.float64 if p.type == "float" else np.int64)
                if p.type == "float":
                    checks.append(
                        lambda mem, a=address, e=expected:
                        allclose_check(mem, a, e, rtol=1e-9))
                else:
                    checks.append(
                        lambda mem, a=address, e=expected:
                        exact_check(mem, a, e))
                address_val = address
            else:
                address_val = memory.alloc_numpy(arrays[p.ident])
            int_args.append(address_val)

        work = (eval_size(spec.work, env) if spec.work is not None
                else max(env.values()))
        return Instance(
            int_args=tuple(int_args),
            check=lambda mem: all(c(mem) for c in checks),
            work_items=work,
        )

    return prepare


def lower_spec(spec: KernelSpec, *, name: str | None = None,
               category: str = IRREGULAR_DSL,
               description: str | None = None) -> Workload:
    """Compile a validated spec into a standard :class:`Workload`.

    ``name`` defaults to the content-addressed handle
    (``dsl:<hash16>``); shipped kernels pass their declared name.
    """
    return Workload(
        name=name or spec.workload_name,
        category=category,
        description=description
        or f"DSL kernel {spec.name} ({spec.kernel_hash[:12]})",
        source=lowered_source(spec),
        prepare=_make_prepare(spec),
        flops_per_item=spec.flops,
    )
