"""Parser for the kernel DSL: a header + ``dyser {}`` over kernel-language
statements.

Grammar::

    kernel    := "kernel" IDENT "{" header* stmt* "}"
    header    := size | param | "work" "=" expr ";"
               | "flops" "=" "-"? NUMBER ";"
    size      := "size" IDENT "=" (table | expr) ";"
    table     := "{" IDENT ":" INT ("," IDENT ":" INT)* "}"
    param     := ("in" | "out") type IDENT
                 ( "[" expr "]" ("=" init)? | "=" expr )? ";"
    init      := IDENT "(" (expr ("," expr)*)? ")"
    stmt      := <kernel-language stmt> | "dyser" block

Everything else (tokens, literals, comments, statements, expressions)
is the kernel language's: :class:`Parser` extends the compiler's
:class:`repro.compiler.parser.Parser` over its tokenizer and builds its
nodes (:mod:`repro.compiler.ast_nodes`).  The DSL is a *subset* of that
language, and each subset rule is enforced in one place:

- ``size``, ``in``, ``work``, ``flops`` and ``dyser`` are reserved
  words here (turned into keywords after tokenizing);
- ``&``, ``|``, ``^``, ``<<`` and ``>>`` are rejected here, right after
  tokenizing, as ``RPR500`` at the operator (the interpreter has no
  semantics for them);
- a float literal past the float range (``1e999``) is rejected here as
  ``RPR501`` at the literal (it would lower to ``inf``, a name the
  compiler does not know);
- a call parses whatever its name; the type checker
  (:mod:`repro.compiler.typecheck`, under the DSL policy) rejects any
  name outside :data:`~repro.lang.nodes.DSL_INTRINSICS`, ``int(e)``
  included, as ``RPR516``, and integer ``/`` and ``%`` as ``RPR514``.

Whitespace and comments are insignificant: the content hash is taken
over the AST, so formatting never changes a kernel's identity.
"""

from __future__ import annotations

import math

from repro.compiler import ast_nodes as ast
from repro.compiler import parser as kernel_parser
from repro.compiler.lexer import TokKind, Token
from repro.errors import LexerError, ParseError
from repro.lang.nodes import (
    DyserBlock,
    InitSpec,
    KernelSpec,
    ParamDecl,
    SizeDecl,
)

#: Words the DSL reserves on top of the kernel language's keywords.
_DSL_KEYWORDS = frozenset({"size", "in", "work", "flops", "dyser"})

#: Kernel-language operators outside the DSL subset.
_EXCLUDED_OPS = frozenset({"&", "|", "^", "<<", ">>"})


class Parser(kernel_parser.Parser):
    """The kernel-language parser plus the DSL header and ``dyser {}``."""

    def __init__(self, source: str) -> None:
        super().__init__(source)
        for i, tok in enumerate(self.tokens):
            if tok.kind is TokKind.OP and tok.text in _EXCLUDED_OPS:
                raise LexerError(
                    f"operator {tok.text!r} is outside the DSL subset",
                    tok.line, tok.column)
            if tok.kind is TokKind.IDENT and tok.text in _DSL_KEYWORDS:
                self.tokens[i] = Token(TokKind.KEYWORD, tok.text,
                                       tok.line, tok.column)

    def check_call(self, tok: Token) -> None:
        """Any name parses as a call; the validator rejects the ones
        outside the DSL intrinsics (``RPR516``)."""

    def float_value(self, tok: Token) -> float:
        value = float(tok.text)
        if not math.isfinite(value):
            raise ParseError(
                f"float literal out of range: {tok.text[:20]}...",
                tok.line, tok.column)
        return value

    # -- kernel ---------------------------------------------------------

    def parse_spec(self) -> KernelSpec:
        self.expect("kernel")
        name = self.expect_ident().text
        self.expect("{")
        sizes: list[SizeDecl] = []
        params: list[ParamDecl] = []
        work: ast.Expr | None = None
        flops = 0.0
        while True:
            if self.accept("size"):
                sizes.append(self._size_decl())
            elif self.check("in") or self.check("out"):
                params.append(self._param_decl())
            elif self.accept("work"):
                self.expect("=")
                work = self.parse_expr()
                self.expect(";")
            elif self.accept("flops"):
                self.expect("=")
                flops = self._number()
                self.expect(";")
            else:
                break
        body = []
        while not self.check("}"):
            if self.cur.kind is TokKind.EOF:
                self.fail("unterminated kernel body")
            body.append(self.parse_stmt())
        self.expect("}")
        if self.cur.kind is not TokKind.EOF:
            self.fail(f"trailing input after kernel: {self.cur.text!r}")
        return KernelSpec(name=name, sizes=tuple(sizes),
                          params=tuple(params), body=tuple(body),
                          work=work, flops=flops)

    def _number(self) -> float:
        negate = self.accept("-")
        tok = self.cur
        if tok.kind not in (TokKind.INT, TokKind.FLOAT):
            self.fail(f"expected number, found {tok.text!r}")
        try:
            value = (float(self.int_value(tok)) if tok.kind is TokKind.INT
                     else self.float_value(tok))
        except OverflowError:
            self.fail(f"number out of range: {tok.text[:20]}...")
        self.advance()
        return -value if negate else value

    def _size_decl(self) -> SizeDecl:
        tok = self.expect_ident()
        self.expect("=")
        if self.check("{"):
            self.expect("{")
            table = []
            while True:
                scale = self.expect_ident().text
                self.expect(":")
                num = self.cur
                if num.kind is not TokKind.INT:
                    self.fail(f"scale sizes must be integer literals, "
                              f"found {num.text!r}")
                self.advance()
                table.append((scale, self.int_value(num)))
                if not self.accept(","):
                    break
            self.expect("}")
            self.expect(";")
            return SizeDecl(ident=tok.text, table=tuple(table),
                            line=tok.line, col=tok.column)
        expr = self.parse_expr()
        self.expect(";")
        return SizeDecl(ident=tok.text, expr=expr,
                        line=tok.line, col=tok.column)

    def _param_decl(self) -> ParamDecl:
        is_out = self.advance().text == "out"     # "in" or "out"
        if not (self.check("int") or self.check("float")):
            self.fail(f"expected parameter type, found {self.cur.text!r}")
        ptype = self.advance().text
        tok = self.expect_ident()
        if self.accept("["):
            length = self.parse_expr()
            self.expect("]")
            init: InitSpec | None = None
            if self.accept("="):
                init = self._init_spec()
            self.expect(";")
            return ParamDecl(ident=tok.text, type=ptype, is_out=is_out,
                             is_array=True, length=length, init=init,
                             line=tok.line, col=tok.column)
        value: ast.Expr | None = None
        if self.accept("="):
            value = self.parse_expr()
        self.expect(";")
        return ParamDecl(ident=tok.text, type=ptype, is_out=is_out,
                         is_array=False, value=value,
                         line=tok.line, col=tok.column)

    def _init_spec(self) -> InitSpec:
        tok = self.expect_ident()
        self.expect("(")
        args: list[ast.Expr] = []
        if not self.check(")"):
            args.append(self.parse_expr())
            while self.accept(","):
                args.append(self.parse_expr())
        self.expect(")")
        return InitSpec(fn=tok.text, args=tuple(args),
                        line=tok.line, col=tok.column)

    # -- statements -----------------------------------------------------

    def parse_stmt(self) -> ast.Stmt:
        if self.check("dyser"):
            tok = self.advance()
            return DyserBlock(body=self.parse_block(),
                              line=tok.line, col=tok.column)
        return super().parse_stmt()


def parse_kernel_source(source: str) -> KernelSpec:
    """Parse one DSL kernel; raises LexerError/ParseError on bad input."""
    return Parser(source).parse_spec()
