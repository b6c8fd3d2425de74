"""Recursive-descent parser for the kernel language.

Grammar::

    program   := kernel*
    kernel    := "kernel" IDENT "(" params? ")" block
    params    := param ("," param)*
    param     := "out"? type IDENT ("[" "]")?
    type      := "int" | "float"
    block     := "{" stmt* "}"
    stmt      := decl | assign ";" | if | for | while
               | "break" ";" | "continue" ";"
    decl      := type IDENT "=" expr ";"
    assign    := lvalue "=" expr
    lvalue    := IDENT | IDENT "[" expr "]"
    if        := "if" "(" expr ")" block ("else" (block | if))?
    for       := "for" "(" (decl | assign ";") expr ";" assign ")" block
    while     := "while" "(" expr ")" block
    expr      := precedence-climbing over
                 ||  &&  (== !=)  (< <= > >=)  (| ^ &)  (<< >>)
                 (+ -)  (* / %)  unary  primary
    primary   := literal | IDENT | IDENT "[" expr "]"
               | IDENT "(" args ")" | "(" expr ")"
"""

from __future__ import annotations

from repro.compiler import ast_nodes as ast
from repro.compiler.lexer import TokKind, Token, tokenize
from repro.compiler.types import FLOAT, INT, Type
from repro.errors import ParseError

#: Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "|": 5, "^": 6, "&": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

#: Recognized intrinsic functions.
INTRINSICS = frozenset({"sqrt", "abs", "min", "max", "float", "int"})


class Parser:
    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token plumbing ---------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind is not TokKind.EOF:
            self.pos += 1
        return tok

    def check(self, text: str) -> bool:
        return self.cur.text == text and self.cur.kind in (
            TokKind.OP, TokKind.KEYWORD)

    def accept(self, text: str) -> bool:
        if self.check(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.check(text):
            self.fail(f"expected {text!r}, found {self.cur.text!r}")
        return self.advance()

    def expect_ident(self) -> Token:
        if self.cur.kind is not TokKind.IDENT:
            self.fail(f"expected identifier, found {self.cur.text!r}")
        return self.advance()

    def fail(self, message: str) -> None:
        raise ParseError(message, self.cur.line, self.cur.column)

    # -- top level -----------------------------------------------------------

    def parse_program(self) -> list[ast.Kernel]:
        kernels = []
        while self.cur.kind is not TokKind.EOF:
            kernels.append(self.parse_kernel())
        if not kernels:
            self.fail("empty program")
        return kernels

    def parse_kernel(self) -> ast.Kernel:
        tok = self.expect("kernel")
        name = self.expect_ident().text
        self.expect("(")
        params: list[ast.Param] = []
        if not self.check(")"):
            params.append(self.parse_param())
            while self.accept(","):
                params.append(self.parse_param())
        self.expect(")")
        body = self.parse_block()
        return ast.Kernel(name=name, params=params, body=body,
                          line=tok.line, col=tok.column)

    def parse_param(self) -> ast.Param:
        tok = self.cur
        is_out = self.accept("out")
        base = self.parse_scalar_type()
        name = self.expect_ident().text
        is_array = False
        if self.accept("["):
            self.expect("]")
            is_array = True
        return ast.Param(
            type=Type(base.scalar, is_array=is_array),
            name=name, is_out=is_out, line=tok.line, col=tok.column,
        )

    def parse_scalar_type(self) -> Type:
        if self.accept("int"):
            return INT
        if self.accept("float"):
            return FLOAT
        self.fail(f"expected a type, found {self.cur.text!r}")
        raise AssertionError  # pragma: no cover

    # -- statements --------------------------------------------------------------

    def parse_block(self) -> list[ast.Stmt]:
        self.expect("{")
        body: list[ast.Stmt] = []
        while not self.check("}"):
            if self.cur.kind is TokKind.EOF:
                self.fail("unterminated block")
            body.append(self.parse_stmt())
        self.expect("}")
        return body

    def parse_stmt(self) -> ast.Stmt:
        if self.check("int") or self.check("float"):
            return self.parse_decl()
        if self.check("if"):
            return self.parse_if()
        if self.check("for"):
            return self.parse_for()
        if self.check("while"):
            return self.parse_while()
        if self.check("break"):
            tok = self.advance()
            self.expect(";")
            return ast.Break(line=tok.line, col=tok.column)
        if self.check("continue"):
            tok = self.advance()
            self.expect(";")
            return ast.Continue(line=tok.line, col=tok.column)
        stmt = self.parse_assign()
        self.expect(";")
        return stmt

    def parse_decl(self) -> ast.Decl:
        tok = self.cur
        base = self.parse_scalar_type()
        name = self.expect_ident().text
        self.expect("=")
        init = self.parse_expr()
        self.expect(";")
        return ast.Decl(type=base, name=name, init=init,
                        line=tok.line, col=tok.column)

    def parse_assign(self) -> ast.Assign:
        tok = self.expect_ident()
        if self.accept("["):
            index = self.parse_expr()
            self.expect("]")
            target: ast.Name | ast.Index = ast.Index(
                base=tok.text, index=index, line=tok.line, col=tok.column)
        else:
            target = ast.Name(ident=tok.text, line=tok.line, col=tok.column)
        self.expect("=")
        value = self.parse_expr()
        return ast.Assign(target=target, value=value,
                          line=tok.line, col=tok.column)

    def parse_if(self) -> ast.If:
        tok = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_body = self.parse_block()
        else_body: list[ast.Stmt] = []
        if self.accept("else"):
            else_body = ([self.parse_if()] if self.check("if")
                         else self.parse_block())
        return ast.If(cond=cond, then_body=then_body, else_body=else_body,
                      line=tok.line, col=tok.column)

    def parse_for(self) -> ast.For:
        tok = self.expect("for")
        self.expect("(")
        if self.check("int") or self.check("float"):
            init: ast.Decl | ast.Assign = self.parse_decl()  # eats ";"
        else:
            init = self.parse_assign()
            self.expect(";")
        cond = self.parse_expr()
        self.expect(";")
        step = self.parse_assign()
        self.expect(")")
        body = self.parse_block()
        return ast.For(init=init, cond=cond, step=step, body=body,
                       line=tok.line, col=tok.column)

    def parse_while(self) -> ast.While:
        tok = self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_block()
        return ast.While(cond=cond, body=body, line=tok.line, col=tok.column)

    # -- expressions -----------------------------------------------------------------

    def parse_expr(self, min_prec: int = 1) -> ast.Expr:
        left = self.parse_unary()
        while (self.cur.kind is TokKind.OP
               and self.cur.text in _PRECEDENCE
               and _PRECEDENCE[self.cur.text] >= min_prec):
            op = self.advance()
            right = self.parse_expr(_PRECEDENCE[op.text] + 1)
            left = ast.Binary(op=op.text, left=left, right=right,
                              line=op.line, col=op.column)
        return left

    def parse_unary(self) -> ast.Expr:
        if self.check("-") or self.check("!"):
            tok = self.advance()
            return ast.Unary(op=tok.text, operand=self.parse_unary(),
                             line=tok.line, col=tok.column)
        return self.parse_primary()

    def parse_primary(self) -> ast.Expr:
        tok = self.cur
        if tok.kind is TokKind.INT:
            self.advance()
            return ast.IntLit(value=self.int_value(tok),
                              line=tok.line, col=tok.column)
        if tok.kind is TokKind.FLOAT:
            self.advance()
            return ast.FloatLit(value=float(tok.text),
                                line=tok.line, col=tok.column)
        if self.accept("("):
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if tok.kind is TokKind.KEYWORD and tok.text in ("int", "float"):
            # Cast syntax: int(e), float(e).
            self.advance()
            self.expect("(")
            arg = self.parse_expr()
            self.expect(")")
            return ast.Call(func=tok.text, args=[arg],
                            line=tok.line, col=tok.column)
        if tok.kind is TokKind.IDENT:
            self.advance()
            if self.accept("["):
                index = self.parse_expr()
                self.expect("]")
                return ast.Index(base=tok.text, index=index,
                                 line=tok.line, col=tok.column)
            if self.accept("("):
                self.check_call(tok)
                args = []
                if not self.check(")"):
                    args.append(self.parse_expr())
                    while self.accept(","):
                        args.append(self.parse_expr())
                self.expect(")")
                return ast.Call(func=tok.text, args=args,
                                line=tok.line, col=tok.column)
            return ast.Name(ident=tok.text, line=tok.line, col=tok.column)
        self.fail(f"expected expression, found {tok.text!r}")
        raise AssertionError  # pragma: no cover

    def int_value(self, tok: Token) -> int:
        """Value of an int token: hex with a ``0x`` prefix, else decimal
        (leading zeros allowed: ``08`` is 8)."""
        try:
            return int(tok.text, 16 if tok.text[:2] in ("0x", "0X") else 10)
        except ValueError:   # more digits than int() converts
            raise ParseError(f"integer literal too long: {tok.text[:20]}...",
                             tok.line, tok.column) from None

    def check_call(self, tok: Token) -> None:
        """Reject a call to ``tok``'s name unless it is an intrinsic."""
        if tok.text not in INTRINSICS:
            raise ParseError(
                f"unknown function {tok.text!r} (intrinsics: "
                f"{sorted(INTRINSICS)})", tok.line, tok.column)


def parse_kernels(source: str) -> list[ast.Kernel]:
    """Parse every kernel in ``source``."""
    return Parser(source).parse_program()


def parse_kernel(source: str) -> ast.Kernel:
    """Parse a source expected to contain exactly one kernel."""
    kernels = parse_kernels(source)
    if len(kernels) != 1:
        raise ParseError(
            f"expected one kernel, found {len(kernels)}", 1, 1)
    return kernels[0]
