"""Tests for the kernel-language frontend: lexer, parser, IR generation."""

import pytest

from repro.compiler.irgen import lower_kernel
from repro.compiler.lexer import TokKind, tokenize
from repro.compiler.parser import parse_kernel, parse_kernels
from repro.compiler.passes import optimize
from repro.errors import LexerError, ParseError, TypeCheckError


class TestLexer:
    def test_basic_tokens(self):
        toks = tokenize("kernel f(int x) { x = x + 1; }")
        kinds = [t.kind for t in toks]
        assert kinds[0] is TokKind.KEYWORD
        assert kinds[-1] is TokKind.EOF

    def test_numbers(self):
        toks = tokenize("1 23 0x1F 1.5 .5 2e3 1.5e-2")
        assert [t.kind.value for t in toks[:-1]] == [
            "int", "int", "int", "float", "float", "float", "float"]

    def test_operators_maximal_munch(self):
        toks = tokenize("<<= == <= < =")
        assert [t.text for t in toks[:-1]] == ["<<", "=", "==", "<=", "<", "="]

    def test_comments_skipped(self):
        toks = tokenize("a // line comment\nb /* block\ncomment */ c")
        assert [t.text for t in toks[:-1]] == ["a", "b", "c"]

    def test_line_tracking(self):
        toks = tokenize("a\nb\nc")
        assert [t.line for t in toks[:-1]] == [1, 2, 3]

    def test_bad_character(self):
        with pytest.raises(LexerError):
            tokenize("a @ b")


MM = """
kernel mm(out float C[], float A[], float B[], int n) {
    for (int i = 0; i < n; i = i + 1) {
        for (int j = 0; j < n; j = j + 1) {
            float acc = 0.0;
            for (int k = 0; k < n; k = k + 1) {
                acc = acc + A[i * n + k] * B[k * n + j];
            }
            C[i * n + j] = acc;
        }
    }
}
"""


class TestParser:
    def test_matrix_multiply_parses(self):
        k = parse_kernel(MM)
        assert k.name == "mm"
        assert len(k.params) == 4
        assert k.params[0].is_out
        assert k.params[0].type.is_array
        assert not k.params[3].type.is_array

    def test_precedence(self):
        k = parse_kernel(
            "kernel f(out int y[], int a, int b, int c) "
            "{ y[0] = a + b * c; }")
        value = k.body[0].value
        assert value.op == "+"
        assert value.right.op == "*"

    def test_comparison_precedence(self):
        k = parse_kernel(
            "kernel f(out int y[], int a, int b) "
            "{ if (a + 1 < b * 2) { y[0] = 1; } }")
        cond = k.body[0].cond
        assert cond.op == "<"

    def test_if_else_chain(self):
        k = parse_kernel("""
            kernel f(out int y[], int a) {
                if (a < 0) { y[0] = 0; }
                else if (a < 10) { y[0] = 1; }
                else { y[0] = 2; }
            }
        """)
        outer = k.body[0]
        assert len(outer.else_body) == 1
        assert outer.else_body[0].else_body

    def test_while_break_continue(self):
        k = parse_kernel("""
            kernel f(out int y[], int n) {
                int i = 0;
                while (i < n) {
                    i = i + 1;
                    if (i == 3) { continue; }
                    if (i == 7) { break; }
                    y[i] = i;
                }
            }
        """)
        assert k.body[1].body

    def test_multiple_kernels(self):
        src = (
            "kernel a(out int y[]) { y[0] = 1; }"
            "kernel b(out int y[]) { y[0] = 2; }"
        )
        assert [k.name for k in parse_kernels(src)] == ["a", "b"]

    def test_intrinsics(self):
        k = parse_kernel(
            "kernel f(out float y[], float a, float b) "
            "{ y[0] = sqrt(a) + min(a, b) + abs(a) + float(1); }")
        assert k.body

    def test_unknown_function_rejected(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse_kernel("kernel f(out int y[]) { y[0] = foo(1); }")

    def test_int_literals_are_decimal_or_hex(self):
        # ``08`` is decimal 8 (no octal), never a bare ValueError.
        k = parse_kernel("kernel k(out int y[]) "
                         "{ y[0] = 08; y[1] = 0x1F; y[2] = 007; }")
        assert [s.value.value for s in k.body] == [8, 31, 7]
        with pytest.raises(ParseError, match="too long"):
            parse_kernel("kernel k(out int y[]) { y[0] = %s; }" % ("9" * 5000))

    def test_error_position_has_column(self):
        k = parse_kernel("kernel k(out int y[]) {\n  y[0] = 1 + 2;\n}")
        binary = k.body[0].value
        assert (binary.line, binary.col) == (2, 12)

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_kernel("kernel f(out int y[]) { y[0] = 1 }")

    def test_unterminated_block(self):
        with pytest.raises(ParseError, match="unterminated|expected"):
            parse_kernel("kernel f(out int y[]) { y[0] = 1;")

    def test_error_has_location(self):
        with pytest.raises(ParseError, match=r"2:"):
            parse_kernel("kernel f(out int y[])\n{ y[0] = ; }")


class TestIrGen:
    def lower(self, src):
        func = lower_kernel(parse_kernel(src))
        func.verify()
        return func

    def rejects(self, src, code, match):
        with pytest.raises(TypeCheckError, match=match) as err:
            self.lower(src)
        assert err.value.code == code

    def test_mm_lowers_and_verifies(self):
        func = self.lower(MM)
        assert len(func.blocks) > 5
        dump = func.dump()
        assert "fmul" in dump and "fadd" in dump
        assert "load" in dump and "store" in dump

    def test_loop_has_phi(self):
        func = self.lower("""
            kernel f(out int y[], int n) {
                int s = 0;
                for (int i = 0; i < n; i = i + 1) { s = s + i; }
                y[0] = s;
            }
        """)
        assert "phi" in func.dump()

    def test_if_merge_has_phi(self):
        func = self.lower("""
            kernel f(out int y[], int a) {
                int x = 0;
                if (a > 0) { x = 1; } else { x = 2; }
                y[0] = x;
            }
        """)
        assert "phi" in func.dump()

    def test_no_phi_for_straightline(self):
        func = self.lower(
            "kernel f(out int y[], int a) { int b = a + 1; y[0] = b; }")
        assert "phi" not in func.dump()

    def test_int_float_promotion(self):
        func = self.lower(
            "kernel f(out float y[], int a, float b) { y[0] = a + b; }")
        assert "i2f" in func.dump()

    def test_float_to_int_requires_cast(self):
        self.rejects("kernel f(out int y[], float a) { y[0] = a; }",
                     "RPR511", "cannot assign float to int")

    def test_explicit_cast_allowed(self):
        func = self.lower(
            "kernel f(out int y[], float a) { y[0] = int(a); }")
        assert "f2i" in func.dump()

    def test_undefined_variable(self):
        self.rejects("kernel f(out int y[]) { y[0] = z; }",
                     "RPR510", "undefined")

    def test_redeclaration_rejected(self):
        self.rejects(
            "kernel f(out int y[]) { int a = 1; int a = 2; y[0] = a; }",
            "RPR518", "declared twice")

    def test_scoped_redeclaration_allowed(self):
        func = self.lower("""
            kernel f(out int y[], int n) {
                for (int i = 0; i < n; i = i + 1) { y[i] = i; }
                for (int i = 0; i < n; i = i + 1) { y[i] = y[i] + 1; }
            }
        """)
        assert func

    def test_array_used_as_scalar_rejected(self):
        self.rejects("kernel f(out int y[], int a) { y[0] = y + a; }",
                     "RPR512", "needs an index")

    def test_scalar_indexed_rejected(self):
        self.rejects("kernel f(out int y[], int a) { y[0] = a[1]; }",
                     "RPR512", "not an array")

    def test_break_outside_loop(self):
        self.rejects("kernel f(out int y[]) { break; }",
                     "RPR526", "outside a loop")

    def test_float_condition_rejected(self):
        self.rejects(
            "kernel f(out int y[], float a) { if (a) { y[0] = 1; } }",
            "RPR511", "condition")

    # Code after a ``break`` and a ``for`` step no iteration reaches are
    # never lowered, but they are type-checked.
    def test_code_after_break_is_checked(self):
        self.rejects("""
            kernel f(out int y[], int n) {
                for (int i = 0; i < n; i = i + 1) { break; y[0] = zz; }
            }
        """, "RPR510", "undefined name 'zz'")

    def test_unreachable_for_step_is_checked(self):
        self.rejects("""
            kernel f(out int y[], int n) {
                for (int i = 0; i < n; i = q) { break; }
            }
        """, "RPR510", "undefined name 'q'")

    def test_error_carries_position(self):
        with pytest.raises(TypeCheckError) as err:
            self.lower("kernel f(out int y[]) {\n  y[0] = zz; }")
        assert (err.value.line, err.value.column) == (2, 10)
        assert str(err.value).startswith("2:10: ")


class TestPasses:
    def test_constant_folding(self):
        func = lower_kernel(parse_kernel(
            "kernel f(out int y[]) { y[0] = 2 * 3 + 4; }"))
        optimize(func)
        dump = func.dump()
        assert "mul" not in dump
        assert "10" in dump

    def test_dce_removes_unused(self):
        func = lower_kernel(parse_kernel(
            "kernel f(out int y[], int a) { int dead = a * 37; y[0] = a; }"))
        optimize(func)
        assert "37" not in func.dump()

    def test_branch_folding_removes_dead_arm(self):
        func = lower_kernel(parse_kernel("""
            kernel f(out int y[], int a) {
                if (1 < 0) { y[0] = 111; } else { y[0] = 222; }
            }
        """))
        optimize(func)
        assert "111" not in func.dump()
        assert "222" in func.dump()

    def test_optimize_preserves_verification(self):
        func = lower_kernel(parse_kernel(MM))
        optimize(func)
        func.verify()
