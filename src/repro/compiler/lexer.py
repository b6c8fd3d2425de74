"""Tokenizer for the kernel language.

The kernel DSL (:mod:`repro.lang`) tokenizes with it too and reserves
a few more keywords on top.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.errors import LexerError

KEYWORDS = frozenset({
    "kernel", "int", "float", "for", "while", "if", "else", "out",
    "break", "continue",
})

#: Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^",
    "(", ")", "{", "}", "[", "]", ",", ";",
    ":",  # only the kernel DSL's size tables use it
]


class TokKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    INT = "int"
    FLOAT = "float"
    OP = "op"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    kind: TokKind
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"{self.kind.value}({self.text!r})@{self.line}:{self.column}"


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<newline>\n)
  | (?P<float>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>0[xX][0-9a-fA-F]+|\d+)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<op>""" + "|".join(re.escape(o) for o in _OPERATORS) + r""")
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(source: str) -> list[Token]:
    """Turn ``source`` into a token list ending with an EOF token."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise LexerError(
                f"unexpected character {source[pos]!r}",
                line, pos - line_start + 1,
            )
        kind = match.lastgroup
        text = match.group()
        column = pos - line_start + 1
        if kind == "newline":
            line += 1
            line_start = match.end()
        elif kind == "comment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rfind("\n") + 1
        elif kind == "ws":
            pass
        elif kind == "float":
            tokens.append(Token(TokKind.FLOAT, text, line, column))
        elif kind == "int":
            tokens.append(Token(TokKind.INT, text, line, column))
        elif kind == "ident":
            tok_kind = TokKind.KEYWORD if text in KEYWORDS else TokKind.IDENT
            tokens.append(Token(tok_kind, text, line, column))
        else:  # op
            tokens.append(Token(TokKind.OP, text, line, column))
        pos = match.end()
    tokens.append(Token(TokKind.EOF, "", line, pos - line_start + 1))
    return tokens
