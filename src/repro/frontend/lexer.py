"""Tokenizer for mini-C."""

from __future__ import annotations

import dataclasses
import re
from typing import List

from repro.frontend.errors import CompileError

KEYWORDS = {
    "u64", "f64", "void", "if", "else", "while", "for", "do", "break",
    "continue", "return", "switch", "case", "default", "extern",
}

# Multi-character operators, longest first so the scanner is greedy.
OPERATORS = [
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "{", "}", "[", "]", ";", ",", ":", "?",
]


@dataclasses.dataclass(frozen=True)
class Token:
    kind: str        # "ident", "keyword", "int", "float", "op", "eof"
    text: str
    line: int
    col: int
    value: object = None  # parsed numeric value for int/float tokens

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


# One master pattern, one alternative per token class; ``lastgroup`` names
# the class that matched.  ``\w`` is exactly ``isalnum() or "_"`` and
# ``\d`` the decimal digits, so identifiers and numbers keep their
# (Unicode) extent.  ``[^\W\d]`` is wider than ``isalpha() or "_"``,
# though: it also admits the non-decimal numerics (``\u00bd``, ``\u00b2``,
# ``\u2167``), so ``tokenize`` checks an identifier's first character
# itself.  ``badcomment`` only matches when ``comment`` could not, i.e.
# when no ``*/`` follows.
_TOKEN_RE = re.compile(
    r"(?P<space>[ \t\r]+)"
    r"|(?P<newline>\n+)"
    r"|(?P<line>//[^\n]*)"
    r"|(?P<comment>/\*.*?\*/)"
    r"|(?P<badcomment>/\*)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<hex>0[xX][0-9a-fA-F]*)"
    r"|(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?P<exponent>[eE][+-]?\d*)?)"
    r"|(?P<op>" + "|".join(re.escape(op) for op in OPERATORS) + r")",
    re.DOTALL)


def tokenize(source: str) -> List[Token]:
    """Tokenize mini-C source text, raising :class:`CompileError` on bad
    input.  ``//`` and ``/* */`` comments are skipped."""
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    i = 0
    line = 1
    col = 1
    n = len(source)

    while i < n:
        m = match(source, i)
        if m is None:
            raise CompileError(f"unexpected character {source[i]!r}",
                               line, col)
        kind = m.lastgroup
        text = m.group()
        i = m.end()
        if kind == "space":
            col += len(text)
            continue
        if kind == "newline":
            line += len(text)
            col = 1
            continue
        if kind == "line":
            # Runs to a newline or the end of input; the column is
            # deliberately left where the comment began (that is the
            # eof token's column after a trailing comment).
            continue
        if kind == "comment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                col = len(text) - text.rfind("\n")
            else:
                col += len(text)
            continue
        if kind == "badcomment":
            raise CompileError("unterminated block comment", line, col)
        if kind == "ident":
            if not (text[0].isalpha() or text[0] == "_"):
                raise CompileError(f"unexpected character {text[0]!r}",
                                   line, col)
            append(Token("keyword" if text in KEYWORDS else "ident",
                         text, line, col))
        elif kind == "op":
            append(Token("op", text, line, col))
        elif kind == "hex":
            append(Token("int", text, line, col, int(text, 0)))
        else:
            exponent = m.group("exponent")
            if exponent is not None and not exponent[-1].isdigit():
                raise CompileError("malformed float exponent", line, col)
            if exponent is not None or "." in text:
                append(Token("float", text, line, col, float(text)))
            else:
                append(Token("int", text, line, col, int(text, 0)))
        col += len(text)

    append(Token("eof", "", line, col))
    return tokens
