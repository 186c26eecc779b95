"""Lexer for MiniLang source text: one master pattern, scanned once."""

from __future__ import annotations

import re
from typing import NamedTuple

from minirepair.lang.ast import BINARY_PRECEDENCE, SCALAR_TYPES, MiniSyntaxError

KEYWORDS = frozenset(
    {"fn", "let", "if", "else", "while", "return", "true", "false", *SCALAR_TYPES}
)

# the character after a backslash in a string literal -> the one it stands for
ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}

# every operator and punctuation token, longest first so `<=` wins over `<`
OPERATORS = sorted([*BINARY_PRECEDENCE, "->", "!", "=", *"(){}[],;:"], key=len, reverse=True)

_ESCAPED = re.escape("".join(ESCAPES))
# one character of a string literal, or one good escape
_CHAR = rf'(?:[^"\\\n]|\\[{_ESCAPED}])'

# Whitespace and comments are unnamed, so a match of either has no
# `lastgroup` and is skipped.  The last three groups catch what no token
# matches: a literal with a bad escape (its first one: `_CHAR` never takes a
# backslash that a good escape does not follow), any other unclosed literal,
# and any other character.
_TOKEN = re.compile("|".join([
    r"[ \t\r\n]+",
    r"//[^\n]*",
    r"(?P<float>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))",
    r"(?P<int>[0-9]+)",
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)",
    rf'(?P<string>"{_CHAR}*")',
    "(?P<op>%s)" % "|".join(map(re.escape, OPERATORS)),
    rf'(?P<escape>"{_CHAR}*\\[^{_ESCAPED}])',
    r'(?P<unterminated>")',
    r"(?P<char>.)",
]))

_ESCAPE = re.compile(r"\\(.)")


class Token(NamedTuple):
    kind: str  # ident | keyword | int | float | string | op | eof
    text: str
    line: int


def tokenize(path: str, source: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    for match in _TOKEN.finditer(source):
        kind, text = match.lastgroup, match.group()
        if kind is None:
            line += text.count("\n")
        elif kind == "ident":
            tokens.append(Token("keyword" if text in KEYWORDS else "ident", text, line))
        elif kind == "string":
            text = _ESCAPE.sub(lambda m: ESCAPES[m[1]], text[1:-1])
            tokens.append(Token(kind, text, line))
        elif kind == "escape":
            raise MiniSyntaxError(path, line, f"unknown escape sequence \\{text[-1]}")
        elif kind == "unterminated":
            raise MiniSyntaxError(path, line, "unterminated string literal")
        elif kind == "char":
            raise MiniSyntaxError(path, line, f"unexpected character {text!r}")
        else:
            tokens.append(Token(kind, text, line))
    tokens.append(Token("eof", "", line))
    return tokens
