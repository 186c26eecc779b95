"""Hand-rolled lexer for MiniLang source text."""

from __future__ import annotations

from dataclasses import dataclass

from minirepair.lang.ast import SCALAR_TYPES, MiniSyntaxError

KEYWORDS = frozenset(
    {"fn", "let", "if", "else", "while", "return", "true", "false", *SCALAR_TYPES}
)

# the character after a backslash in a string literal -> the one it stands for
ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}

_TWO_CHAR = ("->", "&&", "||", "==", "!=", "<=", ">=")
_ONE_CHAR = "+-*/%<>!=(){}[],;:"


@dataclass(frozen=True)
class Token:
    kind: str  # ident | keyword | int | float | string | op | eof
    text: str
    line: int


def tokenize(path: str, source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    n = len(source)

    def error(msg: str):
        raise MiniSyntaxError(path, line, msg)

    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            is_float = False
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                is_float = True
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    is_float = True
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            tokens.append(Token("float" if is_float else "int", text, line))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line))
            i = j
            continue
        if ch == '"':
            j = i + 1
            chars: list[str] = []
            while True:
                if j >= n or source[j] == "\n":
                    error("unterminated string literal")
                c = source[j]
                if c == '"':
                    j += 1
                    break
                if c == "\\":
                    if j + 1 >= n:
                        error("unterminated string literal")
                    esc = source[j + 1]
                    mapped = ESCAPES.get(esc)
                    if mapped is None:
                        error(f"unknown escape sequence \\{esc}")
                    chars.append(mapped)
                    j += 2
                    continue
                chars.append(c)
                j += 1
            tokens.append(Token("string", "".join(chars), line))
            i = j
            continue
        two = source[i : i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token("op", two, line))
            i += 2
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token("op", ch, line))
            i += 1
            continue
        error(f"unexpected character {ch!r}")

    tokens.append(Token("eof", "", line))
    return tokens
