"""The lexer's one master pattern against the hand-rolled scanning loop it
replaced, which is kept below as the oracle, and the lexical edges that
loop got wrong.

Over corpus files, printed round-trip programs and random strings over
the lexical alphabet both lexers give the same tokens or the same error.
The one documented difference: `digit` and `letter` are ASCII, where the
loop took any character that `str.isdigit`/`str.isalpha` accepts, so a
non-ASCII letter or digit outside a string or comment is now an
`unexpected character` syntax error (`²` once escaped as a bare
ValueError from `int()`).
"""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from minirepair.cli import main
from minirepair.lang.ast import MiniSyntaxError, SourceFile, parse_project
from minirepair.lang.lexer import ESCAPES, KEYWORDS, OPERATORS, Token, tokenize
from minirepair.lang.printer import print_file

from conftest import CORPUS
from test_roundtrip_property import functions

_TWO_CHAR = ("->", "&&", "||", "==", "!=", "<=", ">=")
_ONE_CHAR = "+-*/%<>!=(){}[],;:"


def oracle_tokenize(path: str, source: str) -> list[Token]:
    """The hand-rolled lexer that `tokenize` replaced."""
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


def lexed(lex, source: str):
    """The tokens of `source`, or the message of the error lexing raised."""
    try:
        return lex("<t>", source)
    except MiniSyntaxError as exc:
        return str(exc)


def assert_same_as_oracle(source: str) -> None:
    new, old = lexed(tokenize, source), lexed(oracle_tokenize, source)
    if new != old:
        # the documented difference: the oracle took a non-ASCII letter or
        # digit into a name or a number (`1.²` into a float), where the new
        # lexer stops at the first character that no ASCII token takes
        assert any(not c.isascii() and c.isalnum() for c in source), (source, new, old)
        assert re.fullmatch(r"<t>:\d+: syntax error: unexpected character .+", str(new)), (
            source, new, old)


def test_corpus_files_lex_as_the_oracle_lexes_them():
    files = sorted(CORPUS.glob("*/src/**/*.mini"))
    assert len(files) >= 40
    for path in files:
        source = path.read_text(encoding="utf-8")
        assert tokenize(str(path), source) == oracle_tokenize(str(path), source)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(fn=functions())
def test_printed_programs_lex_as_the_oracle_lexes_them(fn):
    source = print_file(SourceFile("gen.mini", ".", [fn]))
    assert tokenize("gen.mini", source) == oracle_tokenize("gen.mini", source)


# the lexical alphabet, with the pieces that start or end a token weighted
# up, and the documented non-ASCII cases
PIECES = (
    [chr(c) for c in range(32, 127)]
    + ["\n", "\t", "\r", "\r\n", "\x00", " "]
    + ["//", '"', '"', "\\", "\\", "1", "1.5", "e", "E", "e+", "e-", "."]
    + [*OPERATORS, *KEYWORDS]
    + ["²", "٣", "é", "x²", "_é"]
)


@settings(derandomize=True, max_examples=1500, deadline=None, database=None)
@given(source=st.lists(st.sampled_from(PIECES), max_size=30).map("".join))
def test_random_strings_lex_as_the_oracle_lexes_them(source):
    assert_same_as_oracle(source)


@pytest.mark.parametrize("source, message", [
    ("return x + ²;", "unexpected character '²'"),
    ("let ٣ = 1;", "unexpected character '٣'"),
    ("let é = 1;", "unexpected character 'é'"),
    ("let x² = 1;", "unexpected character '²'"),
    ("x = 1٣;", "unexpected character '٣'"),
    ('"a\\q', "unknown escape sequence \\q"),
    ('"a\\q \\', "unknown escape sequence \\q"),
    ('"a\\\nb"', "unknown escape sequence \\\n"),
    ('"a\\', "unterminated string literal"),
    ('"a\\\\', "unterminated string literal"),
    ('"a\nb"', "unterminated string literal"),
    ("1.", "unexpected character '.'"),
    ("#", "unexpected character '#'"),
])
def test_lexical_errors(source, message):
    with pytest.raises(MiniSyntaxError) as info:
        tokenize("f.mini", "\n" + source)
    assert str(info.value) == f"f.mini:2: syntax error: {message}"


@pytest.mark.parametrize("source", [
    '"x + ² ٣ é x²"', "// x + ² ٣ é x²", "1 // ²\n",
])
def test_non_ascii_in_strings_and_comments_is_accepted(source):
    tokenize("f.mini", source)
    assert_same_as_oracle(source)


def test_non_ascii_letter_or_digit_is_a_syntax_error_at_its_line():
    source = "fn f(x: int) -> int {\n    return x + ²;\n}\n"
    with pytest.raises(MiniSyntaxError) as info:
        parse_project([("main.mini", source)])
    assert str(info.value) == "main.mini:2: syntax error: unexpected character '²'"


def test_repair_of_a_non_ascii_digit_exits_one_with_the_syntax_error(tmp_path, capsys):
    project = tmp_path / "bug"
    (project / "src").mkdir(parents=True)
    (project / "src" / "main.mini").write_text(
        "fn f(x: int) -> int {\n    return x + ²;\n}\n", encoding="utf-8")
    (project / "tests.json").write_text(
        json.dumps([{"name": "t", "entry": "f", "args": [1], "expect": 3}]))
    code = main(["repair", str(project), "--mode", "jkali", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: main.mini:2: syntax error: unexpected character '²'\n")
    assert not (tmp_path / "out").exists()


def test_carriage_return_line_ends_count_one_line_each():
    tokens = tokenize("f.mini", "a\r\nb\r\n\r\nc\rd")
    assert [(t.text, t.line) for t in tokens] == [
        ("a", 1), ("b", 2), ("c", 4), ("d", 4), ("", 4)]


def test_float_with_a_bare_exponent_letter_lexes_as_a_float_then_a_name():
    assert tokenize("f.mini", "1.5e")[:2] == [Token("float", "1.5", 1), Token("ident", "e", 1)]
    assert tokenize("f.mini", "1e+")[:3] == [
        Token("int", "1", 1), Token("ident", "e", 1), Token("op", "+", 1)]


def test_strings_decode_their_escapes():
    source = '"' + "".join("\\" + c for c in ESCAPES) + '"'
    assert tokenize("f.mini", source)[0] == Token("string", "".join(ESCAPES.values()), 1)

