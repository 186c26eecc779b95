"""The documented vocabularies agree with their one definition in code:
the enumerated config keys with the keys of the extension-point tables and
what `RunConfig.validate` accepts, the `expect_error` kinds with the kinds
the interpreter raises, and the grammar's binary operators, escapes, type
names and keywords with the tables the lexer and parser read, and the
lexer's operators with the precedence table and the other punctuation."""

import ast
import re
from pathlib import Path

import pytest

from minirepair import engine, faultloc, ingredients, operators
from minirepair.config import CHOICES, ConfigError, RunConfig
from minirepair.lang import interp
from minirepair.lang.ast import BINARY_PRECEDENCE, SCALAR_TYPES
from minirepair.lang.lexer import ESCAPES, KEYWORDS, OPERATORS, tokenize

DOCS = Path(__file__).resolve().parent.parent / "docs"


def config_doc_values() -> dict[str, tuple[str, ...]]:
    """key -> values column of the docs/config.md key table, for the rows
    whose column is only a list of `name`s."""
    rows = {}
    for line in (DOCS / "config.md").read_text(encoding="utf-8").splitlines():
        match = re.match(r"\|\s*`(\w+)`\s*\|\s*(.*?)\s*\|", line)
        if match and re.fullmatch(r"`[^`]+`(, `[^`]+`)*", match.group(2)):
            rows[match.group(1)] = tuple(re.findall(r"`([^`]+)`", match.group(2)))
    return rows


def validated_values(key: str) -> tuple[str, ...]:
    """The tuple `RunConfig.validate` names when it rejects a value of key."""
    with pytest.raises(ConfigError) as info:
        RunConfig(**{key: "bogus"}).validate()
    match = re.fullmatch(rf"{key} must be one of (\(.*\)), got 'bogus'", str(info.value))
    assert match, str(info.value)
    return ast.literal_eval(match.group(1))


def test_config_doc_enumerates_exactly_the_validated_keys():
    assert set(config_doc_values()) == set(CHOICES)


@pytest.mark.parametrize("key", list(CHOICES))
def test_config_doc_values_are_the_validated_values(key):
    assert config_doc_values()[key] == validated_values(key) == CHOICES[key]


# each enumerated config key and the table that dispatches its values
TABLES = {
    "navigation": engine.NAVIGATIONS,
    "granularity": engine.GRANULARITIES,
    "point_selection": engine.POINT_SELECTIONS,
    "operator_space": operators.SPACES,
    "operator_selection": engine.OPERATOR_SELECTIONS,
    "formula": faultloc.FORMULAS,
    "ingredient_scope": ingredients.SCOPES,
    "ingredient_selection": ingredients.SELECTIONS,
    "ingredient_transform": ingredients.TRANSFORMS,
}


@pytest.mark.parametrize("key", list(TABLES))
def test_config_choices_are_the_keys_of_the_extension_point_table(key):
    assert CHOICES[key] == tuple(TABLES[key])


def test_every_enumerated_key_has_a_table():
    assert list(CHOICES) == list(TABLES)


def test_tests_schema_lists_the_interpreters_error_kinds():
    text = (DOCS / "tests-schema.md").read_text(encoding="utf-8")
    paragraph = text.split("Valid `expect_error` kinds:", 1)[1].split("\n\n", 1)[0]
    kinds = re.findall(r"`([^`]+)`", paragraph)
    assert len(kinds) == len(set(kinds))
    assert set(kinds) == interp.ERROR_KINDS


def test_every_kind_the_interpreter_raises_is_an_error_kind():
    tree = ast.parse(Path(interp.__file__).read_text(encoding="utf-8"))
    raised = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        kinds = [kw.value for kw in node.keywords if kw.arg == "error_kind"]
        if isinstance(node.func, ast.Name) and node.func.id == "_RuntimeFault":
            kinds.append(node.args[0])
        raised.update(k.value for k in kinds if isinstance(k, ast.Constant))
    assert raised == interp.ERROR_KINDS


def grammar_rules() -> dict[str, str]:
    """rule name -> right-hand side, from the EBNF block of docs/minilang.md."""
    text = (DOCS / "minilang.md").read_text(encoding="utf-8")
    block = text.split("```ebnf\n", 1)[1].split("```", 1)[0]
    return dict(re.findall(r"^(\w+)\s+=\s+(.*?)\s;", block, re.M | re.S))


def terminals(text: str) -> list[str]:
    """The quoted terminals of an EBNF fragment, unescaped."""
    return [ast.literal_eval(t) for t in re.findall(r'"(?:[^"\\]|\\.)*"|\'[^\']*\'', text)]


def test_grammar_binary_levels_are_the_precedence_table():
    rules = grammar_rules()
    levels = []
    name = rules["expr"]
    # each level reads `name = operand { ( ops ) operand }`, its operand the next level
    while (match := re.fullmatch(r"(\w+) \{ (.*) \1 \}", rules[name])):
        levels.append(tuple(terminals(match.group(2))))
        name = match.group(1)
    assert name == "unary"
    table = {}
    for op, prec in BINARY_PRECEDENCE.items():
        table.setdefault(prec, []).append(op)
    assert levels == [tuple(table[prec]) for prec in sorted(table)]


def test_grammar_escapes_are_the_lexers_escapes():
    rule = grammar_rules()["escape"]
    assert rule.startswith('"\\\\" (') and rule.endswith(")")
    escaped = terminals(rule.split("(", 1)[1])
    assert sorted(escaped) == sorted(ESCAPES) and len(escaped) == len(ESCAPES)


def test_grammar_types_are_the_scalar_types():
    assert grammar_rules()["type"] == " | ".join(
        [f'"{name}"' for name in SCALAR_TYPES] + ['"[" type "]"'])


def test_keywords_line_is_the_lexers_keywords():
    text = (DOCS / "minilang.md").read_text(encoding="utf-8")
    words = re.search(r"^Keywords: `([^`]*)`", text, re.M).group(1).split()
    assert len(words) == len(set(words)) and set(words) == KEYWORDS


def test_lexer_operators_are_the_precedence_table_and_the_punctuation():
    assert sorted(OPERATORS) == sorted([*BINARY_PRECEDENCE, "->", "!", "=", *"(){}[],;:"])
    assert len(OPERATORS) == len(set(OPERATORS))
    # each operator lexes as one token of its own
    tokens = tokenize("<ops>", " ".join(OPERATORS))[:-1]
    assert [(t.kind, t.text) for t in tokens] == [("op", op) for op in OPERATORS]
