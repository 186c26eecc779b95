"""Parser, printer, and static-checker behavior."""

import pytest

from minirepair.lang import (
    DuplicateFunctionError,
    EmptyProjectError,
    MiniSyntaxError,
    TypeCheckError,
    check_project,
    env_at,
    free_variables,
    nodes_equal,
    parse_project,
    print_file,
    pre_order,
)
from minirepair.lang.ast import INT, STRING, UnknownNodeError
from minirepair.lang.parser import MAX_NESTING, MAX_TREE_HEIGHT
from minirepair.lang.printer import expr_str, print_sources
from minirepair.lang.types import cached_types

from conftest import CORPUS, load_bug, nested


def parse_one(source: str):
    return parse_project([("main.mini", source)])


def test_minimal_program():
    project = parse_one("fn main() -> int { return 1 + 2; }\n")
    assert len(project.files) == 1
    (_, fn) = project.functions["main"]
    body = fn.children[0]
    ret = body.children[0]
    assert ret.kind == "return"
    assert ret.children[0].kind == "binary-op"
    assert ret.children[0].op == "+"


def test_empty_project_rejected():
    with pytest.raises(EmptyProjectError):
        parse_project([])


def test_duplicate_function_across_files():
    with pytest.raises(DuplicateFunctionError):
        parse_project(
            [("a.mini", "fn f() -> int { return 1; }"),
             ("b.mini", "fn f() -> int { return 2; }")]
        )


def test_duplicate_path_rejected():
    from minirepair.lang import ProjectError

    with pytest.raises(ProjectError):
        parse_project([("a.mini", "fn f() -> int { return 1; }"),
                       ("a.mini", "fn g() -> int { return 2; }")])


@pytest.mark.parametrize(
    "bad",
    [
        "fn f( { return 1; }",
        "fn f() -> int { return 1 }",
        "fn f() -> int { let = 3; }",
        'fn f() -> string { return "unterminated; }',
        "fn f() -> int { return 1; } garbage",
        "fn f() -> int { 1 + = 2; }",
        "fn f() -> int { f() = 3; return 1; }",
    ],
)
def test_syntax_errors(bad):
    with pytest.raises(MiniSyntaxError):
        parse_one(bad)


def test_int_literal_with_leading_zeros_keeps_its_value():
    project = parse_one("fn f() -> int { return 0" + "0" * 5000 + "9223372036854775807; }")
    ret = project.functions["f"][1].children[0].children[0]
    assert ret.children[0].value == 2**63 - 1


@pytest.mark.parametrize(
    "source",
    [
        # type-checked and returned 2**63 while literals were unbounded
        "fn f() -> int { let x = 9223372036854775808; return x; }",
        # beyond the float range: comparing it with a float raised OverflowError
        "fn f() -> bool { return 1" + "0" * 400 + " < 1.5; }",
        # more digits than int() converts from a string
        "fn f() -> int { return 1" + "0" * 5000 + "; }",
    ],
    ids=["2**63", "10**400", "10**5000"],
)
def test_int_literal_beyond_64_bits_is_a_syntax_error(source):
    with pytest.raises(MiniSyntaxError, match="out of the 64-bit range"):
        parse_one(source)


# parsed to inf and printed as `inf`, which reparses as an undefined variable
@pytest.mark.parametrize("literal", ["1e999", "1" + "0" * 400 + ".0"], ids=["1e999", "10**400"])
def test_float_literal_beyond_the_float_range_is_a_syntax_error(literal):
    with pytest.raises(MiniSyntaxError, match="out of the float range"):
        parse_one(f"fn f() -> float {{ return {literal}; }}")


def test_large_float_literal_roundtrips():
    project = parse_one("fn f() -> float { return 1e308; }")
    sources = print_sources(project)
    assert sources["main.mini"] == "fn f() -> float {\n    return 1e+308;\n}\n"
    reparsed = parse_project(sorted(sources.items()))
    assert nodes_equal(reparsed.functions["f"][1], project.functions["f"][1])
    assert reparsed.functions["f"][1].children[0].children[0].children[0].value == 1e308


def nest(levels: int, opening: str, inner: str, closing: str) -> str:
    return opening * levels + inner + closing * levels


def chain(terms: int) -> str:
    return " + ".join(["x"] * terms)


# sources that nest `n` constructs: the function body is the first block,
# and the returned expression opens one more
NESTING = {
    "parenthesis": lambda n: f"fn f() -> int {{ return {nest(n - 2, '(', '1', ')')}; }}",
    "block": lambda n: f"fn f() {{ {nest(n - 1, '{ ', '', '}')} }}",
    "prefix": lambda n: f"fn f() -> int {{ return {nest(n - 2, '- ', '1', '')}; }}",
    "call": lambda n: f"fn f(x: int) -> int {{ return {nest(n - 2, 'f(', '1', ')')}; }}",
    "array": lambda n: f"fn f() {{ let a = {nest(n - 2, '[', '1', ']')}; }}",
    "index": lambda n: f"fn f(a: [int]) -> int {{ return {nest(n - 2, 'a[', '0', ']')}; }}",
    "else-if": lambda n: f"fn f(x: int) {{ if (x == 0) {{ }}{' else if (x == 0) { }' * (n - 2)} }}",
    "array-type": lambda n: f"fn f(a: {nest(n, '[', 'int', ']')}) {{ }}",
}


@pytest.mark.parametrize("kind", sorted(NESTING))
def test_nesting_limit_is_exact(kind):
    parse_one(NESTING[kind](MAX_NESTING))
    with pytest.raises(MiniSyntaxError, match=f"nesting deeper than {MAX_NESTING} levels"):
        parse_one(NESTING[kind](MAX_NESTING + 1))


def test_tree_height_limit_is_exact():
    # function, block, return, the chain's binary-ops and the last leaf
    terms = MAX_TREE_HEIGHT - 3
    parse_one(f"fn f(x: int) -> int {{ return {chain(terms)}; }}")
    with pytest.raises(MiniSyntaxError, match=f"deeper than {MAX_TREE_HEIGHT} levels"):
        parse_one(f"fn f(x: int) -> int {{ return {chain(terms + 1)}; }}")


def test_nesting_errors_do_not_depend_on_the_callers_stack():
    source = f"fn f() -> int {{ return {nest(70, '(', '1', ')')}; }}"
    for frames in (0, 300):
        with pytest.raises(MiniSyntaxError, match="nesting deeper"):
            nested(frames, lambda: parse_one(source))


def test_node_ids_are_preorder_and_stable():
    src = "fn f(x: int) -> int { return x + 1; }\n"
    a = parse_one(src)
    b = parse_one(src)
    ids_a = [n.node_id for fn in (a.functions["f"][1],) for n in pre_order(fn)]
    ids_b = [n.node_id for fn in (b.functions["f"][1],) for n in pre_order(fn)]
    assert ids_a == ids_b
    assert ids_a == sorted(ids_a)


def test_files_ordered_lexicographically():
    project = parse_project(
        [("z.mini", "fn zz() -> int { return 1; }"),
         ("a.mini", "fn aa() -> int { return 2; }")]
    )
    assert [sf.path for sf in project.files] == ["a.mini", "z.mini"]
    first_fn = project.files[0].functions[0]
    assert first_fn.name == "aa"
    assert first_fn.node_id == 1


def test_ids_of_a_two_file_project_follow_recursive_pre_order():
    project = parse_project(
        [("lib/util.mini", "fn twice(v: int) -> int {\n    let w = v * 2;\n    return w;\n}\n"),
         ("main.mini", "fn f(x: int) -> int {\n    if (x > 0) {\n        return twice(x);\n"
                       "    } else {\n        return -x;\n    }\n}\n\nfn g() {\n}\n")]
    )
    numbered = []

    def number(node):
        numbered.append(node)
        for child in node.children:
            number(child)

    for sf in project.files:
        for fn in sf.functions:
            number(fn)
    assert [n.node_id for n in numbered] == list(range(1, len(numbered) + 1))
    assert all(project.nodes[i + 1] is n for i, n in enumerate(numbered))
    assert len(project.nodes) == project.max_id == len(numbered)


# -- printing ----------------------------------------------------------------


def test_print_binary_expression():
    project = parse_one("fn f(a: int) -> bool { return a < 0; }")
    ret = project.functions["f"][1].children[0].children[0]
    assert expr_str(ret.children[0]) == "a < 0"


def test_print_if_canonical_form():
    src = """fn f(x: int) -> int {
    if (x < 0) {
        return -1;
    } else {
        return 1;
    }
}
"""
    project = parse_one(src)
    assert print_file(project.files[0]) == src


def test_print_else_if_chain_roundtrip():
    src = """fn f(x: int) -> int {
    if (x < 0) {
        return -1;
    } else if (x == 0) {
        return 0;
    } else {
        return 1;
    }
}
"""
    project = parse_one(src)
    assert print_file(project.files[0]) == src


def test_minimal_parentheses_preserved():
    cases = [
        "(a + b) * 2",
        "a + b * 2",
        "-(a * b)",
        "-a * b",
        "!(a && b)",
        "a - (b - c)",
        "a[i + 1]",
        "f(a, b)[0]",
    ]
    for text in cases:
        src = f"fn f(a: int, b: int, c: int, i: int) -> int {{ let x = {text}; return 0; }}"
        try:
            project = parse_one(src)
        except MiniSyntaxError:
            pytest.fail(f"could not parse {text}")
        decl = project.functions["f"][1].children[0].children[0]
        printed = expr_str(decl.children[0])
        assert printed == text


def test_unknown_node_id():
    project = parse_one("fn f() -> int { return 1; }")
    with pytest.raises(UnknownNodeError):
        project.node(99999)


def test_corpus_roundtrip_byte_exact(corpus_names):
    """Every corpus file is stored in canonical form: parse->print is the
    identity on bytes, and a second parse yields a structurally equal tree."""
    for name in corpus_names:
        project, _, _ = load_bug(name)
        sources = print_sources(project)
        reparsed = parse_project(sorted(sources.items()))
        for sf, sf2 in zip(project.files, reparsed.files):
            assert sf.path == sf2.path
            for fn, fn2 in zip(sf.functions, sf2.functions):
                assert nodes_equal(fn, fn2), f"{name}:{sf.path}:{fn.name}"
        # canonical on disk
        for sf in project.files:
            src_path = CORPUS / name / "src" / sf.path
            assert sources[sf.path] == src_path.read_text(encoding="utf-8")


# -- static checks -------------------------------------------------------------


def test_corpus_typechecks(corpus_names):
    for name in corpus_names:
        project, _, _ = load_bug(name)
        check_project(project)


@pytest.mark.parametrize(
    "bad",
    [
        "fn f() -> int { return y; }",
        "fn f() -> int { return 1 + true; }",
        "fn f() -> int { let x = 1; let x = 2; return x; }",
        "fn f() -> int { if (1) { return 1; } return 0; }",
        "fn f() -> bool { return 1 < \"a\"; }",
        "fn f() -> int { return 1.5 % 2.0; }",
        "fn f(a: [int]) -> int { return a[true]; }",
        "fn f() -> int { return g(); }",
        "fn f(x: int) -> int { return f(x, x); }",
        "fn f() -> int { return; }",
        "fn f() { return 3; }",
        "fn f() -> float { return 1; }",
        "fn f() -> int { let xs = []; return 0; }",
        "fn len(x: int) -> int { return x; }",
        "fn f(s: string, i: int) -> string { s[i] = \"x\"; return s; }",
    ],
)
def test_type_errors(bad):
    project = parse_one(bad)
    with pytest.raises(TypeCheckError):
        check_project(project)


def test_shadowing_in_nested_block_allowed():
    src = """fn f(x: int) -> int {
    let y = 1;
    {
        let y = 2;
        x = x + y;
    }
    return x + y;
}
"""
    check_project(parse_one(src))


def test_env_at_sees_earlier_declarations_only():
    src = """fn f(a: int) -> int {
    let b = 1;
    let c = b + a;
    return c;
}
"""
    project = parse_one(src)
    check_project(project)
    body = project.functions["f"][1].children[0]
    decl_b, decl_c, ret = body.children
    assert set(env_at(project, decl_b.node_id)) == {"a"}
    assert set(env_at(project, decl_c.node_id)) == {"a", "b"}
    assert set(env_at(project, ret.node_id)) == {"a", "b", "c"}
    assert env_at(project, ret.node_id)["c"] == INT


def test_free_variables_respect_binders():
    src = """fn f(a: int) -> int {
    {
        let t = a + 1;
        a = t * 2;
    }
    return a;
}
"""
    project = parse_one(src)
    types = cached_types(project)
    inner_block = project.functions["f"][1].children[0].children[0]
    assert inner_block.kind == "block"
    free = free_variables(inner_block, types)
    assert free == frozenset({("a", INT)})


def test_free_variables_of_expression():
    src = 'fn f(s: string, n: int) -> int { return len(s) + n; }'
    project = parse_one(src)
    types = cached_types(project)
    ret = project.functions["f"][1].children[0].children[0]
    free = free_variables(ret.children[0], types)
    assert free == frozenset({("s", STRING), ("n", INT)})
