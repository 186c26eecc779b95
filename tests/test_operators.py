"""Operator spaces and individual operator application."""

import pytest

from minirepair.faultloc import run_suite
from minirepair.lang import Node, parse_project, pre_order
from minirepair.lang.printer import print_sources, print_tree
from minirepair.lang.types import check_project
from minirepair.operators import (
    default_return_node,
    is_assignment_target_base,
    operator_space,
    space_irr_statements,
    space_r_expression,
    space_relational_logical,
    space_suppression,
)

from conftest import apply_operator, by_name, load_bug


def parse_one(src):
    return parse_project([("main.mini", src)])


def find_stmt(project, text):
    for nid, node in sorted(project.nodes.items()):
        if node.is_statement() and print_tree(node) == text:
            return node
    raise AssertionError(f"no statement prints as {text!r}")


def find_expr(project, text):
    for nid, node in sorted(project.nodes.items()):
        if node.is_expression() and print_tree(node) == text:
            return node
    raise AssertionError(f"no expression prints as {text!r}")


def test_space_contents_and_order():
    assert [op.name for op in space_irr_statements().operators] == [
        "insert-before", "replace", "remove",
    ]
    assert [op.name for op in space_suppression().operators] == [
        "remove", "insert-return-before", "if-true", "if-false",
    ]
    rl = [op.name for op in space_relational_logical().operators]
    assert rl == [
        "relational-to-<", "relational-to-<=", "relational-to->",
        "relational-to->=", "relational-to-==", "relational-to-!=",
        "logical-swap", "negate-insert", "negate-remove",
    ]
    assert [op.name for op in space_r_expression().operators] == ["replace-expression"]
    needs = {op.name: op.needs_ingredient for s in
             (space_irr_statements(), space_suppression(), space_r_expression())
             for op in s.operators}
    assert needs["insert-before"] and needs["replace"] and needs["replace-expression"]
    assert not needs["remove"] and not needs["insert-return-before"]


def test_unknown_space():
    with pytest.raises(ValueError):
        operator_space("nope")


def test_remove_deletes_statement_from_block():
    project = parse_one("fn f(x: int) -> int { x = x + 1; return x; }")
    remove = by_name(space_irr_statements(), "remove")
    target = find_stmt(project, "x = x + 1;")
    patched = apply_operator(project, remove, target.node_id)
    body = patched.functions["f"][1].children[0]
    assert [c.kind for c in body.children] == ["return"]
    # original untouched
    assert len(project.functions["f"][1].children[0].children) == 2


def test_remove_guard_on_used_declaration():
    project = parse_one("fn f() -> int { let y = 1; return y; }")
    remove = by_name(space_irr_statements(), "remove")
    decl = find_stmt(project, "let y = 1;")
    assert apply_operator(project, remove, decl.node_id) is None


def test_remove_unused_declaration_allowed():
    project = parse_one("fn f() -> int { let y = 1; return 2; }")
    remove = by_name(space_irr_statements(), "remove")
    decl = find_stmt(project, "let y = 1;")
    assert apply_operator(project, remove, decl.node_id) is not None


@pytest.mark.parametrize(
    "source, decl, removable",
    [
        # a later `let a` of the outer block binds the `a` that `return` reads
        ("fn f(n: int) -> int { if (n > 0) { let a = 1; n = n + 1; } let a = 2; return a + n; }",
         "let a = 1;", True),
        ("fn f(n: int) -> int { if (n > 0) { let a = 1; n = n + 1; } let a = 2; return a + n; }",
         "let a = 2;", False),
        # the inner `let a` shadows the outer one for `y = a`
        ("fn g(y: int) -> int { let a = 1; { let a = 2; y = a; } return y; }", "let a = 1;", True),
        ("fn g(y: int) -> int { let a = 1; { let a = 2; y = a; } return y; }", "let a = 2;", False),
        ("fn h(x: int) -> int { let a = 1; x = a; return x; }", "let a = 1;", False),
    ],
    ids=["f-inner", "f-outer", "g-outer", "g-inner", "read-later"],
)
def test_remove_declaration_follows_the_checkers_binding_rule(source, decl, removable):
    project = parse_one(source)
    remove = by_name(space_irr_statements(), "remove")
    target = find_stmt(project, decl)
    assert remove.applicable(project, target) is removable
    if removable:
        check_project(apply_operator(project, remove, target.node_id))


def test_insert_before_wraps_in_block():
    project = parse_one("fn f(x: int) -> int { return x; }")
    insert = by_name(space_irr_statements(), "insert-before")
    target = find_stmt(project, "return x;")
    ingredient = Node("return", [Node("literal", value=0)])
    patched = apply_operator(project, insert, target.node_id, ingredient)
    body = patched.functions["f"][1].children[0]
    wrapper = body.children[0]
    assert wrapper.kind == "block"
    assert print_tree(wrapper.children[0]) == "return 0;"
    assert print_tree(wrapper.children[1]) == "return x;"


def test_replace_yields_planted_fix_on_wrong_call_bug():
    """Replacing the bad return with the donor return from the same file
    produces exactly the planted fix (the classic same-file-ingredient
    replacement repair)."""
    project, suite, meta = load_bug("ledger-scope")
    donor = find_stmt(project, "return area(w, h) * price;")
    # the buggy statement is floor_cost's return
    floor_fn = project.functions["floor_cost"][1]
    target = floor_fn.children[0].children[0]
    replace = by_name(space_irr_statements(), "replace")
    patched = apply_operator(project, replace, target.node_id, donor)
    matrix = run_suite(patched, suite, meta["step_budget"])
    assert matrix.total_failing == 0
    from conftest import CORPUS
    from minirepair.diffs import apply_unified_diff

    expected = apply_unified_diff(
        (CORPUS / "ledger-scope" / "expected_fix.patch").read_text(),
        print_sources(project),
    )
    assert print_sources(patched) == expected


@pytest.mark.parametrize(
    "source,op_name,expected",
    [
        ("x < 0", "relational-to-<=", "x <= 0"),
        ("x < 0", "relational-to-==", "x == 0"),
        ("a && b", "logical-swap", "a || b"),
        ("a || b", "logical-swap", "a && b"),
        ("a && b", "negate-insert", "!(a && b)"),
    ],
)
def test_relational_logical_mutations(source, op_name, expected):
    project = parse_one(
        f"fn f(x: int, a: bool, b: bool) -> bool {{ return {source}; }}"
    )
    target = find_expr(project, source)
    op = by_name(space_relational_logical(), op_name)
    patched = apply_operator(project, op, target.node_id)
    ret = patched.functions["f"][1].children[0].children[0]
    assert print_tree(ret.children[0]) == expected


def test_negate_remove():
    project = parse_one("fn f(a: bool) -> bool { return !a; }")
    target = find_expr(project, "!a")
    patched = apply_operator(project, by_name(space_relational_logical(), "negate-remove"),
                             target.node_id)
    ret = patched.functions["f"][1].children[0].children[0]
    assert print_tree(ret.children[0]) == "a"


def test_arithmetic_not_applicable_for_mutation():
    project = parse_one("fn f(x: int) -> int { return x + 1; }")
    target = find_expr(project, "x + 1")
    for op in space_relational_logical().operators:
        assert apply_operator(project, op, target.node_id) is None


def test_identity_relational_mutation_not_applicable():
    project = parse_one("fn f(x: int) -> bool { return x < 0; }")
    target = find_expr(project, "x < 0")
    assert apply_operator(project, by_name(space_relational_logical(), "relational-to-<"),
                          target.node_id) is None


def test_if_condition_flips():
    project = parse_one("fn f(a: int, b: int) -> bool { if (a > b) { return true; } return false; }")
    target = next(n for n in pre_order(project.functions["f"][1]) if n.kind == "if")
    for name, literal in (("if-true", "true"), ("if-false", "false")):
        patched = apply_operator(project, by_name(space_suppression(), name), target.node_id)
        cond = patched.functions["f"][1].children[0].children[0].children[0]
        assert print_tree(cond) == literal


@pytest.mark.parametrize(
    "signature,expected",
    [
        ("-> int", "return 0;"),
        ("-> float", "return 0.0;"),
        ("-> bool", "return false;"),
        ("-> string", 'return "";'),
        ("-> [int]", "return [];"),
        ("", "return;"),
    ],
)
def test_insert_return_defaults(signature, expected):
    project = parse_one(f"fn f(x: int) {signature} {{ x = x + 1; {'return x;' if signature == '-> int' else ''} }}")
    target = find_stmt(project, "x = x + 1;")
    op = by_name(space_suppression(), "insert-return-before")
    patched = apply_operator(project, op, target.node_id, None)
    body = patched.functions["f"][1].children[0]
    wrapper = body.children[0]
    assert print_tree(wrapper.children[0]) == expected


def test_default_return_values_table():
    from minirepair.lang.ast import BOOL, FLOAT, INT, STRING, array_of

    assert print_tree(default_return_node(INT)) == "return 0;"
    assert print_tree(default_return_node(FLOAT)) == "return 0.0;"
    assert print_tree(default_return_node(BOOL)) == "return false;"
    assert print_tree(default_return_node(STRING)) == 'return "";'
    assert print_tree(default_return_node(array_of(INT))) == "return [];"
    assert print_tree(default_return_node(None)) == "return;"


def test_replace_expression_rejects_assignment_target():
    project = parse_one("fn f(a: [int], i: int) -> int { a[i + 1] = 5; return a[0]; }")
    assign = find_stmt(project, "a[i + 1] = 5;")
    lvalue = assign.children[0]
    base = lvalue.children[0]
    op = by_name(space_r_expression(), "replace-expression")
    assert is_assignment_target_base(project, lvalue)
    assert is_assignment_target_base(project, base)
    assert apply_operator(project, op, lvalue.node_id, Node("literal", value=1)) is None
    # but the subscript expression is replaceable
    subscript = lvalue.children[1]
    assert not is_assignment_target_base(project, subscript)
    patched = apply_operator(project, op, subscript.node_id, Node("literal", value=0))
    assert patched is not None
    assert "a[0] = 5;" in print_sources(patched)["main.mini"]


def test_replace_literal_by_itself_is_noop_variant():
    project = parse_one("fn f() -> int { return 7; }")
    op = by_name(space_r_expression(), "replace-expression")
    target = find_expr(project, "7")
    patched = apply_operator(project, op, target.node_id, Node("literal", value=7))
    assert print_sources(patched) == print_sources(project)


def test_purity_apply_twice_identical():
    project, _, _ = load_bug("abs-sign")
    op = by_name(space_relational_logical(), "relational-to->=")
    target = find_expr(project, "x > 1")
    a = apply_operator(project, op, target.node_id)
    b = apply_operator(project, op, target.node_id)
    assert print_sources(a) == print_sources(b)


def test_every_operator_output_reparses(corpus_names):
    """Applying every applicable operator everywhere keeps sources parseable
    (type checking may still reject the variant later; syntax never breaks)."""
    simple_ingredient = Node("return", [Node("literal", value=0)])
    expr_ingredient = Node("literal", value=1)
    for name in corpus_names[:8]:
        project, _, _ = load_bug(name)
        spaces = [space_irr_statements(), space_suppression(),
                  space_relational_logical(), space_r_expression()]
        for space in spaces:
            for op in space.operators:
                for nid in sorted(project.nodes):
                    node = project.node(nid)
                    if not op.applicable(project, node):
                        continue
                    ing = None
                    if op.needs_ingredient:
                        ing = expr_ingredient if space.name == "r-expression" else simple_ingredient
                    patched = apply_operator(project, op, nid, ing)
                    assert patched is not None
                    sources = print_sources(patched)
                    reparsed = parse_project(sorted(sources.items()))
                    assert print_sources(reparsed) == sources
