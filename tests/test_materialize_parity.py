"""Copy-on-write materialization equals the full-copy algorithm.

`oracle_materialize` below is the algorithm `RepairSession.materialize`
used before variants became copy-on-write: deep-copy and index the whole
project, apply each transformation and reindex the whole project after it,
then type-check every function.  The session type-checks only the
edited functions of a variant, whatever its number of edits.  For every
corpus bug, the session's variants must match the oracle in printed
sources, in every index entry, in the ids given to spliced nodes and in
the type-check verdict, and must leave the session project untouched.
Hand-made edits that change what their statement declares get the same
checks, and a one-edit variant must share every node off its edited path
with the session project.
"""

from minirepair.engine import RepairSession, Transformation, create_modification_points
from minirepair.faultloc import SuspiciousLocation, TestCase
from minirepair.lang.ast import parse_project, pre_order
from minirepair.lang.printer import print_sources, print_tree
from minirepair.lang.types import TypeCheckError, check_project
from minirepair.operators import (
    IfCondition,
    InsertBefore,
    RelationalTo,
    RemoveStatement,
    ReplaceExpression,
    ReplaceStatement,
)
from minirepair.presets import config_from_preset
from minirepair.rng import SplitMix64

from conftest import apply_operator, load_bug, one_tree_plan

PRESETS = ("jgenprog", "jkali", "jmutrepair", "cardumen")
COMBINED_LISTS = 40  # seeded lists of length 2-3 per bug


def oracle_materialize(project, transformations):
    """(variant, type-checks, edits skipped because an earlier one removed
    their node) by full copy, full reindex and full type check."""
    copy = project.clone()
    copy.reindex()
    removed = 0
    for t in transformations:
        target = copy.nodes.get(t.point.node_id)
        if target is None:
            removed += 1
            continue
        if not t.operator.applicable(copy, target):
            continue
        t.operator.mutate(copy, target, t.concrete.clone() if t.concrete is not None else None)
        copy.reindex()
    try:
        check_project(copy)
    except TypeCheckError:
        return copy, False, removed
    return copy, True, removed


def node_table(project):
    return {
        nid: (n.kind, n.op, n.name, repr(n.value), n.line,
              tuple(c.node_id for c in n.children))
        for nid, n in project.nodes.items()
    }


def assert_same_variant(variant, expected, base):
    assert print_sources(variant) == print_sources(expected)
    assert variant.nodes.keys() == expected.nodes.keys()
    assert variant.parents == expected.parents
    assert variant.max_id == expected.max_id
    fresh = sorted(nid for nid in variant.nodes if nid > base.max_id)
    assert fresh == sorted(nid for nid in expected.nodes if nid > base.max_id)
    assert node_table(variant) == node_table(expected)
    # the indexes point at the variant's own trees
    for sf in variant.files:
        for fn in sf.functions:
            owner, root = variant.functions[fn.name]
            assert owner is sf and root is fn
            for node in pre_order(fn):
                assert variant.nodes[node.node_id] is node


def assert_edit_local(variant, project, node_id):
    """Every node of the variant off the path from the function root to
    node_id is the project's own object."""
    path = set()
    while node_id is not None:
        path.add(node_id)
        node_id = project.parents[node_id]
    for nid, node in variant.nodes.items():
        if nid in project.nodes and nid not in path:
            assert node is project.nodes[nid], nid


def candidate_transformations(project, suite, meta):
    """Sessions of several presets over one project object (so their point
    ids agree) and one transformation per applicable (point, operator)."""
    sessions = []
    candidates = []
    for mode in PRESETS:
        config = config_from_preset(mode, seed=5, step_budget=int(meta["step_budget"]))
        session = RepairSession(project, suite, config)
        sessions.append(session)
        for point in session.points:
            for op in session.space.operators:
                t = session.create_transformation(point, op)
                if t is not None:
                    candidates.append(t)
    return sessions[0], candidates


def transformation_lists(candidates, rng):
    lists = [[t] for t in candidates]
    for _ in range(COMBINED_LISTS):
        lists.append([rng.choice(candidates) for _ in range(2 + rng.below(2))])
    # a second edit whose point the first one removed
    for first in candidates:
        if first.operator.name != "remove":
            continue
        for second in candidates:
            if second is not first and second.point.node_id == first.point.node_id:
                lists.append([first, second])
                break
    return lists


def test_copy_on_write_variants_match_full_copy(corpus_names):
    rng = SplitMix64(2021)
    checked = removed = rejected = multi = 0
    for name in corpus_names:
        project, suite, meta = load_bug(name)
        session, candidates = candidate_transformations(project, suite, meta)
        assert candidates, name
        base_sources = print_sources(project)
        base_table = node_table(project)
        base_parents = dict(project.parents)
        for ts in transformation_lists(candidates, rng):
            expected, accepted, skipped = oracle_materialize(project, ts)
            variant = session.materialize(ts)
            assert (variant is not None) == accepted, (name, ts)
            if variant is not None:
                assert_same_variant(variant, expected, project)
                if len(ts) == 1:
                    assert_edit_local(variant, project, ts[0].point.node_id)
            assert print_sources(project) == base_sources
            assert node_table(project) == base_table
            assert project.parents == base_parents
            checked += 1
            removed += skipped
            rejected += not accepted
            multi += len(ts) > 1
    assert removed > 0 and rejected > 0 and multi >= len(corpus_names) * COMBINED_LISTS
    print(f"\n{checked} transformation lists ({multi} combined, {removed} edits on removed "
          f"nodes, {rejected} rejected by the type gate) match the full-copy oracle")


def test_apply_operator_matches_full_copy(corpus_names):
    for name in corpus_names[:6]:
        project, suite, meta = load_bug(name)
        _, candidates = candidate_transformations(project, suite, meta)
        base_sources = print_sources(project)
        for t in candidates:
            variant = apply_operator(project, t.operator, t.point.node_id, t.concrete)
            assert variant is not None
            expected, _, _ = oracle_materialize(project, [t])
            assert_same_variant(variant, expected, project)
        assert print_sources(project) == base_sources


# Each edit below changes what its statement declares, keeps what it
# declares, or sits in an else-if.
DECLARATIONS = """\
fn f(n: int) -> int {
    let x: int = n + 1;
    let y = n * 2;
    let z = 0;
    z = x + y;
    let v = z % 3;
    let k = n - 1;
    if (n > 10) {
        let w = 1;
        z = z + w;
    } else if (n > 5) {
        z = z - v;
    }
    return x % 2 + y % 2 + z;
}
"""


def parsed(text):
    """A statement, or the initializer of `let t = <expression>;`, as an
    unnumbered ingredient."""
    project = parse_project([("i.mini", f"fn g(n: int, w: int) {{\n    {text}\n}}\n")])
    stmt = project.functions["g"][1].children[0].children[0]
    return (stmt.children[0] if stmt.name == "t" else stmt).clone()


def declaration_lists(project):
    """(transformation list, whether the full check accepts it)."""
    def t(stmt_text, op, ingredient=None, granularity="statement", target=None):
        """`op` at the statement that prints as `stmt_text`, or at the
        `target` expression in it."""
        stmt = next(n for n in project.nodes.values()
                    if n.is_statement() and print_tree(n).startswith(stmt_text))
        points = create_modification_points(
            project, [SuspiciousLocation(stmt.node_id, 1.0)], granularity)
        point = next(p for p in points
                     if print_tree(project.node(p.node_id)).startswith(target or stmt_text))
        plan = None if ingredient is None else one_tree_plan(parsed(ingredient))
        return [Transformation(point, op, plan)]

    replace = ReplaceStatement()
    return [
        # the declared type changes and a later use needs an int
        (t("let x: int", replace, "let x: float = 1.5;"), False),
        (t("let x: int", replace, "let x: int = n;"), True),
        # the declaration moves into the new block
        (t("let x: int", InsertBefore(), "n = n + 1;"), False),
        (t("z = x + y", InsertBefore(), "n = n + 1;"), True),
        # a later sibling redeclares what the replacement declares
        (t("z = x + y", replace, "let v = 1;"), False),
        (t("z = x + y", replace, "let u = 1;"), True),
        # the unannotated initializer turns from int into float
        (t("let y", ReplaceExpression(), "let t = n * 2.5;", "expression", "n * 2"), False),
        (t("let y", ReplaceExpression(), "let t = n * 3;", "expression", "n * 2"), True),
        # the type changes and the only read is in a nested block of a later sibling
        (t("let v", replace, "let v = 1.5;"), False),
        (t("let v", replace, "let v = n;"), True),
        # an unused declaration is removed
        (t("let k", RemoveStatement()), True),
        # the else-if condition, in the scopes of its `if`
        (t("if (n > 5)", RelationalTo("<="), None, "logical-relational", "n > 5"), True),
        (t("if (n > 5)", ReplaceExpression(), "let t = w > 0;", "expression", "n > 5"), False),
        (t("if (n > 5)", IfCondition(True)), True),
    ]


def test_declaration_changes_match_full_copy():
    project = parse_project([("main.mini", DECLARATIONS)])
    suite = [TestCase("t", "f", (1,), expect=0)]
    session = RepairSession(project, suite, config_from_preset("jgenprog", step_budget=1000))
    base_sources = print_sources(project)
    for ts, accepts in declaration_lists(project):
        expected, accepted, _ = oracle_materialize(project, ts)
        assert accepted == accepts, ts
        variant = session.materialize(ts)
        assert (variant is not None) == accepted, ts
        if variant is not None:
            assert_same_variant(variant, expected, project)
            assert_edit_local(variant, project, ts[0].point.node_id)
        assert print_sources(project) == base_sources
