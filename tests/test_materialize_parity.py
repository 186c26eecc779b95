"""Copy-on-write materialization equals the full-copy algorithm.

`oracle_materialize` below is the algorithm `RepairSession.materialize`
used before variants became copy-on-write: deep-copy and index the whole
project, apply each transformation and reindex the whole project after it,
then type-check every function.  For every corpus bug, the session's
variants must match it in printed sources, in every index entry, in the
ids given to spliced nodes and in the type-gate verdict, and must leave
the session project untouched.
"""

from minirepair.engine import RepairSession
from minirepair.lang.ast import pre_order
from minirepair.lang.printer import print_sources
from minirepair.lang.types import TypeCheckError, check_project
from minirepair.operators import apply_operator
from minirepair.presets import config_from_preset
from minirepair.rng import SplitMix64

from conftest import load_bug

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
    assert variant.file_of == expected.file_of
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
