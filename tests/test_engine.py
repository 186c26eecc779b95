"""Modification points, selection strategies, and navigation."""

from collections import Counter

import pytest

from minirepair.config import ConfigError, RunConfig
from minirepair.engine import (
    ModificationPoint,
    RepairSession,
    create_modification_points,
    navigate,
    select_operator,
    select_points,
)
from minirepair.faultloc import SuspiciousLocation, TestCase
from minirepair.lang import parse_project
from minirepair.lang.printer import print_tree
from minirepair.operators import space_irr_statements, space_suppression
from minirepair.presets import config_from_preset
from minirepair.rng import SplitMix64

from conftest import apply_operator, by_name, load_bug


def mp(node_id, sv):
    return ModificationPoint(node_id=node_id, granularity="statement",
                             suspiciousness=sv, env={})


def suspicious_statements(project, fn_name):
    """All statements of one function as equally suspicious locations."""
    fn = project.functions[fn_name][1]
    from minirepair.lang import pre_order

    return [SuspiciousLocation(n.node_id, 1.0) for n in pre_order(fn)
            if n.is_statement()]


# -- point creation -----------------------------------------------------------


ACCOUNT_SRC = """fn get_account(name: int) -> int {
    return name * 10;
}

fn set_balance(account: int, amount: int) -> int {
    return account + amount;
}

fn update(name: int, previous_month: int, current_month: int) -> int {
    let my_account = get_account(name);
    my_account = set_balance(my_account, previous_month + current_month);
    return my_account;
}
"""


def test_statement_vs_expression_point_counts():
    """Two suspicious statements yield 2 statement points; the same two
    statements contain exactly 3 composite expressions (a call, a call,
    and the argument addition), so expression granularity yields 3."""
    project = parse_project([("main.mini", ACCOUNT_SRC)])
    fn = project.functions["update"][1]
    body = fn.children[0]
    decl, assign = body.children[0], body.children[1]
    suspicious = [
        SuspiciousLocation(decl.node_id, 0.9),
        SuspiciousLocation(assign.node_id, 0.9),
    ]
    statement_points = create_modification_points(project, suspicious, "statement")
    assert len(statement_points) == 2

    expr_points = create_modification_points(project, suspicious, "expression")
    printed = [print_tree(project.node(p.node_id)) for p in expr_points]
    assert printed == [
        "get_account(name)",
        "set_balance(my_account, previous_month + current_month)",
        "previous_month + current_month",
    ]
    # expressions inherit the enclosing statement's suspiciousness
    assert all(p.suspiciousness == 0.9 for p in expr_points)


def test_expression_points_skip_lvalue_and_leaves():
    src = "fn f(a: [int], i: int) -> int { a[i + 1] = i; return a[0]; }"
    project = parse_project([("main.mini", src)])
    suspicious = suspicious_statements(project, "f")
    points = create_modification_points(project, suspicious, "expression")
    printed = {print_tree(project.node(p.node_id)) for p in points}
    assert printed == {"i + 1", "a[0]"}  # not the lvalue spine, not leaves


def test_logical_relational_points():
    src = "fn f(x: int, ready: bool) -> bool { if (x < 0 && ready) { return !ready; } return false; }"
    project = parse_project([("main.mini", src)])
    suspicious = suspicious_statements(project, "f")
    points = create_modification_points(project, suspicious, "logical-relational")
    printed = {print_tree(project.node(p.node_id)) for p in points}
    assert printed == {"x < 0", "x < 0 && ready", "!ready"}


def test_no_matching_granularity_gives_empty():
    src = "fn f(x: int) -> int { return x + 1; }"
    project = parse_project([("main.mini", src)])
    suspicious = suspicious_statements(project, "f")
    assert create_modification_points(project, suspicious, "logical-relational") == []


def test_nested_suspicious_statements_no_duplicate_expression_points():
    src = "fn f(x: int) -> int { { return x + 1; } }"
    project = parse_project([("main.mini", src)])
    suspicious = suspicious_statements(project, "f")  # blocks + return
    points = create_modification_points(project, suspicious, "expression")
    assert [print_tree(project.node(p.node_id)) for p in points] == ["x + 1"]


# -- selection ----------------------------------------------------------------


def test_select_points_single_always_selected():
    only = [mp(1, 0.4)]
    for strategy in ("uniform-random", "weighted-random", "sequential"):
        assert select_points(only, strategy, 1, SplitMix64(1)) == only


def test_select_points_sequential_order_and_ties():
    points = [mp(5, 0.9), mp(3, 0.9), mp(7, 0.1)]
    ordered = select_points(points, "sequential", 3, SplitMix64(1))
    assert [p.node_id for p in ordered] == [3, 5, 7]
    top_two = select_points(points, "sequential", 2, SplitMix64(1))
    assert [p.node_id for p in top_two] == [3, 5]


def test_select_points_weighted_distribution():
    points = [mp(1, 0.5), mp(2, 0.25), mp(3, 0.25)]
    rng = SplitMix64(2024)
    counts = Counter()
    n = 10_000
    for _ in range(n):
        counts[select_points(points, "weighted-random", 1, rng)[0].node_id] += 1
    assert abs(counts[1] / n - 0.5) < 0.02
    assert abs(counts[2] / n - 0.25) < 0.02
    assert abs(counts[3] / n - 0.25) < 0.02


def test_select_points_all_zero_sv_falls_back_to_uniform():
    points = [mp(1, 0.0), mp(2, 0.0)]
    rng = SplitMix64(9)
    counts = Counter(select_points(points, "weighted-random", 1, rng)[0].node_id
                     for _ in range(2000))
    assert abs(counts[1] / 2000 - 0.5) < 0.05


def test_select_operator_uniform_distribution():
    space = space_irr_statements()
    rng = SplitMix64(31)
    counts = Counter(select_operator(space, "uniform-random", rng).name
                     for _ in range(9000))
    for op in space.operators:
        assert abs(counts[op.name] / 9000 - 1 / 3) < 0.03


def test_select_operator_weighted():
    space = space_irr_statements()
    weights = {"insert-before": 0.0, "replace": 1.0, "remove": 0.0}
    rng = SplitMix64(4)
    for _ in range(50):
        assert select_operator(space, "weighted-random", rng, weights=weights).name == "replace"
    for bad, message in [
        (None, "weighted-random operator selection needs operator_weights"),
        ({"replace": 1.0}, "operator_weights missing entries for ['insert-before', 'remove']"),
        ({"insert-before": 0.5, "replace": 0.2, "remove": 0.1},
         "operator weights must sum to 1, got 0.7999999999999999"),
    ]:
        with pytest.raises(ConfigError) as info:
            RunConfig(operator_selection="weighted-random", operator_weights=bad).validate()
        assert str(info.value) == message


@pytest.mark.parametrize("weights", [
    {"insert-before": float("nan"), "replace": 1.0, "remove": 0.0},
    {"insert-before": -0.5, "replace": 0.5, "remove": 1.0},
    {"insert-before": float("inf"), "replace": 0.5, "remove": 0.5},
    {"insert-before": "0.5", "replace": 0.5, "remove": 0.0},
    {"insert-before": True, "replace": 0.0, "remove": 0.0},
])
def test_weights_must_be_finite_numbers_at_least_zero(weights):
    """The nan weights once made every weighted draw pick `remove`, whose
    weight is 0, and the negative ones left `replace` unreachable, although
    both sums pass the sum-to-1 check."""
    config = RunConfig(operator_selection="weighted-random", operator_weights=weights)
    with pytest.raises(ConfigError, match=r"operator_weights\['insert-before'\] must be a finite"):
        config.validate()


def test_select_operator_sequential_cycles_in_space_order():
    space = space_suppression()
    names = [select_operator(space, "sequential", SplitMix64(1), counter=i).name
             for i in range(8)]
    assert names == ["remove", "insert-return-before", "if-true", "if-false"] * 2


# -- sessions -------------------------------------------------------------------


def make_session(bug, mode="jmutrepair", **overrides):
    project, suite, meta = load_bug(bug)
    overrides.setdefault("step_budget", int(meta["step_budget"]))
    config = config_from_preset(mode, **overrides)
    return RepairSession(project, suite, config)


def test_create_transformation_remove_has_no_ingredient():
    session = make_session("extra-increment", mode="jkali")
    point = next(p for p in session.points
                 if print_tree(session.project.node(p.node_id)) == "s = s + 1;")
    remove = by_name(session.space, "remove")
    t = session.create_transformation(point, remove)
    assert t is not None and t.concrete is None
    # second creation of the same pair is suppressed
    assert session.create_transformation(point, remove) is None


def test_pool_built_exactly_once():
    session = make_session("ledger-scope", mode="jgenprog", navigation="selective",
                           max_iterations=50, seed=3)
    assert session.stats.pool_builds == 0
    session.run()
    assert session.stats.pool_builds == 1


def test_exhausted_pool_gives_not_applicable():
    project = parse_project([("main.mini", "fn f(x: int) -> int { return x / 0; }")])
    suite = [TestCase("t", "f", (1,), expect=1)]
    config = config_from_preset("jgenprog", navigation="selective",
                                ingredient_scope="file", max_iterations=10)
    session = RepairSession(project, suite, config)
    point = next(p for p in session.points
                 if print_tree(session.project.node(p.node_id)) == "return x / 0;")
    replace = by_name(session.space, "replace")
    seen = set()
    while True:
        t = session.create_transformation(point, replace)
        if t is None:
            break
        seen.add(t.edit[2])
    # pool had only this file's statements; all tried, then exhausted
    assert seen
    assert session.create_transformation(point, replace) is None


def test_exhaustive_jmutrepair_candidate_count():
    """Two relational points, five alternatives each: ten validations."""
    src = """fn classify(x: int, y: int) -> bool {
    if (x < 0) {
        return true;
    }
    if (y > 10) {
        return true;
    }
    return false;
}
"""
    project = parse_project([("main.mini", src)])
    suite = [
        TestCase("a", "classify", (-1, 0), expect=True),
        TestCase("b", "classify", (0, 11), expect=True),
        TestCase("c", "classify", (0, 0), expect=True),  # failing: forces search
    ]
    config = config_from_preset("jmutrepair", max_solutions=100, max_iterations=10_000)
    outcome = navigate(project, suite, config)
    assert outcome.stats.validated == 10
    assert outcome.stats.stop_reason == "completed"


def test_budget_max_solutions_stops_at_first_patch():
    project, suite, meta = load_bug("abs-sign")
    config = config_from_preset("jmutrepair", max_solutions=1,
                                step_budget=meta["step_budget"])
    outcome = navigate(project, suite, config)
    assert len(outcome.patches) == 1
    assert outcome.stats.stop_reason == "solutions"


ONLY_INSERT_BEFORE = {"operator_selection": "weighted-random",
                      "operator_weights": {"insert-before": 1, "replace": 0, "remove": 0}}


@pytest.mark.parametrize("mode, overrides, reason", [
    ("jmutrepair", {"navigation": "selective"}, "solutions"),
    ("jmutrepair", {"navigation": "selective", "max_solutions": 100, "max_iterations": 5},
     "iterations"),
    ("jmutrepair", {"navigation": "selective", "max_seconds": 0}, "wall-clock"),
    ("jmutrepair", {"navigation": "selective", "max_solutions": 100}, "exhausted"),
    ("jmutrepair", {"navigation": "evolutionary"}, "solutions"),
    ("jmutrepair", {"navigation": "evolutionary", "max_solutions": 100, "max_iterations": 5},
     "iterations"),
    ("jmutrepair", {"navigation": "evolutionary", "max_seconds": 0}, "wall-clock"),
    ("jmutrepair", {"navigation": "evolutionary", "max_solutions": 100}, "exhausted"),
    # the generation that uses up the space is the last one the budget
    # allows: the end-of-generation check decides before the next head's
    ("jmutrepair", {"navigation": "evolutionary", "max_solutions": 100, "max_iterations": 17},
     "exhausted"),
    ("jmutrepair", {"navigation": "evolutionary", "max_solutions": 100, "max_iterations": 16},
     "iterations"),
    ("jkali", {}, "completed"),
    ("jkali", {"max_iterations": 3}, "iterations"),
    ("jkali", {"max_seconds": 0}, "wall-clock"),
    # jkali's sequential point selection picks the same top point every
    # time, so its space is that point's pairs
    ("jkali", {"navigation": "selective", "max_solutions": 100, "max_iterations": 300},
     "exhausted"),
    ("jkali", {"navigation": "evolutionary", "max_solutions": 100, "max_iterations": 300},
     "exhausted"),
    # no pick draws an operator weighted 0, so the space is the pairs of
    # the operators of positive weight
    ("jgenprog", {"navigation": "selective", "max_solutions": 100, "max_iterations": 300,
                  **ONLY_INSERT_BEFORE}, "exhausted"),
    ("jgenprog", {"navigation": "evolutionary", "max_solutions": 100, "max_iterations": 300,
                  **ONLY_INSERT_BEFORE}, "exhausted"),
    # each of the top points meets every operator of jkali's sequential
    # operator selection, also when their count shares a factor with the
    # operators'
    ("jkali", {"navigation": "selective", "max_solutions": 100, "max_iterations": 300,
               "points_per_iteration": 2}, "exhausted"),
    ("jkali", {"navigation": "selective", "max_solutions": 100, "max_iterations": 300,
               "points_per_iteration": 4}, "exhausted"),
])
def test_every_navigation_records_each_stop_reason(mode, overrides, reason):
    project, suite, meta = load_bug("abs-sign")
    config = config_from_preset(mode, seed=1, step_budget=meta["step_budget"], **overrides)
    stats = navigate(project, suite, config).stats
    assert stats.stop_reason == reason
    if reason == "iterations":
        assert stats.iterations == config.max_iterations
    if reason == "wall-clock":
        assert stats.iterations == 0


def test_no_search_space_outcome():
    # no relational/logical expression anywhere: jmutrepair has no points
    project = parse_project([("main.mini", "fn f(x: int) -> int { return x + 1; }")])
    suite = [TestCase("t", "f", (1,), expect=5)]
    config = config_from_preset("jmutrepair")
    outcome = navigate(project, suite, config)
    assert outcome.stats.stop_reason == "no-search-space"
    assert outcome.patches == []


def test_identical_seed_identical_report():
    project, suite, meta = load_bug("count-down")
    for mode in ("jmutrepair", "tibra"):
        reports = []
        for _ in range(2):
            config = config_from_preset(mode, seed=11, max_iterations=300,
                                        step_budget=meta["step_budget"])
            outcome = navigate(project, suite, config)
            reports.append(outcome.report_dict())
        assert reports[0] == reports[1]


def test_different_seeds_consume_streams_independently():
    project, suite, meta = load_bug("mid-formula")
    validated = set()
    for seed in (1, 2, 3, 4):
        config = config_from_preset("cardumen", seed=seed, max_iterations=400,
                                    step_budget=meta["step_budget"])
        outcome = navigate(project, suite, config)
        assert outcome.patches, f"cardumen failed on seed {seed}"
        validated.add(outcome.stats.validated)
    assert len(validated) > 1  # different seeds take different paths


def test_variant_independence_original_untouched():
    project, suite, meta = load_bug("abs-sign")
    before = {sf.path: print_tree(sf.functions[0]) for sf in project.files}
    config = config_from_preset("jmutrepair", max_solutions=5, max_iterations=1000,
                                step_budget=meta["step_budget"])
    navigate(project, suite, config)
    after = {sf.path: print_tree(sf.functions[0]) for sf in project.files}
    assert before == after


def test_argmax_stability_sequential_first_point():
    session = make_session("abs-sign", mode="jkali")
    ordered = select_points(session.points, "sequential", len(session.points),
                            SplitMix64(1))
    top_sv = max(p.suspiciousness for p in session.points)
    assert ordered[0].suspiciousness == top_sv


def test_exhaustive_completeness_matches_cross_product():
    """The validated set of an exhaustive irr-statements run equals the
    brute-force cross-product of applicable (point, operator, ingredient)
    triples that pass the scope/type gate."""
    from minirepair.ingredients import build_pool, transform_ingredient
    from minirepair.lang.types import cached_types, env_at

    bug = "queue-scope"
    session = make_session(bug, mode="jgenprog", navigation="exhaustive",
                           ingredient_scope="file",
                           max_solutions=10_000, max_iterations=100_000)
    session.run()

    project, _, _ = load_bug(bug)
    types = cached_types(project)
    pool = build_pool(project, "file", "statement", types)
    expected = 0
    for point in session.points:
        node = project.node(point.node_id)
        for op in session.space.operators:
            if not op.applicable(project, node):
                continue
            if not op.needs_ingredient:
                variant = apply_operator(project, op, point.node_id)
                if variant is not None and _checks(variant):
                    expected += 1
                continue
            seen = set()
            for entry in pool.entries(point.file, point.module):
                concrete = transform_ingredient(entry, env_at(project, point.node_id), "none")
                if not concrete:
                    continue
                form = print_tree(concrete[0])
                if form in seen:
                    continue
                seen.add(form)
                variant = apply_operator(project, op, point.node_id, concrete[0])
                if variant is not None and _checks(variant):
                    expected += 1
    assert session.stats.validated == expected


def _checks(project):
    from minirepair.lang.types import TypeCheckError, check_project

    try:
        check_project(project)
        return True
    except TypeCheckError:
        return False


def test_no_retry_invariant_single_edit_candidates():
    """Across one run, no (point, operator, concrete form) triple is
    validated twice as a single-edit candidate."""
    for mode, bug in (("tibra", "stock-scope"), ("jgenprog", "two-modules"),
                      ("cardumen", "substring-end")):
        project, suite, meta = load_bug(bug)
        config = config_from_preset(mode, seed=2, max_iterations=400,
                                    max_solutions=1000,
                                    step_budget=int(meta["step_budget"]))
        session = RepairSession(project, suite, config)
        seen = set()
        original_validate = session._validate

        def spying_validate(variant, iteration):
            before = session.stats.validated
            result = original_validate(variant, iteration)
            ran_suite = session.stats.validated > before
            if ran_suite and len(variant.transformations) == 1:
                t = variant.transformations[0]
                key = t.edit
                assert key not in seen, f"retried {key} in {mode}/{bug}"
                seen.add(key)
            return result

        session._validate = spying_validate
        session.run()
        assert seen


def test_random_var_plans_each_entry_once_per_point(monkeypatch):
    """random-var's plan of an entry at a point is made once per project
    and read by every draw there: over tibra seeds 1-3 on one loaded
    project, transform_ingredient runs at most once per (point, entry)."""
    from minirepair import engine

    project, suite, meta = load_bug("stock-scope")
    plans = Counter()
    transform = engine.transform_ingredient

    def counting(ingredient, env, *args, **kwargs):
        plans[id(env), id(ingredient)] += 1  # a point's env stands for the point
        return transform(ingredient, env, *args, **kwargs)

    monkeypatch.setattr(engine, "transform_ingredient", counting)
    picks = 0
    for seed in (1, 2, 3):
        config = config_from_preset("tibra", seed=seed)
        config.step_budget = meta["step_budget"]
        outcome = navigate(project, suite, config)
        assert len({id(p.env) for p in outcome.session.points}) == len(outcome.session.points)
        picks += outcome.stats.iterations
    assert plans and picks > len(plans)
    assert max(plans.values()) == 1
