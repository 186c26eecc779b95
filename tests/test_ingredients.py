"""Ingredient pools, selection strategies, transformation, templates."""

from collections import Counter
from types import SimpleNamespace

import pytest

from minirepair.engine import ModificationPoint, RepairSession
from minirepair.ingredients import (
    MAX_INSTANTIATIONS,
    FunctionSimilarity,
    build_name_model,
    build_pool,
    cosine_similarity,
    lcs_length,
    mine_templates,
    select_ingredient,
    token_multiset,
    transform_ingredient,
)
from minirepair.lang import parse_project, pre_order
from minirepair.lang.ast import INT, STRING
from minirepair.lang.printer import print_tree
from minirepair.lang.types import cached_types
from minirepair.presets import config_from_preset
from minirepair.rng import SplitMix64

from conftest import by_name, load_bug


class PointStub:
    def __init__(self, file="main.mini", module=".", function="f", node_id=1):
        self.file = file
        self.module = module
        self.function = function
        self.node_id = node_id


def parse_checked(src):
    project = parse_project([("main.mini", src)])
    return project, cached_types(project)


def test_single_file_file_scope_pool_has_all_statements():
    src = """fn f(x: int) -> int {
    let y = x + 1;
    return y;
}
"""
    project, types = parse_checked(src)
    pool = build_pool(project, "file", "statement", types)
    printed = {e.printed for e in pool.entries("main.mini", ".")}
    assert printed == {
        "{\n    let y = x + 1;\n    return y;\n}",
        "let y = x + 1;",
        "return y;",
    }


def test_pool_deduplicates_by_printed_form():
    src = """fn f(x: int) -> int {
    x = x + 1;
    x = x + 1;
    return x;
}
"""
    project, types = parse_checked(src)
    pool = build_pool(project, "file", "statement", types)
    entries = pool.entries("main.mini", ".")
    forms = [e.printed for e in entries]
    assert forms.count("x = x + 1;") == 1
    # representative is the first occurrence in node-id order
    first = next(e for e in entries if e.printed == "x = x + 1;")
    assert first.node_id == min(
        n.node_id for n in pre_order(project.functions["f"][1])
        if n.kind == "assign"
    )


def test_scope_nesting_over_corpus(corpus_names):
    """file pool <= module pool <= global pool, as sets of printed forms."""
    for name in corpus_names:
        project, _, _ = load_bug(name)
        types = cached_types(project)
        for granularity in ("statement", "expression"):
            file_pool = build_pool(project, "file", granularity, types)
            module_pool = build_pool(project, "module", granularity, types)
            global_pool = build_pool(project, "global", granularity, types)
            for sf in project.files:
                file_forms = {e.printed for e in file_pool.entries(sf.path, sf.module)}
                module_forms = {e.printed for e in module_pool.entries(sf.path, sf.module)}
                global_forms = {e.printed for e in global_pool.entries(sf.path, sf.module)}
                assert file_forms <= module_forms <= global_forms


def test_two_modules_module_pool_hand_count():
    """The tasks module of corpus/two-modules holds exactly 17 statement
    forms; the oracle is an independent walk + print + dedup."""
    project, _, _ = load_bug("two-modules")
    types = cached_types(project)
    pool = build_pool(project, "module", "statement", types)
    entries = pool.entries("tasks/main.mini", "tasks")
    assert len(entries) == 17

    forms = set()
    for sf in project.files:
        if sf.module != "tasks":
            continue
        for fn in sf.functions:
            for node in pre_order(fn):
                if node.is_statement():
                    forms.add(print_tree(node))
    assert len(forms) == 17
    assert forms == {e.printed for e in entries}


def test_free_vars_recorded_on_entries():
    src = """fn f(a: int) -> int {
    let b = a + 2;
    return b;
}
"""
    project, types = parse_checked(src)
    pool = build_pool(project, "file", "statement", types)
    decl = next(e for e in pool.entries("main.mini", ".") if e.printed == "let b = a + 2;")
    assert decl.free_vars == frozenset({("a", INT)})
    ret = next(e for e in pool.entries("main.mini", ".") if e.printed == "return b;")
    assert ret.free_vars == frozenset({("b", INT)})


# -- selection ------------------------------------------------------------------


def make_pool_of(src):
    project, types = parse_checked(src)
    return project, types, build_pool(project, "file", "statement", types)


def test_single_entry_then_exhausted():
    project, types, pool = make_pool_of("fn f() -> int { return 1; }")
    # restrict to one entry for clarity
    entries = pool.entries("main.mini", ".")
    pool.entries_by_key["main.mini"] = entries[:1]
    tried = set()  # of one (point, operator) pair
    rng = SplitMix64(1)
    point = PointStub()
    first = select_ingredient(pool, point, tried, "uniform", rng)
    assert first is not None
    tried.add(first.printed)
    assert select_ingredient(pool, point, tried, "uniform", rng) is None


def test_uniform_selection_is_uniform():
    """Chi-square over 10,000 seeded draws across 4 untried entries."""
    src = """fn f(x: int) -> int {
    x = x + 1;
    x = x + 2;
    x = x + 3;
    x = x + 4;
    return x;
}
"""
    project, types, pool = make_pool_of(src)
    entries = [e for e in pool.entries("main.mini", ".") if e.printed.startswith("x =")]
    pool.entries_by_key["main.mini"] = entries
    rng = SplitMix64(99)
    counts = Counter()
    point = PointStub()
    for _ in range(10_000):
        chosen = select_ingredient(pool, point, set(), "uniform", rng)  # all four untried
        counts[chosen.printed] += 1
    # chi-square against uniform; critical value for df=3 at p=0.01 is 11.34
    expected = 10_000 / 4
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert len(counts) == 4
    assert chi2 < 11.34


def test_similarity_ranks_identical_donor_first():
    src = """fn buggy(x: int) -> int {
    let y = x + 1;
    return y;
}

fn twin(x: int) -> int {
    let y = x + 1;
    return y;
}

fn other(s: string) -> string {
    return s + s;
}
"""
    project, types = parse_checked(src)
    pool = build_pool(project, "file", "statement", types)
    sim = FunctionSimilarity(project)
    assert sim.similarity("buggy", "twin") == pytest.approx(1.0)
    assert sim.similarity("buggy", "other") < 1.0
    point = PointStub(function="buggy")
    chosen = select_ingredient(pool, point, set(), "similarity", SplitMix64(1), similarity=sim)
    assert chosen.origin_function in ("buggy", "twin")


def test_name_probability_selection_weights():
    src = """fn f(common: int, rare: int) -> int {
    common = common + 1;
    common = common + 2;
    rare = rare + 1;
    return common;
}
"""
    project, types = parse_checked(src)
    pool = build_pool(project, "file", "statement", types)
    model = build_name_model(project)
    assert model.frequency("common") > model.frequency("rare")
    counts = Counter()
    rng = SplitMix64(5)
    point = PointStub()
    # draw repeatedly with nothing tried; the heavier-named entries dominate
    entries = [e for e in pool.entries("main.mini", ".") if "+" in e.printed]
    pool.entries_by_key["main.mini"] = entries
    for _ in range(4000):
        chosen = select_ingredient(pool, point, set(), "name-probability", rng,
                                   name_model=model)
        counts["common" if "common" in chosen.printed else "rare"] += 1
    assert counts["common"] > counts["rare"] * 2


# -- transformation ----------------------------------------------------------------


def make_ingredient(src, form, granularity="statement"):
    project, types = parse_checked(src)
    pool = build_pool(project, "file", granularity, types)
    return next(e for e in pool.entries("main.mini", ".") if e.printed == form)


def test_no_free_vars_unchanged_under_all_strategies():
    ing = make_ingredient("fn f() -> int { return 42; }", "return 42;")
    model = build_name_model(parse_project([("m.mini", "fn g() -> int { return 0; }")]))
    for strategy in ("none", "random-var", "name-probability", "name-similarity"):
        out = transform_ingredient(ing, {}, strategy, name_model=model)
        assert len(out) == 1
        assert print_tree(out[0]) == "return 42;"


def test_none_strategy_discards_out_of_scope():
    ing = make_ingredient("fn f(z: int) -> int { let y = z + 1; return y; }",
                          "let y = z + 1;")
    assert len(transform_ingredient(ing, {"a": INT}, "none")) == 0
    kept = transform_ingredient(ing, {"z": INT}, "none")
    assert len(kept) == 1


def test_random_var_plan_holds_choices():
    """random-var plans every substitution: the product, in product order,
    of the sorted same-typed names in scope of each out-of-scope variable."""
    ing = make_ingredient("fn f(z: int) -> int { let y = z + 1; return y; }",
                          "let y = z + 1;")
    plan = transform_ingredient(ing, {"b": INT, "a": INT, "s": STRING}, "random-var")
    assert plan.names == ("z",)
    assert plan.choices == (("a", "b"),)
    assert plan.substitutions == [("a",), ("b",)]
    assert [print_tree(t) for t in plan] == ["let y = a + 1;", "let y = b + 1;"]
    in_scope = transform_ingredient(ing, {"z": INT, "a": INT}, "random-var")
    assert in_scope.choices == ()
    assert [print_tree(t) for t in in_scope] == ["let y = z + 1;"]


def test_random_var_untransformable():
    ing = make_ingredient("fn f(z: int) -> int { let y = z + 1; return y; }",
                          "let y = z + 1;")
    plan = transform_ingredient(ing, {"s": STRING}, "random-var")
    assert plan.choices == ((),)
    assert len(plan) == 0


def test_random_var_draws_cover_a_capped_plan():
    """A random-var product past MAX_INSTANTIATIONS (3 variables x 7 names
    = 343) is capped like the ranked plans, and its draws stay inside the
    plan: an index past the cap is drawn again over the plan, so over
    seeded picks every index is reached."""
    ing = make_ingredient("fn f(p: int, q: int, r: int) -> int { let y = p + q + r; return y; }",
                          "let y = p + q + r;")
    env = {name: INT for name in "abcdefg"}
    plan = transform_ingredient(ing, env, "random-var")
    assert len(plan.choices) == 3 and len(plan) == MAX_INSTANTIATIONS < 7 ** 3
    assert plan.substitutions[:2] == [("a", "a", "a"), ("a", "a", "b")]
    plan.printed.extend(print_tree(plan[i]) for i in range(len(plan)))
    session = SimpleNamespace(_plan=lambda ingredient, point: plan, _drawn_forms={},
                              rng=SimpleNamespace(transform=SplitMix64(7)))
    point = ModificationPoint(1, "statement", 1.0, env)
    op = SimpleNamespace(name="replace")
    reached = Counter()
    for _ in range(4000):
        t = RepairSession._draw_candidate(session, point, op, ing, set())
        assert t.plan is plan and 0 <= t.index < len(plan)
        assert t.edit[2] == plan.printed[t.index]
        reached[t.index] += 1
    assert sorted(reached) == list(range(len(plan)))


def test_substitution_respects_inner_binders():
    src = """fn f(z: int) -> int {
    {
        let z = 1;
        z = z + 2;
    }
    return z;
}
"""
    project, types = parse_checked(src)
    pool = build_pool(project, "file", "statement", types)
    block = next(e for e in pool.entries("main.mini", ".")
                 if e.printed == "{\n    let z = 1;\n    z = z + 2;\n}")
    assert block.free_vars == frozenset()  # inner z shadows the parameter
    out = transform_ingredient(block, {}, "none")
    assert len(out) == 1


def test_name_probability_ranking_order():
    ing = make_ingredient("fn f(z: int) -> int { return z; }", "return z;")
    donor = parse_project([(
        "m.mini",
        "fn g(heavy: int, light: int) -> int { return heavy + heavy + light; }",
    )])
    model = build_name_model(donor)
    env = {"light": INT, "heavy": INT}
    out = transform_ingredient(ing, env, "name-probability", name_model=model)
    assert [print_tree(n) for n in out] == ["return heavy;", "return light;"]


def test_name_similarity_ranking_order():
    ing = make_ingredient("fn f(counter: int) -> int { return counter; }",
                          "return counter;")
    env = {"count": INT, "x": INT}
    out = transform_ingredient(ing, env, "name-similarity")
    assert [print_tree(n) for n in out] == ["return count;", "return x;"]
    assert lcs_length("counter", "count") == 5


# -- templates ----------------------------------------------------------------------


def test_template_abstraction_shapes():
    src = "fn f(a: int, b: int) -> int { return a + b; }"
    project, types = parse_checked(src)
    pool = mine_templates(project, types)
    forms = {e.printed for e in pool.entries_by_key["*"]}
    assert "_int_0 + _int_1" in forms


def test_template_repeated_variable_shares_placeholder():
    src = "fn f(a: int) -> int { return a + a; }"
    project, types = parse_checked(src)
    pool = mine_templates(project, types)
    forms = {e.printed for e in pool.entries_by_key["*"]}
    assert "_int_0 + _int_0" in forms


def test_templates_only_from_composite_expressions():
    src = "fn f(a: int) -> int { return a; }"
    project, types = parse_checked(src)
    pool = mine_templates(project, types)
    assert pool.entries_by_key.get("*", []) == []


def test_template_instantiation_with_single_candidate():
    src = """fn use_len(s: string) -> bool {
    return len(s) == 0;
}
"""
    project, types = parse_checked(src)
    pool = mine_templates(project, types)
    template = next(e for e in pool.entries_by_key["*"] if e.printed == "len(_string_0)")
    model = build_name_model(project)
    out = transform_ingredient(template, {"source": STRING, "n": INT}, "name-probability",
                               name_model=model)
    assert [print_tree(n) for n in out] == ["len(source)"]


def test_template_instantiation_frequency_ranking():
    donor_src = """fn donor(hot: int, cold: int) -> int {
    let pair = hot + cold;
    return hot + hot + hot + pair;
}
"""
    project, types = parse_checked(donor_src)
    pool = mine_templates(project, types)
    template = next(e for e in pool.entries_by_key["*"] if e.printed == "_int_0 + _int_1")
    model = build_name_model(project)
    assert model.frequency("hot") > model.frequency("cold")
    out = transform_ingredient(template, {"hot": INT, "cold": INT}, "name-probability",
                               name_model=model)
    # descending frequency product; equal products tie-break on the
    # substituted name tuple in ascending order
    assert [print_tree(n) for n in out] == [
        "hot + hot", "cold + hot", "hot + cold", "cold + cold",
    ]


def test_a_pair_records_each_attempt_once():
    """Each (point, operator) pair has its own tried set: an operator
    without an ingredient is tried once there, as "", and a second pick of
    the pair is a duplicate; the same operator at another point is apart."""
    project, suite, _ = load_bug("abs-sign")
    session = RepairSession(project, suite, config_from_preset("jkali", seed=1))
    first, second = (p for p in session.points
                     if project.node(p.node_id).kind == "if")
    op = by_name(session.space, "if-true")
    t = session.create_transformation(first, op)
    assert t.edit == (first.node_id, "if-true", None)
    assert session.tried == {(first.node_id, "if-true"): {""}}
    assert session.create_transformation(first, op) is None
    assert session.stats.duplicates == 1
    assert session.create_transformation(second, op).edit == (second.node_id, "if-true", None)
    assert session.tried == {(first.node_id, "if-true"): {""}, (second.node_id, "if-true"): {""}}


def test_cosine_and_token_helpers():
    a = token_multiset("return a + b;")
    b = token_multiset("return a + b;")
    c = token_multiset("while (x) { }")
    assert cosine_similarity(a, b) == pytest.approx(1.0)
    assert cosine_similarity(a, c) < 0.5
    assert lcs_length("abc", "zbcq") == 2
    assert lcs_length("", "abc") == 0
