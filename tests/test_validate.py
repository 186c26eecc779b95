"""Validation, fitness, patch rendering, and minimization."""

from minirepair.diffs import apply_unified_diff
from minirepair.engine import RepairSession, navigate
from minirepair.faultloc import TestCase, run_suite
from minirepair.lang import parse_project
from minirepair.lang.printer import print_sources, print_tree
from minirepair.presets import config_from_preset
from minirepair.validate import (
    Baseline,
    fitness,
    minimize_transformations,
    validate_variant,
)

from conftest import CORPUS, by_name, load_bug


def make_baseline(project, suite, budget):
    return Baseline.from_matrix(run_suite(project, suite, budget))


def test_fitness_counts_failures():
    project, suite, meta = load_bug("abs-sign")
    baseline = make_baseline(project, suite, meta["step_budget"])
    result = validate_variant(project, baseline, meta["step_budget"])
    assert fitness(result) == baseline.failing_count == 1


def test_all_passing_is_zero():
    project = parse_project([("main.mini", "fn f(x: int) -> int { return x; }")])
    suite = [TestCase(f"t{i}", "f", (i,), expect=i) for i in range(12)]
    baseline = Baseline(run_suite(project, suite, 1000), [], suite)
    assert fitness(validate_variant(project, baseline, 1000)) == 0


def test_short_circuit_skips_passing_set():
    """When an originally-failing test still fails, the passing set is
    skipped: only the failing set's verdicts are recorded."""
    project, suite, meta = load_bug("abs-sign")
    baseline = make_baseline(project, suite, meta["step_budget"])
    result = validate_variant(project, baseline, meta["step_budget"])
    assert len(result.verdicts) == len(baseline.failing)
    full = validate_variant(project, baseline, meta["step_budget"], short_circuit=False)
    assert len(full.verdicts) == len(suite)
    assert full.failing >= result.failing


def test_failing_first_order():
    project, suite, meta = load_bug("count-down")
    baseline = make_baseline(project, suite, meta["step_budget"])
    result = validate_variant(project, baseline, meta["step_budget"], short_circuit=False)
    names = [name for name, _ in result.verdicts]
    n_failing = len(baseline.failing)
    assert set(names[:n_failing]) == {t.name for t in baseline.failing}


def test_planted_fix_has_fitness_zero(corpus_names):
    """Applying expected_fix.patch to the canonical sources yields a
    program with zero failing tests, for every corpus bug."""
    for name in corpus_names:
        project, suite, meta = load_bug(name)
        diff = (CORPUS / name / "expected_fix.patch").read_text(encoding="utf-8")
        fixed_sources = apply_unified_diff(diff, print_sources(project))
        fixed = parse_project(sorted(fixed_sources.items()))
        baseline = make_baseline(project, suite, meta["step_budget"])
        result = validate_variant(fixed, baseline, meta["step_budget"], short_circuit=False)
        assert fitness(result) == 0, name


def test_timeout_variant_fails():
    src = "fn f(n: int) -> int { while (n > 0) { n = n + 1; } return n; }"
    project = parse_project([("main.mini", src)])
    suite = [TestCase("t", "f", (1,), expect=0)]
    baseline = make_baseline(project, suite, 2000)
    result = validate_variant(project, baseline, 2000)
    assert fitness(result) >= 1


def test_empty_transformation_list_equals_baseline():
    project, suite, meta = load_bug("range-check")
    config = config_from_preset("jmutrepair", step_budget=meta["step_budget"])
    session = RepairSession(project, suite, config)
    materialized = session.materialize([])
    assert print_sources(materialized) == session.baseline_sources
    result = validate_variant(materialized, session.baseline,
                              meta["step_budget"], short_circuit=False)
    assert fitness(result) == session.baseline.failing_count


def test_minimization_drops_neutral_transformation():
    """A solution carrying a fitness-neutral extra edit shrinks to one."""
    src = """fn f(x: int) -> int {
    let unused = 0;
    if (x > 1) {
        return 1;
    }
    return 0;
}
"""
    project = parse_project([("main.mini", src)])
    suite = [
        TestCase("one", "f", (1,), expect=1),
        TestCase("zero", "f", (0,), expect=0),
        TestCase("five", "f", (5,), expect=1),
    ]
    config = config_from_preset("jmutrepair", step_budget=10_000)
    session = RepairSession(project, suite, config)

    fix_point = next(p for p in session.points
                     if print_tree(session.project.node(p.node_id)) == "x > 1")
    fix = session.create_transformation(fix_point, by_name(session.space, "relational-to->="))
    assert fix is not None

    # the second edit removes the unused declaration: fitness-neutral
    from minirepair.engine import ModificationPoint, Transformation
    from minirepair.operators import RemoveStatement

    decl = next(n for n in session.project.nodes.values()
                if n.kind == "var-decl" and n.name == "unused")
    neutral = Transformation(
        ModificationPoint(decl.node_id, "statement", 0.0, {}), RemoveStatement(), None
    )

    def revalidate(ts):
        materialized = session.materialize(ts)
        if materialized is None:
            return -1
        return fitness(validate_variant(materialized, session.baseline,
                                        10_000, short_circuit=False))

    assert revalidate([fix, neutral]) == 0
    kept = minimize_transformations([fix, neutral], revalidate)
    assert kept == [fix]
    # minimization soundness: dropping the survivor breaks the suite
    assert revalidate([]) != 0


def test_single_transformation_solution_unchanged():
    calls = {"n": 0}

    def revalidate(ts):
        calls["n"] += 1
        return 0

    kept = minimize_transformations(["only"], revalidate)
    assert kept == ["only"]
    assert calls["n"] == 0  # nothing to try below one transformation


def test_patches_ordered_chronologically():
    project, suite, meta = load_bug("neg-guard")
    config = config_from_preset("jmutrepair", max_solutions=10, max_iterations=1000,
                                step_budget=meta["step_budget"])
    outcome = navigate(project, suite, config)
    assert len(outcome.patches) >= 2
    orders = [p.discovery_order for p in outcome.patches]
    iterations = [p.discovery_iteration for p in outcome.patches]
    assert orders == sorted(orders) == list(range(len(orders)))
    assert iterations == sorted(iterations)


def test_patch_roundtrip_and_revalidation():
    project, suite, meta = load_bug("bound-check")
    config = config_from_preset("jmutrepair", max_solutions=3, max_iterations=1000,
                                step_budget=meta["step_budget"])
    outcome = navigate(project, suite, config)
    assert outcome.patches
    baseline_sources = print_sources(project)
    for patch in outcome.patches:
        patched = apply_unified_diff(patch.diff_text, baseline_sources)
        assert patched == patch.sources
        reparsed = parse_project(sorted(patched.items()))
        matrix = run_suite(reparsed, suite, meta["step_budget"])
        assert matrix.total_failing == 0


def test_report_dict_shape():
    project, suite, meta = load_bug("abs-sign")
    config = config_from_preset("jmutrepair", step_budget=meta["step_budget"])
    outcome = navigate(project, suite, config)
    report = outcome.report_dict()
    assert set(report) == {"config", "seed", "patches", "stats"}
    assert report["seed"] == config.seed
    assert report["config"]["mode"] == "jmutrepair"
    patch = report["patches"][0]
    assert set(patch) == {"order", "iteration", "files", "transformations"}
    assert patch["files"][0]["path"] == "main.mini"
    assert patch["transformations"][0]["operator"].startswith("relational-to-")


DEEP_SOURCE = """
fn depth(n: int) -> int {
    if (n < 1) {
        return 0;
    }
    return depth(n - 1) + 1;
}

fn bump(x: int) -> int {
    x = x - 1;
    return x + 1;
}
"""


def test_jobs_never_changes_deep_recursion_results():
    """Tests run in the caller's thread whatever `jobs` says.  A worker
    thread starts from a fresh Python stack, so a MiniLang recursion 100
    to 200 calls deep would overflow at another depth there: different
    verdicts and step counts."""
    suite = [TestCase(f"bump{x}", "bump", (x,), expect=x + 1) for x in (1, 5)]
    suite += [TestCase(f"depth{n}", "depth", (n,), expect=n) for n in range(100, 201, 5)]
    reports = []
    for jobs in (1, 3):
        project = parse_project([("main.mini", DEEP_SOURCE)])
        config = config_from_preset("jkali", jobs=jobs, step_budget=100_000)
        report = navigate(project, suite, config).report_dict()
        assert report["config"].pop("jobs") == jobs
        reports.append(report)
    assert reports[0] == reports[1]
