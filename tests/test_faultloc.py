"""Spectrum construction and suspiciousness formulas."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from minirepair.faultloc import (
    NoFailingTests,
    SpectrumMatrix,
    SuiteError,
    TestCase,
    filter_suspicious,
    load_suite,
    ochiai,
    run_suite,
    suite_from_json,
    suspiciousness,
    tarantula,
    values_equal,
)
from minirepair.lang import UNIT, ExecutionTrace, Outcome, execute, parse_project
from minirepair.lang.ast import MiniSyntaxError
from minirepair.lang.parser import MAX_NESTING

from conftest import load_bug


def make_matrix(rows):
    """rows: list of (covered ids, passed) — build a matrix directly."""
    from minirepair.faultloc import TestResult

    results = [
        TestResult(TestCase(f"t{i}", "f", ()), passed,
                   ExecutionTrace(frozenset(cov), Outcome("normal"), 0))
        for i, (cov, passed) in enumerate(rows)
    ]
    return SpectrumMatrix.from_results(results)


def test_all_passing_matrix():
    src = "fn f(x: int) -> int { return x; }"
    project = parse_project([("main.mini", src)])
    suite = [TestCase(f"t{i}", "f", (i,), expect=i) for i in range(3)]
    matrix = run_suite(project, suite, 1000)
    assert matrix.total_failing == 0 and matrix.total_passing == 3


def test_counter_definitions():
    matrix = make_matrix([({4, 7}, False), ({4}, True)])
    assert matrix.counters(4) == (1, 1, 0, 0)
    assert matrix.counters(7) == (1, 0, 0, 1)
    locs = {l.statement_id: l.suspiciousness for l in suspiciousness(matrix)}
    assert locs[7] == 1.0
    assert locs[4] == pytest.approx(1 / math.sqrt(2))


def test_duplicate_test_names_rejected():
    src = "fn f() -> int { return 1; }"
    project = parse_project([("main.mini", src)])
    suite = [TestCase("t", "f", (), expect=1), TestCase("t", "f", (), expect=2)]
    with pytest.raises(SuiteError):
        run_suite(project, suite, 1000)


def test_crashing_test_is_a_fail_verdict():
    src = "fn f(x: int) -> int { return 1 / x; }"
    project = parse_project([("main.mini", src)])
    matrix = run_suite(project, [TestCase("t", "f", (0,), expect=1)], 1000)
    assert matrix.total_failing == 1


def test_expected_error_verdict():
    src = "fn f(x: int) -> int { return 1 / x; }"
    project = parse_project([("main.mini", src)])
    matrix = run_suite(
        project, [TestCase("t", "f", (0,), expect_error="div-by-zero")], 1000
    )
    assert matrix.total_failing == 0


def test_ochiai_derived_value():
    # ef=2, nf=0, ep=1 -> 2 / sqrt(2 * 3)
    assert ochiai(2, 1, 0, 5) == pytest.approx(2 / math.sqrt(6))
    assert ochiai(2, 1, 0, 5) == pytest.approx(0.8164965809)


def test_only_failing_coverage_maximizes_both():
    assert ochiai(3, 0, 0, 4) == 1.0
    assert tarantula(3, 0, 0, 4) == 1.0


def test_tarantula_zero_numerator():
    assert tarantula(0, 2, 3, 1) == 0.0


def test_no_passing_tests_edge():
    assert tarantula(1, 0, 1, 0) == 1.0


def test_ranking_sorted_with_node_id_ties():
    matrix = make_matrix([({1, 2, 9}, False), ({9}, True)])
    locs = suspiciousness(matrix)
    assert [l.statement_id for l in locs] == [1, 2, 9]
    assert locs[0].suspiciousness == locs[1].suspiciousness == 1.0


def test_no_failing_tests_raises():
    matrix = make_matrix([({1}, True)])
    with pytest.raises(NoFailingTests):
        suspiciousness(matrix)


def test_filter_drops_zero_and_caps():
    matrix = make_matrix([({1, 2}, False), ({3}, True)])
    locs = suspiciousness(matrix)
    kept = filter_suspicious(locs, max_suspicious=1)
    assert len(kept) == 1 and kept[0].statement_id == 1
    assert all(l.suspiciousness > 0 for l in filter_suspicious(locs))


counters = st.tuples(
    st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)
)


@settings(max_examples=300, deadline=None)
@given(c=counters)
def test_formulas_stay_in_unit_range(c):
    ef, ep, nf, np = c
    if ef + nf == 0:
        return  # at least one failing test is required
    for fn in (ochiai, tarantula):
        value = fn(ef, ep, nf, np)
        assert 0.0 <= value <= 1.0


@settings(max_examples=200, deadline=None)
@given(ef=st.integers(1, 30), delta=st.integers(1, 10),
       ep=st.integers(0, 30), nf=st.integers(0, 30), np=st.integers(0, 30))
def test_ochiai_monotone_in_ef(ef, delta, ep, nf, np):
    assert ochiai(ef + delta, ep, nf, np) >= ochiai(ef, ep, nf, np) - 1e-15


def test_abs_sign_matrix_matches_hand_built():
    """Spectrum for corpus/abs-sign equals an independently built matrix."""
    project, suite, meta = load_bug("abs-sign")
    matrix = run_suite(project, suite, meta["step_budget"])

    # independent reconstruction straight from interpreter traces
    expected_ef, expected_ep = {}, {}
    failing = passing = 0
    for test in suite:
        trace = execute(project, test.entry, list(test.args), meta["step_budget"])
        passed = trace.outcome.is_normal and values_equal(trace.outcome.value, test.expect)
        if passed:
            passing += 1
        else:
            failing += 1
        bucket = expected_ep if passed else expected_ef
        for sid in trace.covered:
            bucket[sid] = bucket.get(sid, 0) + 1

    assert failing == 1  # only sign(1) fails
    assert matrix.total_failing == failing and matrix.total_passing == passing
    assert matrix.ef == expected_ef and matrix.ep == expected_ep

    # hand-built expectation: the failing run covers {body, if1, if2,
    # return 0}; `return 0;` is shared with one passing test, the buggy
    # if with two, the body with all three, and the branch returns with
    # none of the failing runs.
    fn = project.functions["sign"][1]
    body = fn.children[0]
    if1, if2, ret0 = body.children
    locs = {l.statement_id: l.suspiciousness for l in suspiciousness(matrix)}
    assert locs[ret0.node_id] == pytest.approx(1 / math.sqrt(2))
    assert locs[if2.node_id] == pytest.approx(1 / math.sqrt(3))
    assert locs[body.node_id] == pytest.approx(0.5)
    assert locs[if1.node_id] == pytest.approx(0.5)
    assert locs[if1.children[1].children[0].node_id] == 0.0  # return -1;
    assert locs[if2.children[1].children[0].node_id] == 0.0  # return 1;
    ranked = suspiciousness(matrix)
    assert ranked[0].statement_id == ret0.node_id


def test_suite_json_schema():
    suite = suite_from_json(
        [{"name": "a", "entry": "f", "args": [1, [2.5]], "expect": None}]
    )
    assert suite[0].args == (1, [2.5])
    assert suite[0].expect is UNIT

    for bad in [
        {"name": "a", "entry": "f", "args": []},
        {"name": "a", "entry": "f", "args": [], "expect": 1, "expect_error": "x"},
        {"name": "a", "entry": "f", "args": [], "expect_error": "nope"},
        {"name": "a", "entry": "f", "args": [None], "expect": 1},
        {"name": "a", "entry": "f", "args": [], "expect": 1, "extra": 2},
        {"name": 3, "entry": "f", "args": [], "expect": 1},
    ]:
        with pytest.raises(SuiteError):
            suite_from_json([bad])


@pytest.mark.parametrize(
    "entry",
    [
        {"name": "a", "entry": "f", "args": [2**63], "expect": 1},
        {"name": "a", "entry": "f", "args": [[1, -2**63 - 1]], "expect": 1},
        {"name": "a", "entry": "f", "args": [], "expect": 10**400},
        {"name": "a", "entry": "f", "args": [], "expect": [[2**63]]},
        {"name": "a", "entry": "f", "args": [], "expect": 10**5000},
    ],
    ids=["arg", "array-arg", "expect", "array-expect", "too-many-digits"],
)
def test_suite_ints_beyond_64_bits_are_rejected(entry):
    with pytest.raises(SuiteError, match="out of the 64-bit range"):
        suite_from_json([entry])


def test_suite_int_of_too_many_digits_is_a_suite_error(tmp_path):
    path = tmp_path / "tests.json"
    path.write_text('[{"name": "a", "entry": "f", "args": [1' + "0" * 5000 + '], "expect": 1}]')
    with pytest.raises(SuiteError, match="invalid JSON"):
        load_suite(path)


def test_suite_ints_at_the_64_bit_bounds_load():
    suite = suite_from_json(
        [{"name": "a", "entry": "f", "args": [-2**63, [2**63 - 1]], "expect": 2**63 - 1}]
    )
    assert suite[0].args == (-2**63, [2**63 - 1])
    assert suite[0].expect == 2**63 - 1


def nested(depth: int):
    value = 1
    for _ in range(depth):
        value = [value]
    return value


def test_an_array_value_nests_as_deep_as_a_parameter_type():
    def source(depth):
        return f"fn f(x: {'[' * depth}int{']' * depth}) -> int {{\n    return 7;\n}}\n"

    project = parse_project([("main.mini", source(MAX_NESTING))])
    suite = suite_from_json([{"name": "a", "entry": "f", "args": [nested(MAX_NESTING)],
                              "expect": 7}])
    assert run_suite(project, suite).results[0].passed
    with pytest.raises(MiniSyntaxError, match="nesting deeper"):
        parse_project([("main.mini", source(MAX_NESTING + 1))])


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 900])
@pytest.mark.parametrize("key", ["args", "expect"])
def test_suite_arrays_nested_deeper_than_a_type_are_rejected(key, depth):
    # 900 levels decode, and once overflowed Python's stack in the loader
    entry = {"name": "a", "entry": "f", "args": [], "expect": 1}
    entry[key] = [nested(depth)] if key == "args" else nested(depth)
    with pytest.raises(SuiteError, match=f"nested deeper than {MAX_NESTING} levels"):
        suite_from_json([entry])


def test_a_suite_file_nested_too_deeply_is_a_suite_error(tmp_path):
    path = tmp_path / "tests.json"
    path.write_text("[" * 100_000)
    with pytest.raises(SuiteError, match="nested too deeply"):
        load_suite(path)


@pytest.mark.parametrize(
    "value",
    [[1, 2.5, "x"], [[1], 2], [1, True], [[1], ["x"]], [[[]], [1]], [[1], [[2]]]],
)
@pytest.mark.parametrize("key", ["args", "expect"])
def test_suite_arrays_of_mixed_element_types_are_rejected(key, value):
    entry = {"name": "a", "entry": "f", "args": [], "expect": 1}
    entry[key] = [value] if key == "args" else value
    with pytest.raises(SuiteError, match="elements differ in type"):
        suite_from_json([entry])


@pytest.mark.parametrize("value", [[], [[], [1]], [[1], []], [[[]], [[1]], []], [[], [[1.5]]]])
def test_an_empty_array_fits_any_array_type(value):
    suite = suite_from_json([{"name": "a", "entry": "f", "args": [value], "expect": value}])
    assert suite[0].args == (value,) and suite[0].expect == value


def test_values_equal_is_type_strict():
    assert values_equal(1, 1)
    assert not values_equal(1, 1.0)
    assert not values_equal(1, True)
    assert not values_equal(True, 1)
    assert values_equal([1, [2]], [1, [2]])
    assert not values_equal([1], [1, 1])
    assert values_equal(UNIT, UNIT)
    assert not values_equal(UNIT, 0)
