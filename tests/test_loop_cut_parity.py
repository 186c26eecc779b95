"""The loop cut against the step loop.

A `while` loop whose head state repeats can never end, so the interpreter
stops it at once with the trace the step loop would give: `timeout`, steps
equal to the budget and the same covered set.  The oracle here is the same
interpreter with the cut switched off: its iteration threshold is patched
so high that no loop ever reaches it.  Every comparison is of the whole
`ExecutionTrace` (covered, outcome, steps).
"""

import string
import sys

import pytest
from hypothesis import given, settings, strategies as st

from minirepair import faultloc
from minirepair.engine import navigate
from minirepair.lang import execute, parse_project
from minirepair.lang import interp
from minirepair.presets import config_from_preset

from conftest import corpus_bug_names, load_bug, nested

NEVER = sys.maxsize


def traces(project, entry, args, budget):
    """(trace with the cut, trace of the step loop) for one execution."""
    cut = execute(project, entry, list(args), budget)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(interp, "_CUT_AFTER_ITERATIONS", NEVER)
        full = execute(project, entry, list(args), budget)
    return cut, full


def check(source, entry, args, budget=5_000):
    cut, full = traces(parse_project([("main.mini", source)]), entry, args, budget)
    assert cut == full
    return cut


def steps_taken(source, entry, args, budget):
    """Steps the interpreter really evaluates (not the charged count)."""
    taken = [0]
    step = interp._Run.step

    def counting(self, node):
        taken[0] += 1
        step(self, node)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(interp._Run, "step", counting)
        execute(parse_project([("main.mini", source)]), entry, args, budget)
    return taken[0]


# -- the corpus -----------------------------------------------------------------


@pytest.mark.parametrize("name", corpus_bug_names())
def test_corpus_suites_match_the_step_loop(name):
    project, suite, meta = load_bug(name)
    for test in suite:
        cut, full = traces(project, test.entry, test.args, meta["step_budget"])
        assert cut == full, test.name


@pytest.mark.parametrize("preset", ["jgenprog", "jkali", "tibra"])
def test_validated_variants_match_the_step_loop(preset, monkeypatch):
    """Every test run of every variant the preset validates, seeds 1-3."""
    execute_with_cut = faultloc.execute
    runs, mismatches = [], []

    def both(project, entry, args, step_budget):
        cut = execute_with_cut(project, entry, args, step_budget)
        with monkeypatch.context() as m:
            m.setattr(interp, "_CUT_AFTER_ITERATIONS", NEVER)
            full = execute_with_cut(project, entry, args, step_budget)
        runs.append(cut.outcome.status)
        if cut != full:
            mismatches.append((entry, args, cut, full))
        return cut

    monkeypatch.setattr(faultloc, "execute", both)
    for name in corpus_bug_names():
        project, suite, meta = load_bug(name)
        for seed in (1, 2, 3):
            config = config_from_preset(preset, seed=seed)
            config.step_budget = meta["step_budget"]
            navigate(project, suite, config)
    assert not mismatches[:3]
    assert runs.count("timeout") > 0


# -- hand cases -------------------------------------------------------------------


def test_stuck_loop_stops_early():
    source = """
    fn sum(a: [int]) -> int {
        let s = 0;
        let i = 0;
        while (i < len(a) - 1) {
            s = s + a[i];
        }
        return s;
    }
    """
    trace = check(source, "sum", [[1, 2, 3]], budget=100_000)
    assert trace.outcome.status == "timeout" and trace.steps == 100_000
    assert steps_taken(source, "sum", [[1, 2, 3]], 100_000) < 500


def test_terminating_loops_run_to_the_end():
    source = """
    fn count(n: int) -> int {
        let i = 0;
        let k = 0;
        while (i < n) {
            i = i + 1;
            k = (k + 1) % 3;
        }
        return i + k;
    }
    """
    trace = check(source, "count", [500], budget=100_000)
    assert trace.outcome.value == 500 + 500 % 3


ALIAS_TO_SEPARATE = """
fn f(c: int) -> int {
    let a = [0];
    let b = a;
    while (true) {
        b[0] = 1;
        if (a[0] == 0) {
            return c;
        }
        a[0] = 0;
        if (c == 0) {
            b = [0];
        }
        if (c > 0) {
            c = c - 1;
        }
    }
}
"""

SEPARATE_TO_ALIAS = """
fn f(c: int) -> int {
    let a = [0];
    let b = [0];
    while (true) {
        b[0] = 1;
        if (a[0] == 1) {
            return c;
        }
        b[0] = 0;
        if (c == 0) {
            b = a;
        }
        if (c > 0) {
            c = c - 1;
        }
    }
}
"""


@pytest.mark.parametrize(
    "source", [ALIAS_TO_SEPARATE, SEPARATE_TO_ALIAS], ids=["alias-to-separate", "separate-to-alias"]
)
def test_aliased_and_equal_separate_arrays_differ(source):
    """At the head, `a` and `b` hold one array until `c` reaches 0, then two
    equal ones (or the other way round), and the loop returns one iteration
    later.  Starting `c` at every count puts the last two heads at every
    offset of the saved snapshot."""
    for c in range(40):
        trace = check(source, "f", [c])
        assert trace.outcome.is_normal and trace.outcome.value == 0


def test_callee_writes_into_array_argument():
    source = """
    fn bump(x: [int], m: int) {
        x[0] = (x[0] + 1) % m;
        if (x[1] == 1) {
            let q = 1 / x[0];
        }
    }
    fn f(m: int, stop: int) -> int {
        let a = [0, 0];
        let n = 0;
        while (n < 1) {
            bump(a, m);
            if (a[0] == stop) {
                a[1] = 1;
            }
        }
        return 1;
    }
    """
    # a[0] counts modulo m forever; once a[1] is set, a[0] = 0 divides by 0
    trace = check(source, "f", [7, 99])
    assert trace.outcome.status == "timeout"
    trace = check(source, "f", [30, 20])
    assert trace.outcome.error_kind == "div-by-zero"


def test_callee_argument_decides_an_error():
    source = """
    fn probe(n: int) -> int {
        return 1 / (n - 40);
    }
    fn f() -> int {
        let k = 0;
        while (true) {
            probe(k);
            k = k + 1;
        }
    }
    """
    assert check(source, "f", []).outcome.error_kind == "div-by-zero"


def test_element_assignment_value_decides_a_branch():
    source = """
    fn f() -> int {
        let a = [0];
        let k = 0;
        while (true) {
            a[0] = k;
            k = k + 1;
            if (a[0] > 40) {
                return k;
            }
            a[0] = 0;
        }
    }
    """
    assert check(source, "f", []).outcome.value == 42


@pytest.mark.parametrize("limit", [20, -1])
def test_growing_string_accumulator(limit):
    source = """
    fn f(limit: int) -> int {
        let s = "";
        let t = "";
        let i = 0;
        while (i < 3) {
            s = s + "ab";
            if (len(t) < limit) {
                t = t + "c";
            }
            if (len(t) == 20) {
                i = i + 1;
            }
        }
        return len(s);
    }
    """
    trace = check(source, "f", [limit])
    if limit == 20:
        assert trace.outcome.is_normal
    else:
        # `s` grows without end, but only `t` and `i` decide the loop
        assert trace.outcome.status == "timeout"
        assert steps_taken(source, "f", [limit], 5_000) < 1_000


@pytest.mark.parametrize("stuck", [-1, 0, 3, 20])
def test_nested_loops(stuck):
    """The inner loop is stuck in outer iteration `stuck` (-1: never)."""
    source = """
    fn f(stuck: int) -> int {
        let i = 0;
        let total = 0;
        while (i < 12) {
            let j = 0;
            while (j < 15) {
                total = total + j;
                if (i != stuck) {
                    j = j + 1;
                }
            }
            i = i + 1;
        }
        return total;
    }
    """
    trace = check(source, "f", [stuck], budget=20_000)
    assert trace.outcome.status == ("timeout" if 0 <= stuck < 12 else "normal")


@pytest.mark.parametrize("n", [0, 3, 20])
def test_outer_loop_stuck_around_a_terminating_inner_loop(n):
    source = """
    fn f(n: int) -> int {
        let i = 0;
        let hits = 0;
        while (i < 5) {
            let j = 0;
            while (j < n) {
                j = j + 1;
            }
            hits = hits + j;
        }
        return hits;
    }
    """
    assert check(source, "f", [n], budget=20_000).outcome.status == "timeout"


def test_loop_head_sees_unbound_names():
    source = """
    fn f(n: int) -> int {
        let i = 0;
        while (i < n) {
            let d = n - i;
            i = i + d - d;
        }
        return i;
    }
    """
    assert check(source, "f", [3]).outcome.status == "timeout"
    assert check(source, "f", [0]).outcome.is_normal


SPIN = """
fn spin(n: int, stuck: bool) -> int {
    if (n > 0) {
        return spin(n - 1, stuck) + 1;
    }
    let i = 0;
    while (i < 30) {
        if (!stuck) {
            i = i + 1;
        }
    }
    return i;
}
"""


@pytest.mark.parametrize("extra_frames", [0, 600])
def test_long_loop_near_the_recursion_limit(extra_frames):
    """The loop runs at every depth up to past the point where Python's
    RecursionError ends the recursion; near it, the check itself has no
    stack and is skipped, and the step loop gives the verdict."""
    project = parse_project([("main.mini", SPIN)])

    def sweep():
        return [
            traces(project, "spin", [n, stuck], 3_000)
            for n in range(0, 160)
            for stuck in (True, False)
        ]

    results = nested(extra_frames, sweep)
    for cut, full in results:
        assert cut == full
    statuses = {cut.outcome.status for cut, _ in results}
    assert {"timeout", "normal", "error"} <= statuses


# -- generated loop programs ------------------------------------------------------

HELPERS = """
fn bump(x: [int], m: int) {
    x[0] = (x[0] + 1) % m;
}
fn probe(n: int) -> int {
    return 12 / (n - 5);
}
"""

INT_VARS = ("i", "j", "k")
SMALL = st.integers(0, 4)


@st.composite
def int_expr(draw):
    v = draw(st.sampled_from(INT_VARS))
    form = draw(st.integers(0, 5))
    if form == 0:
        return v
    if form == 1:
        return f"({v} + {draw(SMALL)}) % {draw(st.integers(1, 5))}"
    if form == 2:
        return f"{v} + {draw(st.integers(-2, 2))}"
    if form == 3:
        return f"c[{draw(st.integers(0, 2))}]"
    if form == 4:
        return f"a[{v} % 4]"
    return f"len(s) % {draw(st.integers(1, 4))}"


@st.composite
def condition(draw):
    form = draw(st.integers(0, 5))
    if form == 0:
        return "flag"
    if form == 1:
        op = draw(st.sampled_from(["<", "<=", "==", "!=", ">"]))
        return f"{draw(int_expr())} {op} {draw(st.integers(-1, 6))}"
    if form == 2:
        return f"a[{draw(st.integers(0, 2))}] == c[{draw(st.integers(0, 2))}]"
    if form == 3:
        return f"flag && {draw(int_expr())} < {draw(SMALL)}"
    if form == 4:
        return f"!flag || {draw(int_expr())} != {draw(SMALL)}"
    return "true"


@st.composite
def statements(draw, depth):
    form = draw(st.integers(0, 13 if depth > 0 else 10))
    v = draw(st.sampled_from(INT_VARS))
    if form == 0:
        return f"{v} = {draw(int_expr())};"
    if form == 1:
        return f"{v} = ({v} + {draw(st.integers(1, 3))}) % {draw(st.integers(1, 6))};"
    if form == 2:
        return "flag = !flag;"
    if form == 3:
        return f"total = total + {draw(int_expr())};"
    if form == 4:
        return f's = s + "{draw(st.sampled_from(string.ascii_lowercase))}";'
    if form == 5:
        return f"{draw(st.sampled_from(['a', 'c']))}[{v} % 3] = {draw(int_expr())} % 4;"
    if form == 6:
        return draw(st.sampled_from(["c = a;", "c = [0, 1, 2];", "a = c;", "a = [0, 0, 0];"]))
    if form == 7:
        return f"bump({draw(st.sampled_from(['a', 'c']))}, {draw(st.integers(1, 4))});"
    if form == 8:
        return f"total = total + probe({draw(int_expr())});"
    if form == 9:
        return f"if ({draw(condition())}) {{ return total; }}"
    if form == 10:
        return f"let d = {draw(int_expr())}; {v} = d;"
    body = " ".join(draw(st.lists(statements(depth - 1), min_size=1, max_size=3)))
    if form in (11, 12):
        other = " ".join(draw(st.lists(statements(depth - 1), max_size=2)))
        return f"if ({draw(condition())}) {{ {body} }} else {{ {other} }}"
    counter = draw(st.sampled_from(["j", "k"]))
    return (f"{counter} = 0; while ({counter} < {draw(st.integers(0, 12))}) "
            f"{{ {body} {counter} = {counter} + {draw(st.integers(0, 1))}; }}")


@st.composite
def loop_programs(draw):
    body = "\n        ".join(draw(st.lists(statements(2), min_size=1, max_size=6)))
    return HELPERS + f"""
fn f(i: int, j: int, k: int, flag: bool, a: [int]) -> int {{
    let c = [0, 1, 2];
    let s = "";
    let total = 0;
    while ({draw(condition())}) {{
        {body}
    }}
    return total;
}}
"""


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    source=loop_programs(),
    args=st.tuples(SMALL, SMALL, SMALL, st.booleans(), st.lists(SMALL, min_size=3, max_size=3)),
)
def test_generated_loops_match_the_step_loop(source, args):
    check(source, "f", list(args), budget=3_000)
