"""The loop cuts against the step loop.

A `while` loop whose head state repeats, or a counting loop whose guard
provably holds until the step budget runs out, would run into the budget,
so the interpreter stops it at once with the trace the step loop would
give: `timeout`, steps equal to the budget and the same covered set.  The
oracle here is the same interpreter with both cuts switched off: their
iteration threshold is patched so high that no loop ever reaches it.
Every comparison is of the whole `ExecutionTrace` (covered, outcome,
steps).
"""

import string
import sys

import pytest
from hypothesis import given, settings, strategies as st

from minirepair import faultloc
from minirepair.engine import navigate
from minirepair.lang import execute, parse_project
from minirepair.lang import interp
from minirepair.presets import PRESET_NAMES, config_from_preset

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

    def counting(self):
        taken[0] += 1
        step(self)

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


def proofs(monkeypatch) -> list:
    """Spy on the counting-loop proof: the list gains one entry per proof
    that cut a loop."""
    fired = []
    outlasts = interp._outlasts

    def spy(counting, scopes, remaining):
        holds = outlasts(counting, scopes, remaining)
        if holds:
            fired.append(counting)
        return holds

    monkeypatch.setattr(interp, "_outlasts", spy)
    return fired


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_validated_variants_match_the_step_loop(preset, monkeypatch):
    """Every test run of every variant the preset validates, seeds 1-3;
    the counting-loop proof cuts some of them for every preset."""
    execute_with_cut = faultloc.execute
    runs, mismatches = [], []
    fired = proofs(monkeypatch)

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
    assert fired


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


# -- counting loops ----------------------------------------------------------------

MIN64, MAX64 = -(1 << 63), (1 << 63) - 1
PROBE = """
fn probe(n: int) -> int {
    return 12 / (n - 40);
}
"""

# one case per guard shape that runs away in repair variants of the corpus
RUNAWAY = [
    pytest.param("s <= s", "s = s * 2 + 1;", [1, 0, 0], id="same-variable"),
    pytest.param("i >= n", "i = i + 1;", [5, 3, 0], id="i>=n"),
    pytest.param("n <= i", "i = i + k;", [0, 0, 2], id="n<=i"),
    pytest.param("s <= i", "i = i + 1; t = t + i * 2;", [3, 0, 3], id="s<=i"),
    pytest.param("i < lots", "i = i - lots;", [0, 0, 1_000_000], id="i<lots"),
    pytest.param("i != n", "i = i + 1;", [20, 10, 0], id="i!=n-away"),
    pytest.param("i != n", "i = 2 + i;", [1, 10, 0], id="i!=n-parity"),
    pytest.param("c < i", "c = c + 1; i = i + 2;", [4, 0, 1], id="two-counters"),
    pytest.param("n <= 1", "n = n - 1;", [0, 1, 0], id="n<=1"),
    pytest.param("i < len(a)", "i = i - 1;", [0, 0, 0], id="len"),
    pytest.param("i == n", "t = -t + k;", [7, 7, 3], id="equal"),
]


def counting_source(guard: str, body: str) -> str:
    return PROBE + f"""
fn f(i: int, n: int, k: int, a: [int], b: bool, x: float) -> int {{
    let s = i;
    let t = 1;
    let c = n;
    let lots = k;
    let y = "";
    let z = "ab";
    while ({guard}) {{
        {body}
    }}
    return i + t;
}}
"""


def counting_args(ints, a=(1, 2, 3)):
    """Arguments i, n, k, a, b = true, x = 0.5 of `counting_source`."""
    return [*ints, list(a), True, 0.5]


@pytest.mark.parametrize("guard,body,ints", RUNAWAY)
def test_runaway_counters_stop_at_the_loop_head(guard, body, ints, monkeypatch):
    fired = proofs(monkeypatch)
    source = counting_source(guard, body)
    args = counting_args(ints)
    trace = check(source, "f", args, budget=100_000)
    assert trace.outcome.status == "timeout" and trace.steps == 100_000
    assert len(fired) == 1
    assert steps_taken(source, "f", args, 100_000) < 300


# loops the proof must not cut: each ends within the budget, or runs away
# in a shape the proof does not take ("timeout")
NEAR_MISSES = [
    pytest.param("i >= n", "i = i + 1;", [MAX64 - 40, 0, 0], "normal", id="wraps-up"),
    pytest.param("n >= i", "i = i - 1;", [MIN64 + 40, 0, 0], "normal", id="wraps-down"),
    pytest.param("i >= n", "i = i + k;", [0, 0, MAX64 // 30], "normal", id="wraps-by-variable"),
    pytest.param("i < n", "i = i + 1;", [0, 100, 0], "normal", id="reaches-bound"),
    pytest.param("n <= i", "i = i - k;", [500, 0, 7], "normal", id="reaches-bound-down"),
    pytest.param("i != n", "i = i + 3;", [0, 60, 0], "normal", id="!=-reaches-bound"),
    pytest.param("n != i", "i = i - k;", [90, 0, 2], "normal", id="!=-reaches-bound-down"),
    pytest.param("i < n", "i = i - 1; i = i + 2;", [0, 30, 0], "normal", id="assigned-twice"),
    pytest.param("i < n", "i = i + 2; i = i - 1;", [0, 30, 0], "normal", id="assigned-twice-rev"),
    pytest.param("i <= n", "i = i * 2;", [-1, -1, 0], "normal", id="multiplied"),
    pytest.param("i < n", "i = i + x;", [0, 10, 0], "normal", id="float-counter"),
    pytest.param("i >= n", "i = i + x;", [0, 0, 0], "timeout", id="float-runaway"),
    pytest.param("i >= n", "t = b; i = i + 1;", [0, 0, 0], "timeout", id="bool-copy"),
    pytest.param("i >= n", "i = i + 1; t = 100 / (i - 40);", [0, 0, 0], "error", id="division"),
    pytest.param("i >= n", "i = i + 1; t = probe(i);", [0, 0, 0], "error", id="call"),
    pytest.param("i >= n", "i = i + 1; t = a[i];", [0, 0, 0], "error", id="index"),
    pytest.param("i >= n", "i = i + 1; let d = 100 / (i - 40);", [0, 0, 0], "error", id="let"),
    pytest.param("i > len(y)", "y = y + z; i = i + 1;", [100, 0, 0], "normal", id="len-of-assigned"),
]


@pytest.mark.parametrize("guard,body,ints,status", NEAR_MISSES)
def test_near_misses_are_not_cut(guard, body, ints, status, monkeypatch):
    fired = proofs(monkeypatch)
    trace = check(counting_source(guard, body), "f", counting_args(ints, a=range(30)))
    assert trace.outcome.status == status
    assert not fired


def test_the_proof_takes_no_bool(monkeypatch):
    """Checked at the first head, `s` already holds a bool, and the next
    guard evaluation is a type error."""
    monkeypatch.setattr(interp, "_CUT_AFTER_ITERATIONS", 0)
    source = counting_source("s <= s", "s = b;")
    trace = check(source, "f", counting_args([0, 0, 0]))
    assert trace.outcome.error_kind == "type-error"


GUARD_OPERANDS = ("i", "j", "n", "0", "3", "len(a)")
INCREMENTS = ("1", "1", "2", "n", "4611686018427387904")
EXTRA_STATEMENTS = (
    "t = t + i * 2;", "t = -t - j;", "i = i - 3;", "j = j + 3;", "t = i / 3;",
    "t = a[0];", "let d = 1;", "t = b;", "t = x;", "i = i * 2;",
)
NEAR_EDGES = st.builds(
    lambda centre, offset: min(max(centre + offset, MIN64), MAX64),
    st.sampled_from([0, MAX64, MIN64]),
    st.integers(-80, 80),
)


@st.composite
def counting_loops(draw):
    """Loops shaped like runaway counters: a counter on one side of the
    guard, counters stepping either way by small or huge amounts, and at
    times one statement that takes the loop out of the proof's shape."""
    sides = draw(st.permutations([draw(st.sampled_from(["i", "j"])),
                                  draw(st.sampled_from(GUARD_OPERANDS))]))
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    body = []
    for counter in ("i", "j"):
        increment = draw(st.sampled_from(INCREMENTS))
        form = draw(st.sampled_from([0, 1, 2, 3, 3]))
        if form == 1:
            body.append(f"{counter} = {counter} + {increment};")
        elif form == 2:
            body.append(f"{counter} = {increment} + {counter};")
        elif form == 3:
            body.append(f"{counter} = {counter} - {increment};")
    if draw(st.integers(0, 3)) == 0:
        body.append(draw(st.sampled_from(EXTRA_STATEMENTS)))
    body = draw(st.permutations(body)) or ["t = t + 1;"]
    return PROBE + f"""
fn f(i: int, j: int, n: int, a: [int], b: bool, x: float) -> int {{
    let t = 0;
    while ({sides[0]} {op} {sides[1]}) {{
        {" ".join(body)}
    }}
    return t;
}}
"""


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(
    source=counting_loops(),
    ints=st.tuples(NEAR_EDGES, NEAR_EDGES, NEAR_EDGES),
    length=st.integers(0, 3),
    budget=st.integers(100, 3_000),
)
def test_generated_counting_loops_match_the_step_loop(source, ints, length, budget):
    check(source, "f", [*ints, [0] * length, True, 0.5], budget=budget)
