"""Interpreter semantics, coverage soundness, and determinism."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from minirepair.lang import UNIT, execute, parse_project, pre_order
from minirepair.lang.interp import MAX_CALL_DEPTH

from conftest import load_bug, nested


def run(source: str, entry: str, args, budget=100_000):
    return execute(parse_project([("main.mini", source)]), entry, args, budget)


def test_constant_fold_by_hand():
    trace = run("fn main() -> int { return 2 + 3; }", "main", [])
    assert trace.outcome.is_normal and trace.outcome.value == 5
    project = parse_project([("main.mini", "fn main() -> int { return 2 + 3; }")])
    return_stmts = [n.node_id for _, fn in project.functions.values()
                    for n in pre_order(fn) if n.kind == "return"]
    trace = execute(project, "main", [], 1000)
    # coverage: the body block and the return statement began evaluating
    body = project.functions["main"][1].children[0]
    assert trace.covered == frozenset({body.node_id, return_stmts[0]})


def test_infinite_loop_times_out():
    trace = run("fn main() { while (true) { } }", "main", [], budget=1000)
    assert trace.outcome.status == "timeout"
    assert trace.steps == 1000


def test_int_literals_reach_both_64_bit_bounds():
    top = run("fn f() -> int { return 9223372036854775807; }", "f", [])
    assert top.outcome.value == 2**63 - 1
    bottom = run("fn f() -> int { return -9223372036854775807 - 1; }", "f", [])
    assert bottom.outcome.value == -2**63


def test_division_by_zero_is_captured():
    trace = run("fn main() -> int { return 1 / 0; }", "main", [])
    assert trace.outcome.status == "error"
    assert trace.outcome.error_kind == "div-by-zero"


def test_float_division_by_zero():
    trace = run("fn main() -> float { return 1.0 / 0.0; }", "main", [])
    assert trace.outcome.error_kind == "div-by-zero"


@pytest.mark.parametrize(
    "expr,expected",
    [
        ("7 / 2", 3),
        ("-7 / 2", -3),
        ("7 % 2", 1),
        ("-7 % 2", -1),
        ("7 % -2", 1),
        ("1 + 2 * 3", 7),
        ("10 - 2 - 3", 5),
        ("1.5 + 1", 2.5),
        ("2 < 3", True),
        ('"ab" + "cd"', "abcd"),
        ('"abc"[1]', "b"),
        ('len("abc")', 3),
        ("len([1, 2, 3])", 3),
        ("[1, 2, 3][2]", 3),
        ("1 == 1.0", True),
        ('"a" < "b"', True),
        ("!(1 < 2)", False),
        ("true && false", False),
        ("true || false", True),
    ],
)
def test_expression_values(expr, expected):
    ret = "float" if isinstance(expected, float) else \
          "bool" if isinstance(expected, bool) else \
          "string" if isinstance(expected, str) else "int"
    trace = run(f"fn main() -> {ret} {{ return {expr}; }}", "main", [])
    assert trace.outcome.is_normal, trace.outcome
    assert trace.outcome.value == expected
    assert type(trace.outcome.value) is type(expected)


def test_short_circuit_skips_crash():
    src = """fn boom() -> bool {
    let x = 1 / 0;
    return true;
}

fn main() -> bool {
    return false && boom();
}
"""
    trace = run(src, "main", [])
    assert trace.outcome.is_normal and trace.outcome.value is False


def test_int64_wraparound():
    trace = run(
        "fn main(x: int) -> int { return x + 1; }", "main", [(1 << 63) - 1]
    )
    assert trace.outcome.value == -(1 << 63)


MIN64, MAX64 = -(1 << 63), (1 << 63) - 1
NEAR_INTS = st.builds(
    lambda centre, offset: min(max(centre + offset, MIN64), MAX64),
    st.sampled_from([0, 1 << 53, -(1 << 53), MAX64, MIN64]),
    st.integers(-4, 4),
)
NEAR_FLOATS = st.one_of(
    NEAR_INTS.map(float),
    st.builds(lambda n, up: math.nextafter(float(n), math.inf if up else -math.inf),
              NEAR_INTS, st.booleans()),
    st.floats(allow_nan=False),
)
TRICHOTOMY = """fn f(a: int, b: float) -> [bool] {
    return [a < b, a == b, a > b, a <= b, a >= b, b < a, b == a, b > a];
}
"""


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=NEAR_INTS, b=NEAR_FLOATS)
@example(a=(1 << 53) + 1, b=float(1 << 53))
def test_int_float_ordering_agrees_with_equality(a, b):
    """Mixed int/float operands are promoted to float by `<` as by `==`, so
    exactly one of `<`, `==` and `>` holds, from either side."""
    trace = run(TRICHOTOMY, "f", [a, b])
    lt, eq, gt, le, ge, rlt, req, rgt = trace.outcome.value
    assert [lt, eq, gt].count(True) == 1
    assert (le, ge) == (lt or eq, gt or eq)
    assert (rlt, req, rgt) == (gt, eq, lt)


def test_arrays_are_references():
    src = """fn fill(xs: [int], v: int) {
    xs[0] = v;
    return;
}

fn main() -> int {
    let xs = [1, 2];
    fill(xs, 9);
    return xs[0];
}
"""
    trace = run(src, "main", [])
    assert trace.outcome.value == 9


def test_index_out_of_bounds():
    trace = run("fn main(a: [int]) -> int { return a[3]; }", "main", [[1]])
    assert trace.outcome.error_kind == "index-out-of-bounds"


def test_missing_return_is_runtime_error():
    trace = run("fn main(x: int) -> int { if (x > 0) { return 1; } }", "main", [0])
    assert trace.outcome.error_kind == "missing-return"


def test_void_function_returns_unit():
    trace = run("fn main() { return; }", "main", [])
    assert trace.outcome.is_normal and trace.outcome.value is UNIT


def test_recursion_depth_capped():
    trace = run("fn f(n: int) -> int { return f(n + 1); }", "f", [0], budget=10_000_000)
    assert trace.outcome.error_kind == "stack-overflow"
    assert MAX_CALL_DEPTH == 200


DEPTH_SRC = """
fn depth(n: int) -> int {
    if (n <= 1) {
        return 1;
    }
    return depth(n - 1) + 1;
}
"""


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="Python's RecursionError ends deep MiniLang recursion before the "
    "documented 200-frame cap, at a depth that depends on the caller's stack",
)
@pytest.mark.parametrize("extra_frames", [0, 600])
def test_call_depth_cap_is_exact_at_any_caller_depth(extra_frames):
    def outcomes():
        return [run(DEPTH_SRC, "depth", [n], budget=10_000_000).outcome for n in (199, 201)]

    below, beyond = nested(extra_frames, outcomes)
    assert below.is_normal and below.value == 199
    assert beyond.error_kind == "stack-overflow"


def test_bad_entry_and_arguments():
    assert run("fn f() -> int { return 1; }", "nope", []).outcome.error_kind == "undefined-function"
    assert run("fn f(x: int) -> int { return x; }", "f", []).outcome.error_kind == "bad-arity"
    assert run("fn f(x: int) -> int { return x; }", "f", [True]).outcome.error_kind == "type-error"


def test_execution_is_deterministic(corpus_names):
    for name in corpus_names[:6]:
        project, suite, meta = load_bug(name)
        for test in suite:
            t1 = execute(project, test.entry, list(test.args), meta["step_budget"])
            t2 = execute(project, test.entry, list(test.args), meta["step_budget"])
            assert t1 == t2


# -- coverage soundness: independent counting interpreter ------------------------


def count_statement_hits(project, entry, args, budget):
    """Second, tiny interpreter that only counts statement-entry events.

    Deliberately written as a separate walker (no sharing with lang.interp
    beyond the AST) so it can serve as an oracle for the covered set."""
    hits = {}
    fuel = [budget]

    class Ret(Exception):
        def __init__(self, v):
            self.value = v

    class Stop(Exception):
        pass

    def spend():
        fuel[0] -= 1
        if fuel[0] < 0:
            raise Stop()

    def ev(node, env):
        spend()
        k = node.kind
        if k == "literal":
            if node.op == "array":
                return [ev(c, env) for c in node.children]
            return node.value
        if k == "var-ref":
            for scope in reversed(env):
                if node.name in scope:
                    return scope[node.name]
            raise Stop()
        if k == "unary-op":
            v = ev(node.children[0], env)
            return (not v) if node.op == "!" else _wrap(-v, v)
        if k == "binary-op":
            if node.op == "&&":
                return ev(node.children[0], env) and ev(node.children[1], env)
            if node.op == "||":
                return ev(node.children[0], env) or ev(node.children[1], env)
            a = ev(node.children[0], env)
            b = ev(node.children[1], env)
            return _binop(node.op, a, b)
        if k == "index":
            base = ev(node.children[0], env)
            i = ev(node.children[1], env)
            if not 0 <= i < len(base):
                raise Stop()
            return base[i]
        if k == "call":
            args_v = [ev(a, env) for a in node.children]
            if node.name == "len":
                return len(args_v[0])
            fn = project.functions[node.name][1]
            return call(fn, args_v)
        raise Stop()

    def _wrap(x, orig):
        if isinstance(orig, int) and not isinstance(orig, bool):
            return ((x + (1 << 63)) % (1 << 64)) - (1 << 63)
        return x

    def _binop(op, a, b):
        import operator as ops

        if op == "/":
            if b == 0:
                raise Stop()
            if isinstance(a, int) and isinstance(b, int):
                q = abs(a) // abs(b)
                return q if (a < 0) == (b < 0) else -q
            return a / b
        if op == "%":
            if b == 0:
                raise Stop()
            q = abs(a) // abs(b)
            q = q if (a < 0) == (b < 0) else -q
            return a - q * b
        table = {"+": ops.add, "-": ops.sub, "*": ops.mul, "<": ops.lt,
                 "<=": ops.le, ">": ops.gt, ">=": ops.ge}
        if op == "==":
            return a == b
        if op == "!=":
            return a != b
        out = table[op](a, b)
        if isinstance(out, int) and not isinstance(out, bool):
            out = ((out + (1 << 63)) % (1 << 64)) - (1 << 63)
        return out

    def st(node, env):
        hits[node.node_id] = hits.get(node.node_id, 0) + 1
        spend()
        k = node.kind
        if k == "block":
            env.append({})
            try:
                for child in node.children:
                    st(child, env)
            finally:
                env.pop()
        elif k == "var-decl":
            env[-1][node.name] = ev(node.children[0], env)
        elif k == "assign":
            target, value = node.children
            v = ev(value, env)
            if target.kind == "var-ref":
                for scope in reversed(env):
                    if target.name in scope:
                        scope[target.name] = v
                        return
                raise Stop()
            base = ev(target.children[0], env)
            i = ev(target.children[1], env)
            if not 0 <= i < len(base):
                raise Stop()
            base[i] = v
        elif k == "expr-stmt":
            ev(node.children[0], env)
        elif k == "return":
            raise Ret(ev(node.children[0], env) if node.children else None)
        elif k == "if":
            if ev(node.children[0], env):
                st(node.children[1], env)
            elif len(node.children) == 3:
                st(node.children[2], env)
        elif k == "while":
            while ev(node.children[0], env):
                st(node.children[1], env)

    def call(fn, args_v):
        env = [dict(zip((n for n, _ in fn.params), args_v))]
        try:
            st(fn.children[0], env)
        except Ret as r:
            return r.value
        raise Stop()

    fn = project.functions[entry][1]
    try:
        call(fn, list(args))
    except Stop:
        pass
    except Ret:
        pass
    return hits


def test_coverage_matches_counting_oracle(corpus_names):
    """A statement id is covered iff the independent counter saw it fire."""
    for name in corpus_names:
        project, suite, meta = load_bug(name)
        for test in suite:
            trace = execute(project, test.entry, list(test.args), meta["step_budget"])
            if trace.outcome.status == "timeout":
                continue  # the two walkers spend fuel differently
            hits = count_statement_hits(project, test.entry, test.args, 10 * meta["step_budget"])
            assert trace.covered == set(hits), (name, test.name)


def test_array_arguments_are_copied_per_execution():
    """A variant that writes into an array parameter must not change the
    test case it runs: the same test gives the same verdict every time."""
    from minirepair.faultloc import TestCase, run_test

    project = parse_project(
        [("main.mini", "fn f(a: [int]) -> int { a[0] = a[0] + 1; return a[0]; }")]
    )
    test = TestCase("bump", "f", ([1],), expect=2)
    assert [run_test(project, test, 1000).passed for _ in range(3)] == [True] * 3
    assert test.args == ([1],)


def test_nested_array_arguments_are_copied():
    source = "fn g(a: [[int]]) -> int { a[0][0] = a[0][0] + 1; return a[0][0]; }"
    args = [[[1], [2]]]
    for _ in range(2):
        trace = run(source, "g", args)
        assert trace.outcome.is_normal and trace.outcome.value == 2
    assert args == [[[1], [2]]]
