"""Tree-walking interpreter with statement coverage tracing.

Every statement and expression evaluation consumes one step from the step
budget, which replaces wall-clock test timeouts: the same program, entry
and arguments produce the same trace on any machine, with one exception:
a deep MiniLang recursion can end in `stack-overflow` before
`MAX_CALL_DEPTH`, where Python's RecursionError fires, and that depth
depends on the caller's stack and on the CPython minor version.  Runtime
errors never escape; they are folded into the trace outcome.

Semantics notes:
  - ints are 64-bit signed with two's-complement wraparound;
  - `/` on ints truncates toward zero and `%` takes the dividend's sign;
  - division by zero (int or float) is the runtime error `div-by-zero`;
  - `&&` and `||` short-circuit;
  - arrays are reference values (the only aliasing in the language);
  - falling off the end of a non-void function is `missing-return`.

A loop that provably runs into the step budget is stopped at its head
with the trace the step loop would give (see `_LoopCut`): one whose head
state repeats, or a counting loop whose guard holds until the budget runs
out.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional

from minirepair.lang.ast import INT64_MAX, INT64_MIN, RELATIONAL_OPS, Node, SourceProject, Type

_WRAP = 1 << 64

MAX_CALL_DEPTH = 200
DEFAULT_STEP_BUDGET = 1_000_000

# every `error_kind` an outcome can carry (docs/tests-schema.md)
ERROR_KINDS = frozenset(
    {"div-by-zero", "index-out-of-bounds", "undefined-variable", "type-error",
     "stack-overflow", "missing-return", "undefined-function", "bad-arity"}
)

# iterations a loop runs before the loop cuts start (see `_LoopCut`)
_CUT_AFTER_ITERATIONS = 8
# operators whose operands decide a step count or a runtime error
_GUARDED_OPS = frozenset({"&&", "||", "/", "%"})
# operators that never fail on ints: they wrap
_LINEAR_OPS = frozenset({"+", "-", "*"})
_ORDERS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class Unit:
    """Value of a void function call; not expressible as a literal."""

    _instance: Optional["Unit"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "unit"


UNIT = Unit()


@dataclass(frozen=True)
class Outcome:
    status: str  # normal | error | timeout
    value: object = None
    error_kind: Optional[str] = None
    error_line: int = 0

    @property
    def is_normal(self) -> bool:
        return self.status == "normal"


@dataclass(frozen=True)
class ExecutionTrace:
    covered: frozenset[int]
    outcome: Outcome
    steps: int


class _Timeout(Exception):
    pass


class _RuntimeFault(Exception):
    def __init__(self, kind: str, node: Node):
        self.kind = kind
        self.node = node


class _Return(Exception):
    def __init__(self, value):
        self.value = value


def _wrap64(x: int) -> int:
    return ((x - INT64_MIN) % _WRAP) + INT64_MIN


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _copy_value(value):
    """Arrays are mutable reference values: each execution gets its own
    copy of every array argument, so a program that writes into one never
    changes the caller's (or a shared test case's) input."""
    if isinstance(value, list):
        return [_copy_value(v) for v in value]
    return value


def _runtime_matches(value, ty: Type) -> bool:
    if ty.base == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if ty.base == "float":
        return isinstance(value, float)
    if ty.base == "bool":
        return isinstance(value, bool)
    if ty.base == "string":
        return isinstance(value, str)
    if ty.base == "array":
        return isinstance(value, list) and all(_runtime_matches(v, ty.elem) for v in value)
    return False


class _Counting(NamedTuple):
    """A loop whose guard compares two linear counters (see `_outlasts`).

    sides: the guard's operands, each (node, sign, increment): the node is
      an int literal, a variable or `len(variable)`; a counter moves by
      sign * increment per iteration (increment: an int literal or a
      variable the loop does not assign), and sign is 0 for a constant;
    names: the names the body reads or assigns;
    period: the steps of one iteration: the guard, the body block, and
      each statement with its value (an assignment's target is not
      evaluated).
    """

    op: str
    sides: tuple[tuple[Node, int, Optional[Node]], ...]
    names: frozenset[str]
    period: int


def _linear(node: Node) -> bool:
    """Whether `node` is a node of straight-line int arithmetic: an int
    literal, a variable, unary `-`, binary `+ - *`, or an assignment to a
    variable."""
    kind = node.kind
    if kind == "literal":
        return type(node.value) is int
    if kind in ("unary-op", "binary-op"):
        return node.op in _LINEAR_OPS
    return kind == "var-ref" or (kind == "assign" and node.children[0].kind == "var-ref")


def _loop_facts(loop: Node) -> tuple[set[str], set[str], set[str], bool, Optional[_Counting]]:
    """Static facts about a `while` loop, from one walk of it:
    (relevant, assigned, used, mutates, counting).

    relevant: the names that can decide a branch, a step count, a callee's
      run or a runtime error (a backward slice, Weiser 1981): the names in
      conditions, in operands of `&&`, `||`, `/` and `%`, in index bases and
      subscripts, in call arguments and on both sides of an element
      assignment, closed under `x = e` and `let x = e` (x relevant makes
      the names of e relevant);
    assigned: names that are assigned or declared in the loop;
    used: names read or assigned in the loop;
    mutates: whether the loop can write into an array (an element
      assignment, or a call of a program function);
    counting: the loop as a counting loop, or None.
    """
    relevant: set[str] = set()
    assigned: set[str] = set()
    flows: list[tuple[str, set[str]]] = []
    mutates = False
    size = 0  # nodes below the loop
    nonlinear = 0  # of those, nodes outside straight-line int arithmetic

    def walk(node: Node) -> set[str]:
        nonlocal mutates, size, nonlinear
        below = [walk(child) for child in node.children]
        names = set().union(*below)
        size += 1
        nonlinear += not _linear(node)
        kind = node.kind
        if kind == "var-ref":
            names.add(node.name)
        elif kind in ("if", "while"):
            relevant.update(below[0])
        elif kind == "index" or (kind == "binary-op" and node.op in _GUARDED_OPS):
            relevant.update(names)
        elif kind == "call":
            relevant.update(names)
            mutates = mutates or node.name != "len"
        elif kind == "assign":
            target = node.children[0]
            if target.kind == "var-ref":
                assigned.add(target.name)
                flows.append((target.name, below[1]))
            else:
                relevant.update(names)
                mutates = True
        elif kind == "var-decl":
            assigned.add(node.name)
            flows.append((node.name, names))
        return names

    guard, body = loop.children
    guard_names = walk(guard)
    body_names = walk(body)
    relevant.update(guard_names)
    grown = True
    while grown:
        grown = False
        for name, sources in flows:
            if name in relevant and not sources <= relevant:
                relevant |= sources
                grown = True
    counting = None
    # a counting loop's only nodes outside straight-line int arithmetic are
    # its body block, its guard comparison and the guard's `len` calls
    if nonlinear == 2 + sum(side.kind == "call" for side in guard.children):
        counting = _counting(loop, assigned, frozenset(body_names), size)
    return relevant, assigned, guard_names | body_names, mutates, counting


def _guard_side(node: Node, body_names: frozenset[str]) -> bool:
    kind = node.kind
    if kind == "call":
        return (
            node.name == "len" and len(node.children) == 1
            and node.children[0].kind == "var-ref" and node.children[0].name not in body_names
        )
    return kind == "var-ref" or (kind == "literal" and type(node.value) is int)


def _counter_step(name: str, body: Node, assigned: set[str]) -> Optional[tuple[int, Node]]:
    """(sign, increment) of the one `x = x + c`, `x = c + x` or `x = x - c`
    that assigns counter `name`, or None."""
    values = [stmt.children[1] for stmt in body.children if stmt.children[0].name == name]
    if len(values) != 1 or values[0].kind != "binary-op" or values[0].op not in ("+", "-"):
        return None
    value = values[0]
    left, right = value.children
    if value.op == "+" and right.kind == "var-ref" and right.name == name:
        left, right = right, left
    if left.kind != "var-ref" or left.name != name:
        return None
    if right.kind == "literal" or (right.kind == "var-ref" and right.name not in assigned):
        return (1 if value.op == "+" else -1, right)
    return None


def _counting(loop: Node, assigned: set[str], body_names: frozenset[str], size: int):
    """The loop as a `_Counting`, or None.  The caller has found that the
    loop's only nodes outside straight-line int arithmetic are its body
    block, its guard and the guard's calls, so the body is a list of
    assignments `x = e` to variables."""
    guard, body = loop.children
    if guard.kind != "binary-op" or guard.op not in RELATIONAL_OPS:
        return None
    left, right = guard.children
    if not (_guard_side(left, body_names) and _guard_side(right, body_names)):
        return None
    same = left.kind == right.kind == "var-ref" and left.name == right.name
    sides = []
    for side in (left, right):
        if side.kind == "var-ref" and side.name in assigned and not same:
            step = _counter_step(side.name, body, assigned)
            if step is None:
                return None
            sides.append((side, *step))
        else:
            sides.append((side, 0, None))
    return _Counting(guard.op, tuple(sides), body_names, size - len(body.children))


def _lookup(scopes: list[dict], name: str):
    for scope in reversed(scopes):
        if name in scope:
            return scope[name]
    return None  # unbound


def _operand(node: Node, scopes: list[dict]):
    """The value of a guard side or an increment at the loop head."""
    if node.kind == "literal":
        return node.value
    if node.kind == "var-ref":
        return _lookup(scopes, node.name)
    container = _lookup(scopes, node.children[0].name)
    return len(container) if type(container) in (list, str) else None


def _outlasts(counting: _Counting, scopes: list[dict], remaining: int) -> bool:
    """Whether the guard of a counting loop holds at every head the run
    reaches within `remaining` steps: a recurrent set (Gupta, Henzinger,
    Majumdar, Rybalchenko & Xu, POPL 2008).

    With every name of the body an int (`bool` is not one), each iteration
    takes `period` steps and raises no error, since int `+ - *` wraps.
    The guard's k-th evaluation from here starts after k * period steps,
    so only k <= last can be reached.  There each side is v + k * d as
    long as no counter wraps: a counter at the head already holds a
    wrapped value, so v + last * d must lie in the 64-bit range too.  The
    difference of the sides is then linear in k, so an ordering that holds
    at k = 0 and at k = last holds at every k between.
    """
    if any(type(_lookup(scopes, name)) is not int for name in counting.names):
        return False
    last = remaining // counting.period
    ends = []
    for side, sign, increment in counting.sides:
        value = _operand(side, scopes)
        if type(value) is not int:
            return False
        step = sign * _operand(increment, scopes) if sign else 0
        if not INT64_MIN <= value + last * step <= INT64_MAX:
            return False
        ends.append((value, step))
    (a, da), (b, db) = ends
    start, slope = a - b, da - db
    if counting.op == "==":
        return start == 0 and (slope == 0 or last == 0)
    if counting.op == "!=":
        if slope == 0:
            return start != 0
        # no whole k in [0, last] with start + k * slope == 0
        return start % slope != 0 or not 0 <= -start // slope <= last
    holds = _ORDERS[counting.op]
    return holds(start, 0) and holds(start + last * slope, 0)


def _encode(value, seen: dict):
    """Type-tagged deep encoding of a value.  An array met before in the
    same snapshot is encoded as its first-visit number, so two names that
    share one array differ from two equal but separate arrays."""
    if type(value) is list:
        first = seen.get(id(value))
        if first is not None:
            return first
        seen[id(value)] = len(seen)
        return (list, tuple([_encode(v, seen) for v in value]))
    if type(value) is float:
        return (float, value.hex())  # tells -0.0 from 0.0
    return (type(value), value)


def _encode_arrays(arrays: list) -> tuple:
    seen: dict = {}
    return tuple([_encode(a, seen) for a in arrays])


class _LoopCut:
    """The two exact cuts of one loop execution, made at its head once it
    has run `_CUT_AFTER_ITERATIONS` iterations.  Either one means that the
    loop would run into the step budget, and that every statement it would
    still cover is covered already.

    `outlasts`, decided once: the loop is a counting loop whose guard
    provably holds until the budget runs out (see `_outlasts`).  Its body
    is straight-line, so the iterations already run covered all of it.

    `repeats`, asked at every later head: Brent's cycle detection (BIT
    1980) over the states of the loop at its head.  The snapshot tracks the
    names the loop assigns and, if it can write into an array, every name
    it reads; any other name keeps its value.  It holds the value of a
    relevant name (see `_loop_facts`) and every array, deeply encoded, and
    only the type of any other value.  When two snapshots are equal, every
    later branch, step count, callee run and runtime error repeats the
    iterations between them, and none of those iterations ended the run.

    A snapshot is kept in two parts: a shape (each tracked name's type and
    its value, or an array's length) and the deep encoding of the arrays,
    built only when the shape matches the saved one.  A loop that makes
    progress in a counter thus never pays for encoding its arrays.
    """

    __slots__ = ("outlasts", "slots", "saved_shape", "saved_arrays", "power", "count")

    def __init__(self, loop: Node, scopes: list[dict], remaining: int):
        relevant, assigned, used, mutates, counting = _loop_facts(loop)
        self.outlasts = counting is not None and _outlasts(counting, scopes, remaining)
        tracked = used | assigned if mutates else assigned
        # the scopes seen at the loop head gain no names while it runs, so
        # each tracked name stays in one scope, and an unbound one unbound
        slots = []
        for name in sorted(tracked):
            for scope in reversed(scopes):
                if name in scope:
                    slots.append((scope, name, name in relevant))
                    break
        self.slots = tuple(slots)
        self.saved_shape = None
        self.saved_arrays = None
        self.power = 1
        self.count = 0

    def repeats(self) -> bool:
        """Snapshot the loop head; True when it equals the saved snapshot,
        which is replaced at power-of-two iteration counts."""
        arrays = []
        shape = []
        for scope, name, relevant in self.slots:
            value = scope[name]
            kind = type(value)
            shape.append(kind)
            if kind is list:
                arrays.append(value)
                shape.append(len(value))
            elif not relevant:
                shape.append(None)
            else:
                shape.append(value.hex() if kind is float else value)
        shape = tuple(shape)
        if shape == self.saved_shape and _encode_arrays(arrays) == self.saved_arrays:
            return True
        self.count += 1
        if self.count >= self.power:  # not ==: a RecursionError may have skipped a save
            self.saved_shape, self.saved_arrays = shape, _encode_arrays(arrays)
            self.power, self.count = 2 * self.power, 0
        return False


class _Run:
    def __init__(self, project: SourceProject, budget: int):
        self.project = project
        self.budget = budget
        self.steps = 0
        self.covered: set[int] = set()
        self.depth = 0

    def step(self) -> None:
        self.steps += 1
        if self.steps > self.budget:
            raise _Timeout()

    # -- statements ---------------------------------------------------------

    def exec_block(self, block: Node, scopes: list[dict]) -> None:
        self.covered.add(block.node_id)
        self.step()
        scopes.append({})
        try:
            for stmt in block.children:
                self.exec_stmt(stmt, scopes)
        finally:
            scopes.pop()

    def exec_stmt(self, stmt: Node, scopes: list[dict]) -> None:
        kind = stmt.kind
        if kind == "block":
            self.exec_block(stmt, scopes)
            return
        self.covered.add(stmt.node_id)
        self.step()
        if kind == "var-decl":
            scopes[-1][stmt.name] = self.eval(stmt.children[0], scopes)
        elif kind == "assign":
            self.exec_assign(stmt, scopes)
        elif kind == "expr-stmt":
            self.eval(stmt.children[0], scopes)
        elif kind == "return":
            value = self.eval(stmt.children[0], scopes) if stmt.children else UNIT
            raise _Return(value)
        elif kind == "if":
            cond = self.eval_bool(stmt.children[0], scopes)
            if cond:
                self.exec_block(stmt.children[1], scopes)
            elif len(stmt.children) == 3:
                alt = stmt.children[2]
                if alt.kind == "if":
                    self.exec_stmt(alt, scopes)
                else:
                    self.exec_block(alt, scopes)
        elif kind == "while":
            cond, body = stmt.children[0], stmt.children[1]
            unchecked = _CUT_AFTER_ITERATIONS
            cut = None
            while self.eval_bool(cond, scopes):
                self.exec_block(body, scopes)
                if unchecked:
                    unchecked -= 1
                    continue
                try:
                    if cut is None:
                        cut = _LoopCut(stmt, scopes, self.budget - self.steps)
                    if cut.outlasts or cut.repeats():
                        # the loop runs into the budget: stop as the step loop would
                        self.steps = self.budget
                        raise _Timeout()
                except RecursionError:
                    pass  # no stack for the check; the step loop decides
        else:
            raise _RuntimeFault("type-error", stmt)

    def exec_assign(self, stmt: Node, scopes: list[dict]) -> None:
        target, value_expr = stmt.children
        value = self.eval(value_expr, scopes)
        if target.kind == "var-ref":
            for scope in reversed(scopes):
                if target.name in scope:
                    scope[target.name] = value
                    return
            raise _RuntimeFault("undefined-variable", target)
        container = self.eval(target.children[0], scopes)
        idx = self.eval(target.children[1], scopes)
        if not isinstance(container, list):
            raise _RuntimeFault("type-error", target)
        if not isinstance(idx, int) or isinstance(idx, bool):
            raise _RuntimeFault("type-error", target)
        if idx < 0 or idx >= len(container):
            raise _RuntimeFault("index-out-of-bounds", target)
        container[idx] = value

    # -- expressions ---------------------------------------------------------

    def eval_bool(self, node: Node, scopes) -> bool:
        value = self.eval(node, scopes)
        if not isinstance(value, bool):
            raise _RuntimeFault("type-error", node)
        return value

    def eval(self, node: Node, scopes):
        self.step()
        kind = node.kind
        if kind == "literal":
            if node.op == "array":
                return [self.eval(c, scopes) for c in node.children]
            return node.value
        if kind == "var-ref":
            for scope in reversed(scopes):
                if node.name in scope:
                    return scope[node.name]
            raise _RuntimeFault("undefined-variable", node)
        if kind == "unary-op":
            return self.eval_unary(node, scopes)
        if kind == "binary-op":
            return self.eval_binary(node, scopes)
        if kind == "index":
            return self.eval_index(node, scopes)
        if kind == "call":
            return self.eval_call(node, scopes)
        raise _RuntimeFault("type-error", node)

    def eval_unary(self, node: Node, scopes):
        value = self.eval(node.children[0], scopes)
        if node.op == "-":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise _RuntimeFault("type-error", node)
            return _wrap64(-value) if isinstance(value, int) else -value
        if node.op == "!":
            if not isinstance(value, bool):
                raise _RuntimeFault("type-error", node)
            return not value
        raise _RuntimeFault("type-error", node)

    def eval_binary(self, node: Node, scopes):
        op = node.op
        if op in ("&&", "||"):
            left = self.eval_bool(node.children[0], scopes)
            if op == "&&" and not left:
                return False
            if op == "||" and left:
                return True
            return self.eval_bool(node.children[1], scopes)

        left = self.eval(node.children[0], scopes)
        right = self.eval(node.children[1], scopes)
        if op in ("==", "!="):
            eq = self.values_eq(left, right, node)
            return eq if op == "==" else not eq
        if op in ("<", "<=", ">", ">="):
            return self.eval_order(op, left, right, node)
        return self.eval_arith(op, left, right, node)

    def values_eq(self, a, b, node: Node) -> bool:
        if isinstance(a, bool) or isinstance(b, bool):
            if isinstance(a, bool) and isinstance(b, bool):
                return a is b
            raise _RuntimeFault("type-error", node)
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            return float(a) == float(b) if type(a) is not type(b) else a == b
        if isinstance(a, str) and isinstance(b, str):
            return a == b
        if isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                return False
            return all(self.values_eq(x, y, node) for x, y in zip(a, b))
        raise _RuntimeFault("type-error", node)

    def eval_order(self, op: str, a, b, node: Node) -> bool:
        numeric = (
            isinstance(a, (int, float)) and not isinstance(a, bool)
            and isinstance(b, (int, float)) and not isinstance(b, bool)
        )
        if not numeric and not (isinstance(a, str) and isinstance(b, str)):
            raise _RuntimeFault("type-error", node)
        if numeric and type(a) is not type(b):
            a, b = float(a), float(b)  # as `==` and arithmetic promote
        return _ORDERS[op](a, b)

    def eval_arith(self, op: str, a, b, node: Node):
        if isinstance(a, str) and isinstance(b, str) and op == "+":
            return a + b
        if (
            isinstance(a, bool) or isinstance(b, bool)
            or not isinstance(a, (int, float)) or not isinstance(b, (int, float))
        ):
            raise _RuntimeFault("type-error", node)
        both_int = isinstance(a, int) and isinstance(b, int)
        if op == "%":
            if not both_int:
                raise _RuntimeFault("type-error", node)
            if b == 0:
                raise _RuntimeFault("div-by-zero", node)
            q = _trunc_div(a, b)
            return _wrap64(a - q * b)
        if op == "/":
            if b == 0:
                raise _RuntimeFault("div-by-zero", node)
            if both_int:
                return _wrap64(_trunc_div(a, b))
            return float(a) / float(b)
        if op == "+":
            result = a + b
        elif op == "-":
            result = a - b
        elif op == "*":
            result = a * b
        else:
            raise _RuntimeFault("type-error", node)
        return _wrap64(result) if both_int else result

    def eval_index(self, node: Node, scopes):
        base = self.eval(node.children[0], scopes)
        idx = self.eval(node.children[1], scopes)
        if not isinstance(idx, int) or isinstance(idx, bool):
            raise _RuntimeFault("type-error", node)
        if not isinstance(base, (list, str)):
            raise _RuntimeFault("type-error", node)
        if idx < 0 or idx >= len(base):
            raise _RuntimeFault("index-out-of-bounds", node)
        return base[idx]

    def eval_call(self, node: Node, scopes):
        args = [self.eval(a, scopes) for a in node.children]
        if node.name == "len":
            if len(args) != 1 or not isinstance(args[0], (str, list)):
                raise _RuntimeFault("type-error", node)
            return len(args[0])
        entry = self.project.functions.get(node.name)
        if entry is None:
            raise _RuntimeFault("undefined-function", node)
        _, fn = entry
        if len(args) != len(fn.params):
            raise _RuntimeFault("bad-arity", node)
        return self.call_function(fn, args, node)

    def call_function(self, fn: Node, args: list, site: Node):
        if self.depth >= MAX_CALL_DEPTH:
            raise _RuntimeFault("stack-overflow", site)
        self.depth += 1
        scopes = [dict(zip((name for name, _ in fn.params), args))]
        try:
            self.exec_block(fn.children[0], scopes)
        except _Return as ret:
            return ret.value
        finally:
            self.depth -= 1
        if fn.ret is None:
            return UNIT
        raise _RuntimeFault("missing-return", fn)


def execute(
    project: SourceProject,
    entry: str,
    args: list,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> ExecutionTrace:
    """Run `entry(args)` under the step budget, tracing statement coverage.

    The covered set contains exactly the statements whose evaluation began.
    Array arguments are copied, so `args` is never modified.  All failures
    (including a missing or mis-typed entry point) are encoded in the
    outcome; this function does not raise.
    """
    if step_budget <= 0:
        raise ValueError("step budget must be positive")
    run = _Run(project, step_budget)

    def finish(outcome: Outcome) -> ExecutionTrace:
        # the step that crossed the budget never completed
        return ExecutionTrace(frozenset(run.covered), outcome, min(run.steps, step_budget))

    fn_entry = project.functions.get(entry)
    if fn_entry is None:
        return finish(Outcome("error", error_kind="undefined-function"))
    _, fn = fn_entry
    if len(args) != len(fn.params):
        return finish(Outcome("error", error_kind="bad-arity", error_line=fn.line))
    for value, (_, ty) in zip(args, fn.params):
        if not _runtime_matches(value, ty):
            return finish(Outcome("error", error_kind="type-error", error_line=fn.line))

    try:
        value = run.call_function(fn, [_copy_value(a) for a in args], fn)
    except _Timeout:
        return finish(Outcome("timeout"))
    except _RuntimeFault as fault:
        return finish(Outcome("error", error_kind=fault.kind, error_line=fault.node.line))
    except RecursionError:
        return finish(Outcome("error", error_kind="stack-overflow", error_line=fn.line))
    return finish(Outcome("normal", value=value))
