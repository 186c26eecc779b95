"""Coverage spectrum collection and suspiciousness ranking.

Each test is executed under the tracing interpreter; the per-statement
pass/fail coverage counters feed the Ochiai and Tarantula formulas:

    ochiai(s)    = ef / sqrt((ef + nf) * (ef + ep))
    tarantula(s) = (ef / F) / (ef / F + ep / P)

with ef/ep the failing/passing tests covering s, nf/np those that do not,
and F/P the suite totals.  Both formulas map into [0, 1]; statements
covered by no test at all are omitted from the ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from minirepair.lang.ast import INT64_MAX, INT64_MIN, SourceProject
from minirepair.lang.interp import (
    DEFAULT_STEP_BUDGET,
    ERROR_KINDS,
    UNIT,
    ExecutionTrace,
    Unit,
    execute,
)
from minirepair.lang.parser import MAX_NESTING


class SuiteError(Exception):
    pass


class NoFailingTests(Exception):
    """The suite does not assert the presence of any bug."""


@dataclass(frozen=True)
class TestCase:
    name: str
    entry: str
    args: tuple
    expect: object = None           # expected value (UNIT for void entries)
    expect_error: str | None = None  # expected runtime error kind, if any


@dataclass(frozen=True)
class TestResult:
    test: TestCase
    passed: bool
    trace: ExecutionTrace


@dataclass
class SpectrumMatrix:
    results: list[TestResult]
    ef: dict[int, int] = field(default_factory=dict)
    ep: dict[int, int] = field(default_factory=dict)
    total_failing: int = 0
    total_passing: int = 0

    @classmethod
    def from_results(cls, results: list[TestResult]) -> "SpectrumMatrix":
        matrix = cls(results=results)
        for r in results:
            if r.passed:
                matrix.total_passing += 1
            else:
                matrix.total_failing += 1
            bucket = matrix.ep if r.passed else matrix.ef
            for sid in r.trace.covered:
                bucket[sid] = bucket.get(sid, 0) + 1
        return matrix

    def covered_statements(self) -> list[int]:
        return sorted(set(self.ef) | set(self.ep))

    def counters(self, statement_id: int) -> tuple[int, int, int, int]:
        """(ef, ep, nf, np) for one statement."""
        ef = self.ef.get(statement_id, 0)
        ep = self.ep.get(statement_id, 0)
        return ef, ep, self.total_failing - ef, self.total_passing - ep


@dataclass(frozen=True)
class SuspiciousLocation:
    statement_id: int
    suspiciousness: float


def values_equal(a, b) -> bool:
    """Type-strict equality used for test verdicts (1 != 1.0 here)."""
    if isinstance(a, Unit) or isinstance(b, Unit):
        return isinstance(a, Unit) and isinstance(b, Unit)
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a is b
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(values_equal(x, y) for x, y in zip(a, b))
    return a == b


def verdict(test: TestCase, trace: ExecutionTrace) -> bool:
    if test.expect_error is not None:
        return trace.outcome.status == "error" and trace.outcome.error_kind == test.expect_error
    return trace.outcome.is_normal and values_equal(trace.outcome.value, test.expect)


def run_test(project: SourceProject, test: TestCase, step_budget: int) -> TestResult:
    trace = execute(project, test.entry, list(test.args), step_budget)
    return TestResult(test, verdict(test, trace), trace)


def check_suite(suite: Sequence[TestCase]) -> None:
    """Raise SuiteError for an empty suite or a repeated test name."""
    if not suite:
        raise SuiteError("test suite is empty")
    seen = set()
    for test in suite:
        if test.name in seen:
            raise SuiteError(f"duplicate test name: {test.name}")
        seen.add(test.name)


def run_suite(
    project: SourceProject,
    suite: Sequence[TestCase],
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> SpectrumMatrix:
    """Execute the whole suite and assemble the coverage spectrum."""
    check_suite(suite)
    results = [run_test(project, test, step_budget) for test in suite]
    return SpectrumMatrix.from_results(results)


def ochiai(ef: int, ep: int, nf: int, np: int) -> float:
    if ef == 0:
        return 0.0
    return ef / math.sqrt((ef + nf) * (ef + ep))


def tarantula(ef: int, ep: int, nf: int, np: int) -> float:
    failing = ef + nf
    passing = ep + np
    fail_ratio = ef / failing if failing else 0.0
    pass_ratio = ep / passing if passing else 0.0
    if fail_ratio == 0.0:
        return 0.0
    return fail_ratio / (fail_ratio + pass_ratio)


# the fault-localization extension point: config lists its keys
FORMULAS = {"ochiai": ochiai, "tarantula": tarantula}


def suspiciousness(matrix: SpectrumMatrix, formula: str = "ochiai") -> list[SuspiciousLocation]:
    """Ranked suspicious statements, descending score, ties by node id."""
    if formula not in FORMULAS:
        raise ValueError(f"unknown formula {formula!r} (choose from {tuple(FORMULAS)})")
    if matrix.total_failing == 0:
        raise NoFailingTests("no failing tests: nothing to repair")
    fn = FORMULAS[formula]
    locations = []
    for sid in matrix.covered_statements():
        ef, ep, nf, np = matrix.counters(sid)
        locations.append(SuspiciousLocation(sid, fn(ef, ep, nf, np)))
    locations.sort(key=lambda loc: (-loc.suspiciousness, loc.statement_id))
    return locations


def filter_suspicious(
    locations: Sequence[SuspiciousLocation], max_suspicious: int = 100
) -> list[SuspiciousLocation]:
    """Drop zero-score locations and cap the list (search-space bound)."""
    kept = [loc for loc in locations if loc.suspiciousness > 0.0]
    return kept[:max_suspicious]


# -- tests.json -------------------------------------------------------------

def _value_from_json(raw, where: str, depth: int = 0):
    """The MiniLang value of a decoded JSON value inside `depth` arrays;
    an array must be uniform (`_type_of`)."""
    if raw is None:
        return UNIT
    if isinstance(raw, int) and not INT64_MIN <= raw <= INT64_MAX:
        raise SuiteError(f"{where}: an int is out of the 64-bit range")
    if isinstance(raw, float) and not math.isfinite(raw):
        # json accepts NaN, Infinity and 1e999; NaN never equals itself
        raise SuiteError(f"{where}: a float is not finite ({raw!r})")
    if isinstance(raw, (bool, int, float, str)):
        return raw
    if isinstance(raw, list):
        # the deepest array type a parameter can have
        if depth == MAX_NESTING:
            raise SuiteError(f"{where}: an array is nested deeper than {MAX_NESTING} levels")
        value = [_value_from_json(item, where, depth + 1) for item in raw]
        if depth == 0:
            _type_of(value, where)
        return value
    raise SuiteError(f"{where}: unsupported JSON value {raw!r}")


def _join(a, b, where: str):
    """The one type of values of types `a` and `b`, as from `_type_of`;
    None fits any type."""
    if a is None or a == b:
        return b
    if b is None:
        return a
    if isinstance(a, tuple) and isinstance(b, tuple):
        return ("array", _join(a[1], b[1], where))
    raise SuiteError(f"{where}: an array's elements differ in type")


def _type_of(value, where: str):
    """A scalar's Python type, or an array's ("array", element type), where
    the element type of an empty array is None; SuiteError when the
    elements of an array differ in type (an empty array fits any array)."""
    if not isinstance(value, list):
        return type(value)
    element = None
    for item in value:
        element = _join(element, _type_of(item, where), where)
    return ("array", element)


def suite_from_json(doc) -> list[TestCase]:
    """Decode the tests.json document (see docs/tests-schema.md)."""
    if not isinstance(doc, list):
        raise SuiteError("tests.json must be a JSON array of test objects")
    suite = []
    for i, entry in enumerate(doc):
        where = f"test #{i}"
        if not isinstance(entry, dict):
            raise SuiteError(f"{where}: not a JSON object")
        unknown = set(entry) - {"name", "entry", "args", "expect", "expect_error"}
        if unknown:
            raise SuiteError(f"{where}: unknown keys {sorted(unknown)}")
        for key in ("name", "entry"):
            if not isinstance(entry.get(key), str):
                raise SuiteError(f"{where}: missing or non-string {key!r}")
        if not isinstance(entry.get("args"), list):
            raise SuiteError(f"{where}: 'args' must be a JSON array")
        has_expect = "expect" in entry
        has_error = "expect_error" in entry
        if has_expect == has_error:
            raise SuiteError(f"{where}: exactly one of 'expect'/'expect_error' required")
        args = tuple(_value_from_json(a, where) for a in entry["args"])
        if any(isinstance(a, Unit) for a in args):
            raise SuiteError(f"{where}: null is not a valid argument")
        if has_error:
            kind = entry["expect_error"]
            if kind not in ERROR_KINDS:
                raise SuiteError(f"{where}: unknown error kind {kind!r}")
            suite.append(TestCase(entry["name"], entry["entry"], args, expect_error=kind))
        else:
            suite.append(
                TestCase(entry["name"], entry["entry"], args,
                         expect=_value_from_json(entry["expect"], where))
            )
    check_suite(suite)
    return suite


def load_suite(path) -> list[TestCase]:
    import json
    from pathlib import Path

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, or an int of over 4,300 digits
        raise SuiteError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise SuiteError(f"{path}: invalid JSON: nested too deeply") from None
    return suite_from_json(doc)
