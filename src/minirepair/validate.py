"""Variant validation, fitness, and solution post-processing.

Fitness is the number of failing test cases; zero means the variant is a
test-suite-adequate patch.  During the search, validation runs the
originally-failing tests first and skips the passing set as soon as one of
them still fails (the reported count is then a lower bound, and the
verdicts list only the tests that ran).  Every candidate solution is
re-validated on the full suite before a patch is emitted, so emitted
patches never rely on a short-circuited result.

Post-processing (`refine_patches`) minimizes each solution by greedily
dropping transformations whose removal keeps fitness at zero, iterating
until no single remaining transformation can be dropped, then prints the
whole patched program, diffs each file against the unpatched one in path
order, and orders patches chronologically by discovery.  The results of
its full-suite runs are kept with the session's verdict memo, which hangs
off the session's baseline (`Baseline.memos`), so a later session that
shares the memo and refines the same edit list runs nothing: each minimization trial keeps its fitness and steps, and each
minimized list the steps of its final run and, for a patch, the rendered
diffs and sources.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from minirepair.diffs import make_file_diff
from minirepair.faultloc import SpectrumMatrix, TestCase, run_test
from minirepair.lang.ast import SourceProject
from minirepair.lang.printer import print_sources


@dataclass(frozen=True)
class ValidationResult:
    verdicts: tuple[tuple[str, bool], ...]  # (test name, passed) in run order
    failing: int
    steps: int


def edit_list(transformations) -> tuple:
    """The edits of a transformation list, in order (`engine.Transformation.edit`):
    the key of the list in a verdict memo."""
    return tuple(t.edit for t in transformations)


def fitness(result: ValidationResult) -> int:
    """Number of failing tests; 0 marks a test-suite-adequate patch."""
    return result.failing


@dataclass
class Baseline:
    """Verdicts of the unpatched program, fixing the failing-first order,
    and what the sessions that share them learn by running the suite."""

    matrix: SpectrumMatrix
    failing: list[TestCase]
    passing: list[TestCase]
    # what the engine derives from the spectrum alone: its modification
    # points and their running suspiciousness sums, by (formula, cut-off,
    # granularity)
    points: dict = field(default_factory=dict, repr=False)
    # the sessions' verdict memos (`engine.VerdictMemo`), by (recursion
    # limit, stack position of the caller of `RepairSession.run`)
    memos: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_matrix(cls, matrix: SpectrumMatrix) -> "Baseline":
        failing = [r.test for r in matrix.results if not r.passed]
        passing = [r.test for r in matrix.results if r.passed]
        return cls(matrix, failing, passing)

    @property
    def failing_count(self) -> int:
        return len(self.failing)


def _run_tests(project, tests, step_budget):
    # serial, in the caller's thread: where a deep MiniLang recursion hits
    # Python's RecursionError depends on the stack it starts from, so a
    # worker thread's fresh stack could change a verdict
    return [run_test(project, t, step_budget) for t in tests]


def validate_variant(
    variant_project: SourceProject,
    baseline: Baseline,
    step_budget: int,
    short_circuit: bool = True,
) -> ValidationResult:
    """Run the suite against a variant, originally-failing tests first;
    with `short_circuit`, a failure among them skips the passing tests."""
    verdicts: list[tuple[str, bool]] = []
    steps = 0
    failing = 0
    for phase in (baseline.failing, baseline.passing):
        if short_circuit and failing > 0:
            return ValidationResult(tuple(verdicts), failing, steps)
        for result in _run_tests(variant_project, phase, step_budget):
            verdicts.append((result.test.name, result.passed))
            steps += result.trace.steps
            if not result.passed:
                failing += 1
    return ValidationResult(tuple(verdicts), failing, steps)


@dataclass
class Patch:
    """A rendered solution: per-file diffs plus search provenance."""

    files: tuple[tuple[str, str], ...]  # (path, unified diff) for changed files
    sources: dict[str, str]  # full printed sources of the patched program
    provenance: tuple[dict, ...]
    discovery_iteration: int
    discovery_order: int
    transformations: tuple = ()  # minimized transformation objects (not serialized)

    @property
    def diff_text(self) -> str:
        return "".join(diff for _, diff in self.files)

    def to_dict(self) -> dict:
        return {
            "order": self.discovery_order,
            "iteration": self.discovery_iteration,
            "files": [{"path": path, "diff": diff} for path, diff in self.files],
            "transformations": list(self.provenance),
        }


def minimize_transformations(solution_transformations, revalidate) -> list:
    """Greedy drop of fitness-neutral transformations, repeated until no
    single remaining transformation can be removed without breaking a test.

    `revalidate(transformations) -> int` returns full-suite fitness."""
    current = list(solution_transformations)
    changed = True
    while changed and len(current) > 1:
        changed = False
        i = 0
        while i < len(current) and len(current) > 1:
            trial = current[:i] + current[i + 1 :]
            if revalidate(trial) == 0:
                current = trial
                changed = True
            else:
                i += 1
    return current


def refine_patches(session) -> list[Patch]:
    """Minimize, re-validate, and render every solution of a repair session
    in chronological discovery order, the order of `session.solutions`.
    `session` provides the solutions, the materialize/validate plumbing
    and the verdict memo, which keys a list by its transformations' edits
    (see engine.RepairSession).

    Each full-suite run is looked up in the memo first, trials and finals
    apart; a hit adds the stored steps to the session's `time_steps`, as
    the run would, and a miss runs and stores its result."""
    memo = session.verdicts
    budget = session.config.step_budget
    patches = []
    for variant in session.solutions:

        def revalidate(transformations) -> int:
            key = memo.key(edit_list(transformations))
            trial = memo.trials.get(key)
            if trial is None:
                project = session.materialize(transformations)
                if project is None:
                    trial = (-1, 0)  # un-materializable trims never keep fitness 0
                else:
                    result = validate_variant(project, session.baseline, budget,
                                              short_circuit=False)
                    trial = (fitness(result), result.steps)
                if key is not None:
                    memo.trials[key] = trial
            session.stats.time_steps += trial[1]
            return trial[0]

        kept = minimize_transformations(variant.transformations, revalidate)
        key = memo.key(edit_list(kept))
        final = memo.finals.get(key)
        if final is None:
            final_project = session.materialize(kept)
            result = validate_variant(final_project, session.baseline, budget,
                                      short_circuit=False)
            rendered = None  # (diffs, sources) of a patch
            if fitness(result) == 0:
                sources = print_sources(final_project)
                files = []
                for path in sorted(sources):
                    diff = make_file_diff(path, session.baseline_sources[path], sources[path])
                    if diff:
                        files.append((path, diff))
                rendered = (tuple(files), sources)
            final = (result.steps, rendered)
            if key is not None:
                memo.finals[key] = final
        steps, rendered = final
        session.stats.time_steps += steps
        if rendered is None:
            # cannot happen for a true solution; keep the report honest
            continue
        files, sources = rendered
        patches.append(Patch(
            files=files,
            sources=dict(sources),
            provenance=tuple(t.provenance() for t in kept),
            discovery_iteration=variant.discovery_iteration,
            discovery_order=len(patches),
            transformations=tuple(kept),
        ))
    return patches
