"""Variant validation, fitness, and solution post-processing.

Fitness is the number of failing test cases; zero means the variant is a
test-suite-adequate patch.  During the search, validation runs the
originally-failing tests first and skips the passing set as soon as one of
them still fails (the reported count is then a lower bound, flagged
short_circuited).  Every candidate solution is re-validated on the full
suite before a patch is emitted, so emitted patches never rely on a
short-circuited result.

Post-processing (`refine_patches`) minimizes each solution by greedily
dropping transformations whose removal keeps fitness at zero, iterating
until no single remaining transformation can be dropped, then renders
unified diffs and orders patches chronologically by discovery.
"""

from __future__ import annotations

from dataclasses import dataclass

from minirepair.diffs import make_file_diff
from minirepair.faultloc import SpectrumMatrix, TestCase, run_test
from minirepair.lang.ast import SourceProject
from minirepair.lang.printer import print_file


@dataclass(frozen=True)
class ValidationResult:
    verdicts: tuple[tuple[str, bool], ...]  # (test name, passed) in run order
    failing: int
    short_circuited: bool
    steps: int


def fitness(result: ValidationResult) -> int:
    """Number of failing tests; 0 marks a test-suite-adequate patch."""
    return result.failing


@dataclass
class Baseline:
    """Verdicts of the unpatched program, fixing the failing-first order."""

    matrix: SpectrumMatrix
    failing: list[TestCase]
    passing: list[TestCase]

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
    """Run the suite against a variant, originally-failing tests first."""
    verdicts: list[tuple[str, bool]] = []
    steps = 0
    failing = 0

    first_phase = _run_tests(variant_project, baseline.failing, step_budget)
    for result in first_phase:
        verdicts.append((result.test.name, result.passed))
        steps += result.trace.steps
        if not result.passed:
            failing += 1
    if short_circuit and failing > 0:
        return ValidationResult(tuple(verdicts), failing, True, steps)

    second_phase = _run_tests(variant_project, baseline.passing, step_budget)
    for result in second_phase:
        verdicts.append((result.test.name, result.passed))
        steps += result.trace.steps
        if not result.passed:
            failing += 1
    return ValidationResult(tuple(verdicts), failing, False, steps)


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


def patched_sources(
    project: SourceProject, baseline_sources: dict[str, str], variant: SourceProject
) -> tuple[dict[str, str], list[str]]:
    """`print_sources(variant)` for a variant derived from `project`, and
    the paths of its edited files.  A file the variant still shares with
    `project` is unedited, so its text is taken from `baseline_sources`
    (the printed `project`) instead of being printed again; `derive`
    keeps the files in `project`'s order."""
    sources, edited = {}, []
    for sf, base in zip(variant.files, project.files):
        if sf is base:
            sources[sf.path] = baseline_sources[sf.path]
        else:
            sources[sf.path] = print_file(sf)
            edited.append(sf.path)
    return sources, edited


def render_patch(
    baseline_sources: dict[str, str],
    variant_sources: dict[str, str],
    edited: list[str],
    provenance,
    discovery_iteration: int,
    discovery_order: int,
    transformations=(),
) -> Patch:
    """The patch of a variant whose `edited` files may differ from the
    baseline; the other files have no diff."""
    files = []
    for path in sorted(edited):
        diff = make_file_diff(path, baseline_sources[path], variant_sources[path])
        if diff:
            files.append((path, diff))
    return Patch(
        files=tuple(files),
        sources=dict(variant_sources),
        provenance=tuple(provenance),
        discovery_iteration=discovery_iteration,
        discovery_order=discovery_order,
        transformations=tuple(transformations),
    )


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
    in chronological discovery order.  `session` provides the solutions and
    the materialize/validate plumbing (see engine.RepairSession)."""
    patches = []
    out_order = 0
    for variant in sorted(session.solutions, key=lambda v: v.discovery_order):

        def revalidate(transformations) -> int:
            project = session.materialize(transformations)
            if project is None:
                return -1  # un-materializable trims never keep fitness 0
            result = validate_variant(
                project, session.baseline, session.config.step_budget, short_circuit=False
            )
            session.stats.time_steps += result.steps
            return fitness(result)

        kept = minimize_transformations(variant.transformations, revalidate)
        final_project = session.materialize(kept)
        final = validate_variant(
            final_project, session.baseline, session.config.step_budget, short_circuit=False
        )
        session.stats.time_steps += final.steps
        if fitness(final) != 0:
            # cannot happen for a true solution; keep the report honest
            continue
        sources, edited = patched_sources(session.project, session.baseline_sources, final_project)
        patch = render_patch(
            session.baseline_sources,
            sources,
            edited,
            [t.provenance() for t in kept],
            variant.discovery_iteration,
            out_order,
            transformations=kept,
        )
        patches.append(patch)
        out_order += 1
    return patches
