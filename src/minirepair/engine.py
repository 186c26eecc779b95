"""The repair search: modification points, candidate generation, navigation.

The loop follows the generate-and-validate shape: fault localization
produces suspicious statements, each suspicious code element of the
configured granularity becomes a modification point, and the navigation
strategy (exhaustive, selective, or evolutionary) repeatedly picks a point
and an operator, builds a transformation (fetching and adapting an
ingredient when the operator needs one), materializes the program variant,
and validates it against the suite.  Variants that fail the scope/type
check are rejected at generation time and never executed.

Each (point, operator) pair keeps the set of printed forms it has tried
(`RepairSession.tried`), so no concrete form is validated twice at one
pair in a run, which both prunes the search and lets selective runs
detect a fully exhausted space and stop early.

Sessions on one project object share what depends on the project alone
(`SourceProject.analysis`): among it, each entry's candidate plan at each
point, printed in full when it is made, so a candidate is printed once per
project and its tree is built only when a variant is materialized.  What
they learn by running the suite is kept on its baseline spectrum
(`validate.Baseline`): the modification points, each with its
suspiciousness, for each formula, cut-off and granularity, and the verdict
memos (`VerdictMemo`) of edit lists, each stored the first time it runs, with
the results of refinement's full-suite runs (`validate.refine_patches`).
Where a deep MiniLang recursion hits Python's RecursionError depends on
the caller's stack, so a baseline is shared only by sessions constructed
from one stack position, and a memo only by its sessions run from one
position (`stack_position`); plans hold no verdicts and need no such key.
A session's outcome is that of a fresh project, whichever ran before it.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from minirepair.faultloc import (
    NoFailingTests,
    SuspiciousLocation,
    TestCase,
    filter_suspicious,
    run_suite,
    suspiciousness,
)
from minirepair.ingredients import (
    COMPOSITE_EXPRESSION_KINDS,
    Candidates,
    FunctionSimilarity,
    Ingredient,
    IngredientPool,
    build_name_model,
    build_pool,
    mine_templates,
    select_ingredient,
    transform_ingredient,
)
from minirepair.lang.ast import LOGICAL_OPS, RELATIONAL_OPS, Node, SourceProject, Type, pre_order
from minirepair.lang.printer import print_sources, print_tree
from minirepair.lang.types import TypeCheckError, cached_types, check_project, env_at
from minirepair.operators import (
    OperatorSpace,
    RepairOperator,
    apply_edits,
    is_assignment_target_base,
    operator_space,
)
from minirepair.rng import RngStreams, SplitMix64, prefix_sums
from minirepair.validate import Baseline, edit_list, fitness, refine_patches, validate_variant

if TYPE_CHECKING:
    from minirepair.config import RunConfig


@dataclass(frozen=True)
class ModificationPoint:
    node_id: int
    granularity: str
    suspiciousness: float
    env: dict[str, Type] = field(compare=False, hash=False)
    file: str = ""
    module: str = ""
    function: str = ""


@dataclass
class Transformation:
    point: ModificationPoint
    operator: RepairOperator
    plan: Optional[Candidates] = None  # the ingredient's candidates at the point, or None
    index: int = 0  # the candidate of `plan` to splice
    # (point node id, operator name, printed ingredient or None), what
    # `apply_edits` applies: set once, when the transformation is built
    edit: tuple = field(init=False, compare=False)

    def __post_init__(self) -> None:
        self.edit = (self.point.node_id, self.operator.name,
                     None if self.plan is None else self.plan.printed[self.index])

    @property
    def concrete(self) -> Optional[Node]:
        """The ingredient subtree to splice, built anew on every read, or
        None for an operator that needs no ingredient."""
        return None if self.plan is None else self.plan[self.index]

    def provenance(self) -> dict:
        return {
            "point": self.point.node_id,
            "file": self.point.file,
            "operator": self.operator.name,
            "ingredient": self.edit[2],
        }


@dataclass
class ProgramVariant:
    variant_id: int
    transformations: list[Transformation]
    generation_born: int
    fitness: Optional[int] = None  # None until validated, and after a rejection
    discovery_iteration: Optional[int] = None


@dataclass
class SearchStats:
    iterations: int = 0
    variants_generated: int = 0
    validated: int = 0
    rejected_typecheck: int = 0
    not_applicable: int = 0
    duplicates: int = 0
    exhausted_selections: int = 0
    solutions: int = 0
    pool_builds: int = 0
    time_steps: int = 0
    validations_at_first_patch: Optional[int] = None
    iteration_at_first_patch: Optional[int] = None
    per_operator: dict = field(default_factory=dict)
    stop_reason: str = ""

    def op_bucket(self, name: str) -> dict:
        bucket = self.per_operator.get(name)
        if bucket is None:
            bucket = self.per_operator[name] = {"created": 0, "validated": 0, "solutions": 0}
        return bucket

    def to_dict(self) -> dict:
        return asdict(self)


# -- modification points -------------------------------------------------------


def _own_expressions(project: SourceProject, stmt: Node) -> list[Node]:
    """The expressions of `stmt` outside its nested statements, by node id."""
    own = [n for n in pre_order(stmt) if n.is_expression()
           and project.enclosing_statement(project.parents[n.node_id]) is stmt]
    return sorted(own, key=lambda n: n.node_id)


# the granularity extension point: config lists its keys; each maps a
# suspicious statement to the code elements that become its points
GRANULARITIES = {
    "statement": lambda project, stmt: [stmt],
    "expression": lambda project, stmt: [
        n for n in _own_expressions(project, stmt)
        if n.kind in COMPOSITE_EXPRESSION_KINDS and not is_assignment_target_base(project, n)
    ],
    "logical-relational": lambda project, stmt: [
        n for n in _own_expressions(project, stmt)
        if (n.kind == "binary-op" and n.op in RELATIONAL_OPS + LOGICAL_OPS)
        or (n.kind == "unary-op" and n.op == "!")
    ],
}


def create_modification_points(
    project: SourceProject,
    suspicious: Sequence[SuspiciousLocation],
    granularity: str,
) -> list[ModificationPoint]:
    """One point per suspicious statement; at finer granularities, one point
    per qualifying expression inside each suspicious statement (expressions
    inherit the suspiciousness of their nearest enclosing statement)."""
    def make_point(node: Node, sv: float) -> ModificationPoint:
        fn = project.enclosing_function(node.node_id)
        sf = project.functions[fn.name][0]
        return ModificationPoint(
            node_id=node.node_id,
            granularity=granularity,
            suspiciousness=sv,
            env=env_at(project, node.node_id),
            file=sf.path,
            module=sf.module,
            function=fn.name,
        )

    targets = GRANULARITIES[granularity]
    points: list[ModificationPoint] = []
    for loc in suspicious:
        stmt = project.node(loc.statement_id)
        if stmt.is_statement():
            points.extend(make_point(target, loc.suspiciousness)
                          for target in targets(project, stmt))
    return points


# -- selection strategies --------------------------------------------------------


def _uniform_points(points, count, rng, prefix):
    remaining = list(points)
    return [remaining.pop(rng.below(len(remaining))) for _ in range(count)]


def _weighted_points(points, count, rng, prefix):
    if prefix is None:
        prefix = prefix_sums(p.suspiciousness for p in points)
    if not prefix[-1] > 0:
        return _uniform_points(points, count, rng, prefix)
    if count == 1:
        return [points[rng.prefix_index(prefix)]]
    remaining = list(points)
    weights = [p.suspiciousness for p in points]
    picked = []
    for _ in range(count):
        idx = rng.weighted_index(weights)
        picked.append(remaining.pop(idx))
        weights.pop(idx)
    return picked


# the point-selection extension point: config lists its keys
POINT_SELECTIONS = {
    "uniform-random": _uniform_points,
    "weighted-random": _weighted_points,
    "sequential": lambda points, count, rng, prefix: sorted(
        points, key=lambda p: (-p.suspiciousness, p.node_id)
    )[:count],
}


def select_points(
    points: Sequence[ModificationPoint],
    strategy: str,
    count: int,
    rng: SplitMix64,
    prefix: Optional[Sequence[float]] = None,
) -> list[ModificationPoint]:
    """Choose `count` distinct points.  uniform-random: equal probability;
    weighted-random: probability sv / sum(sv) (uniform fallback when every
    sv is zero); sequential: descending sv, ties by ascending node id.

    `prefix`, the running sums of the points' suspiciousness values
    (`prefix_sums`), lets a caller that selects from the same points many
    times build it once; a one-point draw then bisects it."""
    if not points:
        raise ValueError("no modification points to select from")
    return POINT_SELECTIONS[strategy](points, min(count, len(points)), rng, prefix)


def _weighted_operator(ops, rng, weights, counter):
    return ops[rng.weighted_index([weights[op.name] for op in ops])]


# the operator-selection extension point: config lists its keys
OPERATOR_SELECTIONS = {
    "uniform-random": lambda ops, rng, weights, counter: rng.choice(ops),
    "weighted-random": _weighted_operator,
    "sequential": lambda ops, rng, weights, counter: ops[counter % len(ops)],
}


def select_operator(
    space: OperatorSpace,
    strategy: str,
    rng: SplitMix64,
    weights: Optional[dict[str, float]] = None,
    counter: int = 0,
) -> RepairOperator:
    """uniform-random, weighted-random (`weights`, a distribution over the
    space that `RunConfig.validate` checked; weight 0 is never drawn), or
    sequential (fixed space order; the j-th point of a session's k-th pick
    passes `counter` k + j, so each point of a pick meets every operator)."""
    return OPERATOR_SELECTIONS[strategy](space.operators, rng, weights, counter)


# -- the repair session -----------------------------------------------------------


def stack_position(frame) -> tuple:
    """Where a call made from `frame` stands on the stack: the (code
    object, last instruction) of every frame from `frame` to the bottom.
    Two calls from equal positions start equally deep, so the interpreter's
    RecursionError fires at the same MiniLang call depth in both."""
    chain = []
    while frame is not None:
        chain.append((frame.f_code, frame.f_lasti))
        frame = frame.f_back
    return tuple(chain)


REJECTED = -1  # verdict memo value of a variant the type gate rejects
ID_BITS = 21  # width of one edit's id in the key of an edit list


class VerdictMemo:
    """The verdicts of the edit lists one context has validated, an int per
    list: fitness and steps packed together, or REJECTED.

    Each edit (point node id, operator, printed ingredient) gets a dense id
    from 1 in the order the memo first sees it, and a list's key packs its
    ids ID_BITS apiece, so a one-edit list's key is its edit's id and keys
    of different lists differ.  A list with an id that does not fit has no
    key and is never stored.  Every keyed verdict is stored the first time
    its list runs; the packed keys keep an entry small.

    The memo also keeps, by the same keys, the results of refinement's
    full-suite runs (`validate.refine_patches`): `trials` of
    minimization, `finals` of the minimized lists.  They run
    on other frame paths than the search and than each other, so where a
    deep recursion overflows they can differ, and no kind answers for
    another."""

    __slots__ = ("ids", "verdicts", "trials", "finals")

    def __init__(self) -> None:
        self.ids: dict[tuple, int] = {}
        self.verdicts: dict[int, int] = {}
        self.trials: dict[int, tuple[int, int]] = {}
        self.finals: dict[int, tuple] = {}

    def key(self, signature: tuple) -> Optional[int]:
        """The key of the edit list `signature`, or None if it has none."""
        ids = self.ids
        key = 0
        for edit in signature:
            edit_id = ids.get(edit)
            if edit_id is None:
                edit_id = ids[edit] = len(ids) + 1
            if edit_id >> ID_BITS:
                return None
            key = key << ID_BITS | edit_id
        return key


@dataclass
class RepairOutcome:
    patches: list
    stats: SearchStats
    config: RunConfig
    solutions: list[ProgramVariant]
    session: "RepairSession" = None

    def report_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "seed": self.config.seed,
            "patches": [p.to_dict() for p in self.patches],
            "stats": self.stats.to_dict(),
        }


class RepairSession:
    """One repair run: project + suite + configuration, with all shared
    search state (caches, pools, rng streams, statistics)."""

    def __init__(self, project: SourceProject, suite: Sequence[TestCase], config: RunConfig):
        config.validate()
        self.project = project
        self.suite = list(suite)
        self.config = config
        self.types = cached_types(project)
        self.stats = SearchStats()
        self.rng = RngStreams(config.seed)
        self.space = operator_space(config.operator_space)
        # per (point node id, operator name): the printed forms tried there,
        # "" for an operator without an ingredient, and the printed forms
        # of the entries sealed there
        self.tried: dict[tuple[int, str], set[str]] = {}
        self.solutions: list[ProgramVariant] = []
        self._variant_counter = 0
        # (point, operator) pairs with nothing left to try, and the stat a
        # pick of the pair adds to
        self._exhausted_pairs: dict[tuple[int, str], str] = {}
        self._validated_signatures: dict[tuple, Optional[int]] = {}
        # per (point, operator, entry): random-var's distinct forms drawn
        self._drawn_forms: dict[tuple[int, str, str], set[str]] = {}
        self._pool: Optional[IngredientPool] = None
        self._op_counter = 0
        self._start_time = 0.0
        self.verdicts: Optional[VerdictMemo] = None  # set while run() runs

        # the spectrum of the suite, shared by the sessions constructed at
        # this stack position; run_suite stays one frame below __init__
        baselines = project.memo("baselines", dict)
        key = (tuple(map(repr, self.suite)), config.step_budget, sys.getrecursionlimit(),
               stack_position(sys._getframe(1)))
        self.baseline = baselines.get(key)
        if self.baseline is None:
            matrix = run_suite(project, self.suite, config.step_budget)
            self.baseline = baselines[key] = Baseline.from_matrix(matrix)
        matrix = self.baseline.matrix
        if matrix.total_failing == 0:
            raise NoFailingTests("no failing tests: nothing to repair")
        self.baseline_sources = project.memo("sources", lambda: print_sources(project))

        # the points depend on the spectrum and on these three fields
        # alone, so sessions on the baseline share them
        key = (config.formula, config.max_suspicious, config.granularity)
        ranking = self.baseline.points.get(key)
        if ranking is None:
            suspicious = filter_suspicious(suspiciousness(matrix, config.formula),
                                           config.max_suspicious)
            points = create_modification_points(project, suspicious, config.granularity)
            ranking = self.baseline.points[key] = (
                points, prefix_sums(p.suspiciousness for p in points)
            )
        self.points, self._point_prefix = ranking

        self._scope = config.ingredient_scope or (
            "global" if config.operator_space == "r-expression" else "module"
        )
        self._ingredient_selection = config.ingredient_selection or "uniform"
        self._ingredient_transform = config.ingredient_transform or (
            "name-probability" if config.operator_space == "r-expression" else "none"
        )
        # what the ingredient selection strategy reads, resolved once
        selection = self._ingredient_selection
        self._similarity = self.similarity_index() if selection == "similarity" else None
        self._names = self.name_model() if selection == "name-probability" else None
        # the operators a pick can draw: weighted-random never draws weight 0
        self._drawable_ops = sum(
            config.operator_selection != "weighted-random" or config.operator_weights[op.name] > 0
            for op in self.space.operators
        )

    # -- lazy ingredient machinery ------------------------------------------

    def ingredient_pool(self) -> IngredientPool:
        """The session's pool; `pool_builds` counts that the session used
        one, whichever session built it."""
        if self._pool is None:
            self.stats.pool_builds += 1
            if self.config.operator_space == "r-expression":
                self._pool = self.project.memo(
                    ("template-pool", self._scope),
                    lambda: mine_templates(self.project, self.types, self._scope),
                )
            else:
                self._pool = self.project.memo(
                    ("statement-pool", self._scope),
                    lambda: build_pool(self.project, self._scope, "statement", self.types),
                )
        return self._pool

    def similarity_index(self) -> FunctionSimilarity:
        return self.project.memo("similarity", lambda: FunctionSimilarity(self.project))

    def name_model(self):
        return self.project.memo("name-model", lambda: build_name_model(self.project))

    # -- transformation creation ----------------------------------------------

    def _tried_at(self, point: ModificationPoint, op: RepairOperator) -> Optional[set[str]]:
        """The tried set of (point, operator), made on the pair's first
        pick, or None, with the pick counted (`_fruitless`), when the pair
        has nothing left to try.  Only here does the session read
        `_exhausted_pairs`, ask `op.applicable` and make a tried set; it
        asks on the first pick only, as applicability depends on the
        unmodified project alone."""
        pair = (point.node_id, op.name)
        stat = self._exhausted_pairs.get(pair)
        if stat is not None:
            return self._fruitless(point, op, stat)
        tried = self.tried.get(pair)
        if tried is None:
            if not op.applicable(self.project, self.project.node(point.node_id)):
                return self._fruitless(point, op, "not_applicable")
            tried = self.tried[pair] = set()
        return tried

    def _fruitless(self, point: ModificationPoint, op: RepairOperator, stat: str,
                   exhausted: bool = True) -> None:
        """Count a pick of (point, operator) that yields no transformation
        in `stat`: not_applicable, duplicates or exhausted_selections.  With
        `exhausted`, the pair has nothing left to try, and stays so as its
        tried set only grows, so its later picks count the same stat at once."""
        setattr(self.stats, stat, getattr(self.stats, stat) + 1)
        if exhausted:
            self._exhausted_pairs[point.node_id, op.name] = stat

    def space_exhausted(self, pick: int) -> bool:
        """Whether no (point, operator) pair that a pick of `pick` points
        can reach has anything left to try.  sequential point selection
        reaches only the top `pick` points, the same on every pick;
        weighted-random operator selection reaches only the operators of
        positive weight; and a pick marks only the pairs it reached."""
        reachable = len(self.points)
        if self.config.point_selection == "sequential":
            reachable = min(pick, reachable)
        return len(self._exhausted_pairs) >= reachable * self._drawable_ops

    def create_transformation(
        self, point: ModificationPoint, op: RepairOperator
    ) -> Optional[Transformation]:
        """The next untried transformation for (point, operator), or None
        (counted as not applicable, exhausted or duplicate: `_fruitless`).

        An operator that needs an ingredient takes an entry from the pool
        and reads the entry's candidates at the point from its plan
        (`_plan`), which is made once per project and shared by every
        session on it.  A transformation names its candidate by plan and
        index; the tree is built only when a variant is materialized.

        Each pick scans the entry's printed forms from the top for the
        first one not in the pair's tried set, adds it there, and a used-up
        plan seals the entry by adding the entry's own printed form, which
        `select_ingredient` then skips; so does a plan with no candidate
        (or the vanilla strategy's with out-of-scope variables).  Every
        form before the one the last pick took is in the set already, and
        the set only grows, so the scan takes what resuming after that pick
        would.  random-var instead draws the index of its candidate in the
        plan on every pick (`_draw_candidate`)."""
        tried = self._tried_at(point, op)
        if tried is None:
            return None
        if not op.needs_ingredient:
            if "" in tried:
                return self._fruitless(point, op, "duplicates")
            tried.add("")
            return Transformation(point, op)

        ingredient = select_ingredient(self.ingredient_pool(), point, tried,
                                       self._ingredient_selection, self.rng.ingredients,
                                       similarity=self._similarity, name_model=self._names)
        if ingredient is None:
            return self._fruitless(point, op, "exhausted_selections")
        if self._ingredient_transform == "random-var":
            return self._draw_candidate(point, op, ingredient, tried)
        plan = self._plan(ingredient, point)
        for index, printed in enumerate(plan.printed):
            if printed not in tried:
                tried.add(printed)
                return Transformation(point, op, plan, index)
        tried.add(ingredient.printed)  # no candidate left here: seal the entry
        return self._fruitless(point, op, "duplicates" if plan else "not_applicable",
                               exhausted=False)

    def _draw_candidate(
        self, point: ModificationPoint, op: RepairOperator, ingredient: Ingredient,
        tried: set[str],
    ) -> Optional[Transformation]:
        """random-var's pick: one candidate of the entry's plan, drawn from
        the session's stream.  Each variable in turn draws one of its
        `choices`, and the draws, read as a mixed-radix number, index the
        plan in product order; an index past the plan's cap is drawn again
        over the whole plan, so every candidate is equally likely.  The
        entry is sealed once the distinct forms drawn at the pair fill the
        plan, or at once when some variable has no name to draw."""
        plan = self._plan(ingredient, point)
        stream = self.rng.transform
        index = 0
        for names in plan.choices:
            if not names:
                tried.add(ingredient.printed)
                return self._fruitless(point, op, "not_applicable", exhausted=False)
            index = index * len(names) + stream.below(len(names))
        if index >= len(plan):
            index = stream.below(len(plan))
        printed = plan.printed[index]
        forms = self._drawn_forms.setdefault((point.node_id, op.name, ingredient.printed), set())
        forms.add(printed)
        new = printed not in tried
        tried.add(printed)
        if len(forms) >= len(plan):
            tried.add(ingredient.printed)
        if not new:
            return self._fruitless(point, op, "duplicates", exhausted=False)
        return Transformation(point, op, plan, index)

    def _plan(self, ingredient: Ingredient, point: ModificationPoint) -> Candidates:
        """The plan of `ingredient` at `point` (`transform_ingredient`),
        made and printed once per project and transform strategy.  Where no
        variable is out of scope, every point shares the plan
        `Ingredient.as_is`."""
        strategy = self._ingredient_transform
        plans = self.project.memo(("plans", strategy), dict)
        # by the entry's identity: equal printed forms from other scopes can
        # differ in type.  The plan holds the entry, so the id stays unique.
        key = (point.node_id, id(ingredient))
        plan = plans.get(key)
        if plan is None:
            model = self.name_model() if strategy == "name-probability" else None
            plan = plans[key] = transform_ingredient(ingredient, point.env, strategy,
                                                     name_model=model)
            if not plan.printed:  # `Ingredient.as_is` comes printed
                plan.printed.extend(print_tree(plan[i]) for i in range(len(plan)))
        return plan

    # -- variants ----------------------------------------------------------------

    def new_variant(self, transformations, generation: int) -> ProgramVariant:
        self._variant_counter += 1
        return ProgramVariant(self._variant_counter, list(transformations), generation)

    def materialize(self, transformations) -> Optional[SourceProject]:
        """Apply transformations in order to a variant; returns None when
        the result does not scope/type check.

        The variant copies only the path from each edited node up to its
        function root and shares every other node with the session
        project, which is never modified (`operators.apply_edits`).  Only
        the edited functions are type-checked, against the signatures of
        the whole project; the verdict equals that of a full check, because
        the session project passed it and operators never change a
        signature or move a node into another function.  Each ingredient
        is built here, from its plan, and spliced without another copy."""
        variant, edited = apply_edits(
            self.project, [(t.operator, t.point.node_id, t.concrete) for t in transformations]
        )
        try:
            check_project(variant, edited, self.types.signatures)
        except TypeCheckError:
            return None
        return variant

    def _validate(self, variant: ProgramVariant, iteration: int) -> Optional[int]:
        """Materialize + validate a variant; returns its fitness, or None
        when it was rejected by the scope/type gate.  A variant whose exact
        transformation sequence was already validated (possible via
        crossover recombination) reuses the recorded fitness.

        The verdict is also looked up in the memo that `run` took from the
        baseline, shared with the baseline's sessions run from the same
        stack position; a hit skips the materialization and the suite run
        and counts the variant exactly as running it would.  A miss runs the variant and stores its verdict
        under the list's key, if it has one (`VerdictMemo`)."""
        signature = edit_list(variant.transformations)
        if signature in self._validated_signatures:
            self.stats.duplicates += 1
            variant.fitness = self._validated_signatures[signature]
            return variant.fitness
        self.stats.variants_generated += 1
        for t in variant.transformations:
            self.stats.op_bucket(t.operator.name)["created"] += 1
        memo = self.verdicts
        key = memo.key(signature)
        verdict = memo.verdicts.get(key)
        if verdict is None:
            project = self.materialize(variant.transformations)
            if project is None:
                verdict = REJECTED
            else:
                result = validate_variant(project, self.baseline, self.config.step_budget)
                # fitness and steps packed into one int keep an entry small
                verdict = result.steps * (len(self.suite) + 1) + fitness(result)
            if key is not None:
                memo.verdicts[key] = verdict
        if verdict == REJECTED:
            self.stats.rejected_typecheck += 1
            self._validated_signatures[signature] = None
            return None
        steps, variant.fitness = divmod(verdict, len(self.suite) + 1)
        self.stats.validated += 1
        self.stats.time_steps += steps
        for t in variant.transformations:
            self.stats.op_bucket(t.operator.name)["validated"] += 1
        self._validated_signatures[signature] = variant.fitness
        if variant.fitness == 0:
            variant.discovery_iteration = iteration
            self.solutions.append(variant)
            self.stats.solutions += 1
            for t in variant.transformations:
                self.stats.op_bucket(t.operator.name)["solutions"] += 1
            if self.stats.validations_at_first_patch is None:
                self.stats.validations_at_first_patch = self.stats.validated
                self.stats.iteration_at_first_patch = iteration
        return variant.fitness

    # -- search steps ---------------------------------------------------------------

    def _stopped(self, pick: int = 0) -> bool:
        """Whether the search ends here, with the reason in `stop_reason`:
        enough solutions, the iteration or wall-clock budget spent, or, when
        the search picks `pick` points at a time, no pair such a pick can
        reach left to try (`space_exhausted`)."""
        config = self.config
        if len(self.solutions) >= config.max_solutions:
            reason = "solutions"
        elif self.stats.iterations >= config.max_iterations:
            reason = "iterations"
        elif (config.max_seconds is not None
              and time.monotonic() - self._start_time >= config.max_seconds):
            reason = "wall-clock"
        elif pick and self.space_exhausted(pick):
            reason = "exhausted"
        else:
            return False
        self.stats.stop_reason = reason
        return True

    def _mutations(self, count: int) -> list[Transformation]:
        """The transformations of one pick: `count` points, then for each
        point an operator and the next untried transformation of the pair;
        the pairs with none left add nothing.  The operator counter
        advances once per pick, and the pick's j-th point passes it plus j
        (`select_operator`)."""
        transformations = []
        counter = self._op_counter
        self._op_counter += 1
        for j, point in enumerate(select_points(self.points, self.config.point_selection, count,
                                                self.rng.points, self._point_prefix)):
            op = select_operator(self.space, self.config.operator_selection, self.rng.operators,
                                 weights=self.config.operator_weights, counter=counter + j)
            t = self.create_transformation(point, op)
            if t is not None:
                transformations.append(t)
        return transformations

    # -- navigation -------------------------------------------------------------------

    def run(self) -> RepairOutcome:
        self._start_time = time.monotonic()
        # every navigation calls _validate two frames below run, and run
        # calls refine_patches itself, so the stack position of run's caller
        # fixes where each suite run starts; the baseline fixes the rest
        key = (sys.getrecursionlimit(), stack_position(sys._getframe(1)))
        self.verdicts = self.baseline.memos.get(key)
        if self.verdicts is None:
            self.verdicts = self.baseline.memos[key] = VerdictMemo()
        try:
            if not self.points:
                self.stats.stop_reason = "no-search-space"
            else:
                NAVIGATIONS[self.config.navigation](self)
            patches = refine_patches(self)
        finally:
            self.verdicts = None
        return RepairOutcome(patches, self.stats, self.config, self.solutions, self)

    def _run_selective(self) -> None:
        pick = self.config.points_per_iteration
        while not self._stopped(pick):
            self.stats.iterations += 1
            transformations = self._mutations(pick)
            if transformations:
                self._validate(self.new_variant(transformations, 0), self.stats.iterations)

    def _exhaustive_candidates(self, point: ModificationPoint, op: RepairOperator):
        """Yield transformations for one (point, operator) pair in
        deterministic order: every candidate of every pool entry, in pool
        and plan order, whose printed form the pair has not tried, each
        added to the pair's tried set as it is yielded."""
        if not op.needs_ingredient:
            t = self.create_transformation(point, op)
            if t is not None:
                yield t
            return
        tried = self._tried_at(point, op)
        if tried is None:
            return
        for entry in self.ingredient_pool().entries(point.file, point.module):
            plan = self._plan(entry, point)
            for index, printed in enumerate(plan.printed):
                if printed not in tried:
                    tried.add(printed)
                    yield Transformation(point, op, plan, index)

    def _run_exhaustive(self) -> None:
        for point in select_points(self.points, "sequential", len(self.points), self.rng.points):
            for op in self.space.operators:
                for t in self._exhaustive_candidates(point, op):
                    if self._stopped():
                        return
                    self.stats.iterations += 1
                    self._validate(self.new_variant([t], 0), self.stats.iterations)
        if not self._stopped():
            self.stats.stop_reason = "completed"

    def _run_evolutionary(self) -> None:
        size = self.config.population
        population = []
        for _ in range(size):
            variant = self.new_variant([], 0)
            variant.fitness = self.baseline.failing_count
            population.append(variant)

        while not self._stopped(1):
            self.stats.iterations += 1
            generation = self.stats.iterations

            offspring = []
            produced_material = False
            for parent in sorted(population, key=lambda v: v.variant_id):
                child = self.new_variant(parent.transformations, generation)
                child.fitness = parent.fitness
                if self.rng.points.random() < self.config.p_mut:
                    for t in self._mutations(1):
                        child.transformations.append(t)
                        child.fitness = None
                        produced_material = True
                        if parent.transformations:
                            # a new transformation is tried at most once per
                            # run, so also validate it on the pristine program
                            offspring.append(self.new_variant([t], generation))
                offspring.append(child)

            # crossover yields extra children so that every mutated offspring
            # is still validated with exactly its own transformation list
            crossed = []
            order = list(range(len(offspring)))
            self.rng.crossover.shuffle(order)
            for k in range(0, len(order) - 1, 2):
                if self.rng.crossover.random() >= self.config.p_cross:
                    continue
                a, b = offspring[order[k]], offspring[order[k + 1]]
                if not a.transformations and not b.transformations:
                    continue
                cut_a = self.rng.crossover.below(len(a.transformations) + 1)
                cut_b = self.rng.crossover.below(len(b.transformations) + 1)
                for mixed in (
                    a.transformations[:cut_a] + b.transformations[cut_b:],
                    b.transformations[:cut_b] + a.transformations[cut_a:],
                ):
                    if mixed and mixed != a.transformations and mixed != b.transformations:
                        crossed.append(self.new_variant(mixed, generation))
            offspring.extend(crossed)

            for child in offspring:
                if child.fitness is not None:
                    continue
                if self._stopped():
                    return
                # a scope-rejected child keeps fitness None and dies out
                self._validate(child, generation)

            pool = population + offspring
            pool.sort(
                key=lambda v: (
                    v.fitness if v.fitness is not None else float("inf"),
                    v.generation_born,
                    v.variant_id,
                )
            )
            population = pool[:size]

            if not produced_material and self.space_exhausted(1):
                self.stats.stop_reason = "exhausted"
                return


# the navigation extension point: config lists its keys
NAVIGATIONS = {
    "exhaustive": RepairSession._run_exhaustive,
    "selective": RepairSession._run_selective,
    "evolutionary": RepairSession._run_evolutionary,
}


def navigate(project: SourceProject, suite: Sequence[TestCase], config: RunConfig) -> RepairOutcome:
    """Run a full repair search and return refined patches plus statistics."""
    return RepairSession(project, suite, config).run()
