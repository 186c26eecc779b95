"""Ingredient transformation: one candidate plan per entry versus the
paths it replaced.

The project plans an entry's candidates once per point, and each pick
scans that plan from the top (random-var's picks draw an index into the
plan instead).
Two oracles keep the algorithms that plan replaced, and each must give the
same search, byte for byte:

- `rebuild_every_pick`, for name-probability (cardumen) and
  name-similarity (deeprepair-lite): on every pick it rebuilds the entry's
  whole ranked candidate list with `transform_ingredient` and scans it
  from the top for a form the (point, operator) pair has not tried;
- `draw_every_pick`, for none (jgenprog) and random-var (tibra): the eager
  list of at most one tree of the old `transform_ingredient`, with
  random-var's entry sealed once its distinct drawn forms fill the
  substitution space.
"""

import dataclasses

import pytest

from minirepair import engine
from minirepair.engine import RepairSession, Transformation, navigate
from minirepair.ingredients import (
    out_of_scope_vars,
    substitute_variables,
    transform_ingredient,
)
from minirepair.lang.printer import print_tree
from minirepair.presets import config_from_preset

from conftest import corpus_bug_names, load_bug, one_tree_plan

PRESETS = ("cardumen", "deeprepair-lite")
FIXED_PRESETS = ("jgenprog", "tibra")
SEEDS = (1, 2, 3)


def claim(self, point, op, printed):
    """Add `printed` to the tried set of (point, operator); False when it
    was there already."""
    tried = self.tried.setdefault((point.node_id, op.name), set())
    if printed in tried:
        return False
    tried.add(printed)
    return True


def attempts(session):
    """Every (point, operator, printed form) the session tried or sealed."""
    return {(*pair, form) for pair, forms in session.tried.items() for form in forms}


def select_entry(self, point, op):
    """The steps of create_transformation before the ingredient is
    transformed: (None, outcome) when they decide the pick, else
    (ingredient, None)."""
    node = self.project.node(point.node_id)
    if not op.applicable(self.project, node):
        self._fruitless(point, op, "not_applicable")
        return None, None
    if not op.needs_ingredient:
        if not claim(self, point, op, ""):
            self._fruitless(point, op, "duplicates")
            return None, None
        return None, Transformation(point, op, None)
    ingredient = engine.select_ingredient(
        self.ingredient_pool(),
        point,
        self.tried.setdefault((point.node_id, op.name), set()),
        self._ingredient_selection,
        self.rng.ingredients,
        similarity=self._similarity,
        name_model=self._names,
    )
    if ingredient is None:
        self._fruitless(point, op, "exhausted_selections")
    return ingredient, None


def rebuild_every_pick(self, point, op):
    """RepairSession.create_transformation before plans, for the ranked
    strategies."""
    assert self._ingredient_transform in ("name-probability", "name-similarity")
    ingredient, outcome = select_entry(self, point, op)
    if ingredient is None:
        return outcome
    candidates = transform_ingredient(
        ingredient,
        point.env,
        self._ingredient_transform,
        name_model=self.name_model()
        if self._ingredient_transform == "name-probability"
        else None,
    )
    if not candidates:
        claim(self, point, op, ingredient.printed)
        self.stats.not_applicable += 1
        return None
    for cand in candidates:
        printed = print_tree(cand)
        if claim(self, point, op, printed):
            return Transformation(point, op, one_tree_plan(cand))
    claim(self, point, op, ingredient.printed)
    self.stats.duplicates += 1
    return None


def substitution_space_size(ingredient, env):
    """Number of distinct full substitutions for the out-of-scope variables
    (0 when some variable's type has no in-scope counterpart)."""
    size = 1
    for _, ty in out_of_scope_vars(ingredient, env):
        size *= sum(env_ty == ty for env_ty in env.values())
    return size


def eager_transform(ingredient, env, strategy, rng):
    """transform_ingredient before plans, for none and random-var: a list
    of at most one tree."""
    out_vars = out_of_scope_vars(ingredient, env)
    if strategy == "none":
        return [] if out_vars else [ingredient.subtree.clone()]
    if not out_vars:
        return [ingredient.subtree.clone()]
    mapping = {}
    for name, ty in out_vars:
        names = sorted(n for n, env_ty in env.items() if env_ty == ty)
        if not names:
            return []
        mapping[name] = rng.choice(names)
    return [substitute_variables(ingredient, mapping)]


def draw_every_pick(self, point, op):
    """RepairSession.create_transformation before plans, for none and
    random-var."""
    assert self._ingredient_transform in ("none", "random-var")
    ingredient, outcome = select_entry(self, point, op)
    if ingredient is None:
        return outcome
    key = (point.node_id, op.name, ingredient.printed)
    candidates = eager_transform(ingredient, point.env, self._ingredient_transform,
                                 self.rng.transform)
    if not candidates:
        claim(self, point, op, ingredient.printed)
        self.stats.not_applicable += 1
        return None
    random_var = self._ingredient_transform == "random-var"
    forms = self.__dict__.setdefault("oracle_forms", {}).setdefault(key, set())
    chosen = None
    for cand in candidates:
        printed = print_tree(cand)
        if random_var:
            forms.add(printed)
        if claim(self, point, op, printed):
            chosen = Transformation(point, op, one_tree_plan(cand))
            break
    if random_var:
        space = substitution_space_size(ingredient, point.env)
        if space and len(forms) >= space:
            claim(self, point, op, ingredient.printed)
    if chosen is None:
        if not random_var:
            claim(self, point, op, ingredient.printed)
        self.stats.duplicates += 1
    return chosen


def run_with(create, project, suite, config):
    """navigate with `create` as the session's create_transformation; both
    algorithms run from the same Python stack depth (the interpreter's
    stack-overflow verdicts depend on it)."""
    saved = RepairSession.create_transformation
    RepairSession.create_transformation = create
    try:
        return navigate(project, suite, config)
    finally:
        RepairSession.create_transformation = saved


def observed(outcome):
    return (
        outcome.report_dict(),
        [p.diff_text.encode() for p in outcome.patches],
        dataclasses.asdict(outcome.stats),
        attempts(outcome.session),
    )


@pytest.mark.parametrize("bug", corpus_bug_names())
def test_plans_match_rebuilding_on_every_pick(bug):
    project, suite, meta = load_bug(bug)
    for mode in PRESETS:
        for seed in SEEDS:
            config = config_from_preset(mode, seed=seed)
            config.step_budget = meta["step_budget"]
            new = run_with(RepairSession.create_transformation, project, suite, config)
            old = run_with(rebuild_every_pick, project, suite, config)
            assert observed(new) == observed(old), (bug, mode, seed)


@pytest.mark.parametrize("bug", corpus_bug_names())
def test_plans_match_drawing_on_every_pick(bug):
    project, suite, meta = load_bug(bug)
    for mode in FIXED_PRESETS:
        for seed in SEEDS:
            config = config_from_preset(mode, seed=seed)
            config.step_budget = meta["step_budget"]
            new = run_with(RepairSession.create_transformation, project, suite, config)
            old = run_with(draw_every_pick, project, suite, config)
            assert observed(new) == observed(old), (bug, mode, seed)


# -- one entry, picked until it is used up ---------------------------------------


def _entry_with_forms(session, count):
    """The first (point, operator, entry) with at least `count` distinct
    candidate forms, and those forms in rank order."""
    pool = session.ingredient_pool()
    model = session.name_model()
    for point in session.points:
        for op in session.space.operators:
            if not op.needs_ingredient:
                continue
            if not op.applicable(session.project, session.project.node(point.node_id)):
                continue
            for entry in pool.entries(point.file, point.module):
                forms = [
                    print_tree(t)
                    for t in transform_ingredient(
                        entry, point.env, session._ingredient_transform, name_model=model
                    )
                ]
                if len(forms) >= count and len(set(forms)) == len(forms):
                    return point, op, entry, forms
    raise AssertionError("no entry with enough forms")


def _pick_until_used_up(monkeypatch, mode, create, claim_after_first=(), sessions=2):
    """Pick one fixed entry at one (point, operator) until the session
    reports it used up, in each of `sessions` sessions on one project.
    After each session's first pick, the ranks in `claim_after_first` are
    put in the pair's tried set, as another entry producing the same form
    would.
    Returns the forms each session picked, the number of trees printed in
    all sessions, the last session and the entry."""
    project, suite, meta = load_bug("mid-formula")
    entry = None

    def select_fixed(pool, pt, tried, *args, **kwargs):
        return None if entry.printed in tried else entry

    printed_trees = []

    def counting_print(node):
        printed_trees.append(node)
        return print_tree(node)

    runs = []
    for _ in range(sessions):
        session = RepairSession(project, suite, config_from_preset(mode, seed=1))
        point, op, entry, forms = _entry_with_forms(session, 4)
        monkeypatch.setattr(engine, "select_ingredient", select_fixed)
        monkeypatch.setattr(engine, "print_tree", counting_print)
        picked = []
        for _ in range(len(forms) + 2):
            t = create(session, point, op)
            picked.append(None if t is None else t.edit[2])
            if len(picked) == 1:
                for rank in claim_after_first:
                    assert claim(session, point, op, forms[rank])
        monkeypatch.undo()
        runs.append(picked)
    return runs, len(printed_trees), session, point, op, entry, forms


@pytest.mark.parametrize("mode", PRESETS)
def test_form_claimed_past_the_cursor_is_skipped(monkeypatch, mode):
    claims = (1, 3)
    runs, built, session, point, op, entry, forms = _pick_until_used_up(
        monkeypatch, mode, RepairSession.create_transformation, claims
    )
    unclaimed = [f for rank, f in enumerate(forms) if rank not in claims]
    assert runs[0][: len(unclaimed)] == unclaimed
    assert runs[1] == runs[0]
    assert built == len(forms)  # every candidate is built at most once per project
    oracle = _pick_until_used_up(monkeypatch, mode, rebuild_every_pick, claims)
    assert oracle[0] == runs
    assert dataclasses.asdict(oracle[2].stats) == dataclasses.asdict(session.stats)


@pytest.mark.parametrize("mode", PRESETS)
def test_used_up_plan_seals_the_entry_and_counts_a_duplicate(monkeypatch, mode):
    runs, built, session, point, op, entry, forms = _pick_until_used_up(
        monkeypatch, mode, RepairSession.create_transformation
    )
    assert runs == [forms + [None, None]] * 2
    assert built == len(forms)  # every candidate is built at most once per project
    # the pick after the last form finds the plan used up: the entry is
    # sealed and one duplicate counted; the next pick finds no entry
    assert session.stats.duplicates == 1
    assert session.stats.exhausted_selections == 1
    assert entry.printed in session.tried[point.node_id, op.name]
    oracle = _pick_until_used_up(monkeypatch, mode, rebuild_every_pick)
    assert oracle[0] == runs
    assert dataclasses.asdict(oracle[2].stats) == dataclasses.asdict(session.stats)
