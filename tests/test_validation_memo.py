"""Validation verdicts shared by the repair sessions of one project.

The sessions on one project object share the baseline spectrum
(`SourceProject.analysis`), keyed by the stack position the session was
constructed from.  Each baseline keeps the modification points ranked from
it and the verdict memos of its sessions, keyed by the stack position the
session was run from; a memo holds the verdicts of edit lists and the
results of refinement's full-suite runs.  Every verdict is stored the
first time its edit list runs.  The sessions must not notice:
each report and patch equals that of a session on a freshly loaded
project at the same stack depth, in any order, and that of sessions that
run every list of several edits, storing only one-edit verdicts.
"""

import dataclasses
import json
import sys

import pytest

from minirepair import engine, validate
from minirepair.config import CHOICES
from minirepair.engine import ID_BITS, RepairSession, VerdictMemo, edit_list, navigate
from minirepair.lang.ast import nodes_equal
from minirepair.presets import config_from_preset

from conftest import load_bug, nested

PRESETS = ("jgenprog", "jkali", "jmutrepair", "deeprepair-lite", "cardumen", "tibra")
PARITY_BUGS = ("ledger-scope", "log-noise", "two-modules")
# deep enough that MiniLang recursion overflows at a smaller call depth than
# at top level, which changes some outcomes on these two bugs
DEEP_BUGS = ("ledger-scope", "log-noise")
DEPTH = 600
# the presets whose search validates lists of several edits
EVOLUTIONARY = ("jgenprog", "deeprepair-lite")


def memos(project) -> list:
    """The verdict memos of every baseline of `project`."""
    return [memo for baseline in project.analysis["baselines"].values()
            for memo in baseline.memos.values()]


def config(mode, seed, meta):
    return config_from_preset(mode, seed=seed, step_budget=int(meta["step_budget"]))


def artifacts(outcome):
    """The report.json bytes `repair` writes and every patch's bytes."""
    report = json.dumps(outcome.report_dict(), indent=2, sort_keys=True) + "\n"
    return report, [patch.diff_text for patch in outcome.patches]


def artifacts_at(depth, project, suite, run, meta):
    """The artifacts of one (mode, seed) run started under `depth` extra
    frames; every caller gets the same stack depth from here on."""
    return nested(depth, lambda: artifacts(navigate(project, suite, config(*run, meta))))


REFINING = ("revalidate", "refine_patches")  # the callers of refinement's suite runs


def record_refinement(monkeypatch) -> list:
    """A list that gets (caller, edit list) of each suite run refinement
    makes from now on, and ("materialize", edit list) of each variant it
    materializes."""
    runs = []
    real_materialize = RepairSession.materialize
    real_validate = validate.validate_variant

    def materialize(self, transformations):
        if sys._getframe(1).f_code.co_name in REFINING:
            runs.append(("materialize", edit_list(transformations)))
        return real_materialize(self, transformations)

    def validate_variant(*args, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        if caller in REFINING:
            runs.append((caller, runs[-1][1]))  # the list materialized just before
        return real_validate(*args, **kwargs)

    monkeypatch.setattr(RepairSession, "materialize", materialize)
    monkeypatch.setattr(validate, "validate_variant", validate_variant)
    return runs


def count_refinement(runs) -> tuple[int, int]:
    """(trial runs, final runs) recorded in `runs`."""
    return sum(c == "revalidate" for c, _ in runs), sum(c == "refine_patches" for c, _ in runs)


# neg-guard's jgenprog and deeprepair-lite solutions have two edits, so
# refinement's minimization trials repeat across seeds
@pytest.mark.parametrize("bug", PARITY_BUGS + ("neg-guard",))
def test_shared_verdicts_give_fresh_artifacts(bug, monkeypatch):
    refined = record_refinement(monkeypatch)
    runs = [(mode, seed) for mode in PRESETS for seed in range(1, 7)]
    fresh = {}
    for run in runs:
        project, suite, meta = load_bug(bug)
        fresh[run] = artifacts_at(0, project, suite, run, meta)
    fresh_trials, fresh_finals = count_refinement(refined)
    for order in (runs, runs[::-1]):
        refined.clear()
        project, suite, meta = load_bug(bug)
        for run in order:
            assert artifacts_at(0, project, suite, run, meta) == fresh[run], (bug, run)
        (memo,) = memos(project)
        assert memo.verdicts
        # sessions that find the same fix refine it once per project
        trials, finals = count_refinement(refined)
        assert finals < fresh_finals
        assert trials < fresh_trials or fresh_trials == 0
    if bug == "neg-guard":
        assert fresh_trials > 0


def count_materialized_lists(monkeypatch) -> list[int]:
    """A one-item list counting the variants of several edits materialized
    from now on."""
    count = [0]
    real_materialize = RepairSession.materialize

    def materialize(self, transformations):
        count[0] += len(transformations) > 1
        return real_materialize(self, transformations)

    monkeypatch.setattr(RepairSession, "materialize", materialize)
    return count


def store_no_lists(monkeypatch):
    """The oracle rule: a list of several edits has no key, so it always
    runs, and only one-edit verdicts are stored."""
    real_key = VerdictMemo.key
    monkeypatch.setattr(VerdictMemo, "key", lambda self, signature:
                        real_key(self, signature) if len(signature) == 1 else None)


def test_stored_lists_give_fresh_artifacts(monkeypatch):
    materialized = count_materialized_lists(monkeypatch)
    runs = [(mode, seed) for mode in EVOLUTIONARY for seed in range(1, 9)]
    fresh_lists = warm_lists = 0
    for bug in PARITY_BUGS:
        fresh = {}
        materialized[0] = 0
        for run in runs:
            project, suite, meta = load_bug(bug)
            fresh[run] = artifacts_at(0, project, suite, run, meta)
        # a session sees each list once, so a session on a fresh project
        # answers no list of several edits from the memo
        fresh_lists += 2 * materialized[0]
        materialized[0] = 0
        for order in (runs, runs[::-1]):
            project, suite, meta = load_bug(bug)
            for run in order:
                assert artifacts_at(0, project, suite, run, meta) == fresh[run], (bug, run)
        warm_lists += materialized[0]
    assert warm_lists < fresh_lists


def observed(outcome):
    return [p.diff_text.encode() for p in outcome.patches], dataclasses.asdict(outcome.stats)


def test_stored_lists_match_running_every_list(monkeypatch):
    materialized = count_materialized_lists(monkeypatch)
    runs = [(mode, seed) for mode in PRESETS for seed in range(1, 7)]

    def warm_sessions(bug):
        project, suite, meta = load_bug(bug)
        return [observed(navigate(project, suite, config(*run, meta))) for run in runs]

    stored_lists = oracle_lists = 0
    for bug in PARITY_BUGS + ("count-down", "neg-guard"):
        materialized[0] = 0
        stored = warm_sessions(bug)
        stored_lists += materialized[0]
        materialized[0] = 0
        with monkeypatch.context() as patch:
            store_no_lists(patch)
            oracle = warm_sessions(bug)
        oracle_lists += materialized[0]
        for run, got, expected in zip(runs, stored, oracle):
            assert got == expected, (bug, run)
    assert stored_lists < oracle_lists


@pytest.mark.parametrize("bug", DEEP_BUGS)
def test_sessions_deeper_on_the_stack_keep_their_own_verdicts(bug):
    runs = [(mode, seed) for mode in PRESETS for seed in (1, 2, 3)]
    project, suite, meta = load_bug(bug)
    top = {}
    for run in runs:  # fills the memos at top level
        top[run] = artifacts_at(0, project, suite, run, meta)
    deep = {}
    for run in runs:
        deep[run] = artifacts_at(DEPTH, project, suite, run, meta)
    for run in runs:
        fresh_project, fresh_suite, _ = load_bug(bug)
        assert deep[run] == artifacts_at(DEPTH, fresh_project, fresh_suite, run, meta), run
    # the test has teeth only while deep runs differ from top-level ones
    assert any(deep[run] != top[run] for run in runs)
    assert len(memos(project)) == 2
    assert len(project.analysis["baselines"]) == 2
    # each stack position keeps its own refinement results
    assert all(memo.finals for memo in memos(project))


@pytest.mark.parametrize("mode", ("jgenprog", "jkali", "cardumen"))
def test_a_repeated_one_edit_variant_runs_nothing(mode, monkeypatch):
    searched = []  # (edits, suite run) of every variant the search materializes
    refining = []
    real_materialize = RepairSession.materialize
    real_validate = engine.validate_variant
    real_refine = engine.refine_patches

    def materialize(self, transformations):
        if not refining:
            searched.append([len(transformations), False])
        return real_materialize(self, transformations)

    def validate_variant(*args, **kwargs):
        searched[-1][1] = True
        return real_validate(*args, **kwargs)

    def refine_patches(session):
        refining.append(True)
        try:
            return real_refine(session)
        finally:
            refining.pop()

    monkeypatch.setattr(RepairSession, "materialize", materialize)
    monkeypatch.setattr(engine, "validate_variant", validate_variant)
    monkeypatch.setattr(engine, "refine_patches", refine_patches)
    project, suite, meta = load_bug("count-down")
    runs = []
    for _ in range(3):  # all sessions from one stack position
        searched.clear()
        runs.append((artifacts(navigate(project, suite, config(mode, 1, meta))), list(searched)))
    (first, first_searched), (second, second_searched), (third, third_searched) = runs
    assert second == first and third == first
    assert any(edits == 1 and ran for edits, ran in first_searched)
    # every verdict is stored at first sight, so the later sessions
    # materialize nothing
    assert second_searched == [] and third_searched == []
    if config(mode, 1, meta).navigation == "evolutionary":
        assert any(edits > 1 for edits, _ in first_searched)


def edit_lists(count, length):
    """`count` distinct lists of `length` edits, which differ in their first edit."""
    return [((first, "op", None),) + tuple((k, "op", "x") for k in range(length - 1))
            for first in range(1000, 1000 + count)]


def test_a_list_whose_ids_do_not_fit_has_no_key(monkeypatch):
    memo = VerdictMemo()
    for length in (2, 3, 4):
        keys = [memo.key(signature) for signature in edit_lists(64, length)]
        # the lists differ only in their first edit
        assert len(set(keys)) == len(keys)
    one = edit_lists(1, 1)[0]
    assert memo.key(one) == memo.ids[one[0]]  # a one-edit list's key is its edit's id

    monkeypatch.setattr(engine, "ID_BITS", 2)  # ids 1 to 3 fit
    memo = VerdictMemo()
    edits = [signature[0] for signature in edit_lists(4, 1)]
    assert memo.key(tuple(edits[:3])) is not None
    assert memo.key(tuple(edits[3:])) is None  # its id is 4
    assert memo.key((edits[0], edits[3])) is None


def test_the_search_stores_a_list_at_first_sight(monkeypatch):
    materialized = count_materialized_lists(monkeypatch)
    project, suite, meta = load_bug("count-down")
    lists = []
    for _ in range(3):
        materialized[0] = 0
        navigate(project, suite, config("jgenprog", 1, meta))
        (memo,) = memos(project)
        lists.append((materialized[0], sum(key >> ID_BITS > 0 for key in memo.verdicts)))
    (ran, stored), again, third = lists
    assert ran > 0 and stored == ran
    assert again == third == (0, ran)


def test_one_key_names_one_concrete_tree(corpus_names, monkeypatch):
    seen = {}  # (bug, point, operator, printed ingredient) -> first concrete tree
    repeats = 0
    real_validate = RepairSession._validate

    def validate(self, variant, iteration):
        nonlocal repeats
        if len(variant.transformations) == 1:
            t = variant.transformations[0]
            key = (bug, *t.edit)
            if key in seen:
                first = seen[key]
                assert (first is None) == (t.concrete is None), key
                assert first is None or nodes_equal(first, t.concrete), key
                repeats += 1
            else:
                seen[key] = t.concrete
        return real_validate(self, variant, iteration)

    monkeypatch.setattr(RepairSession, "_validate", validate)
    for bug in corpus_names:
        project, suite, meta = load_bug(bug)
        for mode in PRESETS:
            for seed in (1, 2, 3):
                navigate(project, suite, config(mode, seed, meta))
    assert repeats > 1000


def test_a_third_session_refines_nothing(monkeypatch):
    runs = record_refinement(monkeypatch)
    project, suite, meta = load_bug("neg-guard")
    sessions = []
    for _ in range(3):  # all sessions from one stack position
        runs.clear()
        sessions.append((artifacts(navigate(project, suite, config("jgenprog", 1, meta))),
                         list(runs)))
    (first, first_runs), (second, second_runs), (third, third_runs) = sessions
    assert second == first and third == first
    assert all(count_refinement(first_runs))
    assert any(caller == "materialize" for caller, _ in first_runs)
    # refinement stores each result at first sight
    assert second_runs == [] and third_runs == []


def test_trial_and_final_results_never_answer_each_other(monkeypatch):
    runs = record_refinement(monkeypatch)
    project, suite, meta = load_bug("neg-guard")
    # seed 2's minimization drops one of its solution's two edits
    navigate(project, suite, config("jgenprog", 2, meta))
    trials = {edits for caller, edits in runs if caller == "revalidate"}
    finals = {edits for caller, edits in runs if caller == "refine_patches"}
    # the minimized list was a trial too, and its final run still ran
    assert trials & finals
    (memo,) = memos(project)
    assert set(memo.trials) & set(memo.finals)


def ranked_points(session):
    """What a session ranks from the spectrum, with every point's env: each
    point carries its suspiciousness, and the cut-off decides which exist."""
    return [(p, p.env) for p in session.points], session._point_prefix


def test_sessions_that_differ_in_ranking_fields_get_fresh_points():
    configs = [
        config_from_preset("jgenprog", formula=formula, max_suspicious=cut,
                           granularity=granularity)
        for formula in CHOICES["formula"]
        for cut in (1, 3, 100)
        for granularity in CHOICES["granularity"]
    ]
    project, suite, _ = load_bug("two-modules")
    shared = []
    for _ in range(2):
        shared.extend(ranked_points(RepairSession(project, suite, c)) for c in configs)
    for c, got, again in zip(configs, shared, shared[len(configs):]):
        fresh_project, fresh_suite, _ = load_bug("two-modules")
        assert got == ranked_points(RepairSession(fresh_project, fresh_suite, c))
        assert again == got
    (baseline,) = project.analysis["baselines"].values()
    assert len(baseline.points) == len(configs)
