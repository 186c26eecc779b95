"""Validation verdicts shared by the repair sessions of one project.

The sessions on one project object share the baseline spectrum and the
verdict of every one-edit variant (`SourceProject.analysis`), keyed by the
stack position the session was started from.  The sessions must not
notice: each report and patch equals that of a session on a freshly
loaded project at the same stack depth, in any order.
"""

import json

import pytest

from minirepair import engine
from minirepair.engine import RepairSession, navigate
from minirepair.lang.ast import nodes_equal
from minirepair.presets import config_from_preset

from conftest import load_bug, nested

PRESETS = ("jgenprog", "jkali", "jmutrepair", "deeprepair-lite", "cardumen", "tibra")
PARITY_BUGS = ("ledger-scope", "log-noise", "two-modules")
# deep enough that MiniLang recursion overflows at a smaller call depth than
# at top level, which changes some outcomes on these two bugs
DEEP_BUGS = ("ledger-scope", "log-noise")
DEPTH = 600


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


@pytest.mark.parametrize("bug", PARITY_BUGS)
def test_shared_verdicts_give_fresh_artifacts(bug):
    runs = [(mode, seed) for mode in PRESETS for seed in (1, 2, 3, 4)]
    fresh = {}
    for run in runs:
        project, suite, meta = load_bug(bug)
        fresh[run] = artifacts_at(0, project, suite, run, meta)
    for order in (runs, runs[::-1]):
        project, suite, meta = load_bug(bug)
        for run in order:
            assert artifacts_at(0, project, suite, run, meta) == fresh[run], (bug, run)
        (verdicts,) = project.analysis["verdicts"].values()
        assert verdicts


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
    assert len(project.analysis["verdicts"]) == 2
    assert len(project.analysis["baselines"]) == 2


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
    for _ in range(2):  # both sessions from one stack position
        searched.clear()
        runs.append((artifacts(navigate(project, suite, config(mode, 1, meta))), list(searched)))
    (first, first_searched), (again, again_searched) = runs
    assert again == first
    assert any(edits == 1 and ran for edits, ran in first_searched)
    # only lists of several edits still get materialized and run
    assert again_searched == [entry for entry in first_searched if entry[0] > 1]
    if config(mode, 1, meta).navigation == "evolutionary":
        assert any(edits > 1 for edits, _ in again_searched)


def test_one_key_names_one_concrete_tree(corpus_names, monkeypatch):
    seen = {}  # (bug, point, operator, printed ingredient) -> first concrete tree
    repeats = 0
    real_validate = RepairSession._validate

    def validate(self, variant, iteration):
        nonlocal repeats
        if len(variant.transformations) == 1:
            t = variant.transformations[0]
            key = (bug, t.point.node_id, t.operator.name, t.concrete_printed)
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
