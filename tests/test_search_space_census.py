"""A census of each preset's one-edit search space on the corpus.

Exhaustive navigation with no solution or iteration limit validates every
candidate of a preset's space once.  The acceptance suite checks that the
presets `bug.json` lists in `reachable_by` repair the bug; this checks the
labels both ways: a preset's space holds a test-suite-adequate patch
exactly when the preset is listed.  tibra and deeprepair-lite differ only
in how they rank an entry's substitutions and pick its candidates, so
their whole spaces are the same.
"""

import pytest

from minirepair.engine import edit_list, navigate
from minirepair.presets import PRESET_NAMES, config_from_preset

from conftest import bug_meta, corpus_bug_names, load_bug

UNLIMITED = 10**9

# candidates validated per preset over the whole corpus
ITERATIONS = {
    "jkali": 156,
    "jmutrepair": 89,
    "jgenprog": 1242,
    "tibra": 1918,
    "deeprepair-lite": 1918,
    "cardumen": 2020,
}


@pytest.fixture(scope="module")
def census():
    """(bug, preset) -> the stats and solutions of the preset's whole space."""
    runs = {}
    for bug in corpus_bug_names():
        project, suite, meta = load_bug(bug)
        for preset in PRESET_NAMES:
            config = config_from_preset(preset, navigation="exhaustive",
                                        max_solutions=UNLIMITED, max_iterations=UNLIMITED,
                                        step_budget=meta["step_budget"])
            outcome = navigate(project, suite, config)
            runs[bug, preset] = (outcome.stats, outcome.solutions)
    return runs


def test_every_space_is_enumerated_to_the_end(census):
    assert len(census) == 132
    reasons = {stats.stop_reason for stats, _ in census.values()}
    assert reasons <= {"completed", "no-search-space"}


def test_a_space_holds_a_patch_exactly_when_reachable_by_lists_the_preset(census):
    mismatched = [
        (bug, preset) for (bug, preset), (_, solutions) in census.items()
        if bool(solutions) != (preset in bug_meta(bug)["reachable_by"])
    ]
    assert mismatched == []


def test_space_sizes_per_preset(census):
    totals = dict.fromkeys(PRESET_NAMES, 0)
    for (_, preset), (stats, _) in census.items():
        totals[preset] += stats.iterations
    assert totals == ITERATIONS


def test_tibra_and_deeprepair_lite_spaces_are_equal(census):
    """random-var plans every substitution that name-similarity ranks, so
    on every bug both spaces hold the same candidates and patches."""
    def space(bug, preset):
        stats, solutions = census[bug, preset]
        return stats.iterations, {edit_list(v.transformations) for v in solutions}

    differing = [bug for bug in corpus_bug_names()
                 if space(bug, "tibra") != space(bug, "deeprepair-lite")]
    assert differing == []
