"""Each pick of a (point, operator) pair is decided in one place.

`RepairSession.create_transformation` either returns the pair's next
untried transformation or counts the fruitless pick in exactly one of the
stats `not_applicable`, `duplicates` and `exhausted_selections`.  Whether
an operator applies at a point depends on the unmodified project alone, so
a session asks it once per pair, on the pair's first pick; materializing a
variant asks again, on the variant.
"""

from collections import Counter

import pytest

from minirepair import operators
from minirepair.engine import RepairSession, navigate
from minirepair.presets import config_from_preset

from conftest import corpus_bug_names, load_bug

PRESETS = ("jgenprog", "jkali", "jmutrepair", "deeprepair-lite", "cardumen", "tibra")
SEEDS = (1, 2, 3)
PICK_STATS = ("not_applicable", "duplicates", "exhausted_selections")


def runs(bug):
    """Every (project, suite, config) of one bug: the six presets, seeds
    1-3, all on one project."""
    project, suite, meta = load_bug(bug)
    for mode in PRESETS:
        for seed in SEEDS:
            yield project, suite, config_from_preset(mode, seed=seed,
                                                     step_budget=meta["step_budget"])


@pytest.mark.parametrize("bug", corpus_bug_names())
def test_applicability_asked_once_per_pair(monkeypatch, bug):
    calls = Counter()
    for cls in vars(operators).values():
        if (isinstance(cls, type) and issubclass(cls, operators.RepairOperator)
                and "applicable" in cls.__dict__):
            def counting(self, project, node, original=cls.__dict__["applicable"]):
                calls[project, node.node_id, self.name] += 1
                return original(self, project, node)

            monkeypatch.setattr(cls, "applicable", counting)
    pairs = 0
    for project, suite, config in runs(bug):
        calls.clear()
        navigate(project, suite, config)
        asked = [n for (asked_of, *_), n in calls.items() if asked_of is project]
        assert set(asked) <= {1}, (bug, config.mode, config.seed)
        pairs += len(asked)
    assert pairs


@pytest.mark.parametrize("bug", corpus_bug_names())
def test_every_fruitless_pick_counts_one_stat(monkeypatch, bug):
    picks = []
    create = RepairSession.create_transformation

    def recording(self, point, op):
        before = [getattr(self.stats, stat) for stat in PICK_STATS]
        t = create(self, point, op)
        added = [getattr(self.stats, stat) - n for stat, n in zip(PICK_STATS, before)]
        picks.append((t is None, added))
        return t

    monkeypatch.setattr(RepairSession, "create_transformation", recording)
    for project, suite, config in runs(bug):
        picks.clear()
        navigate(project, suite, config)
        for fruitless, added in picks:
            assert sorted(added) == ([0, 0, 1] if fruitless else [0, 0, 0]), (
                bug, config.mode, config.seed)
