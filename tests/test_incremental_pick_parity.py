"""Ingredient and weighted picks against reference algorithms.

`select_ingredient` filters the point's pool list against the tried set
of the (point, operator) pair on every pick.  `SplitMix64.prefix_index`
bisects running sums that a caller builds once.  Each reference below
must make the same picks and the same draws from the generator, over
random sequences of picks and additions to the tried sets:

- `filter_whole_pool` spells out the pick: it filters the pool by looking
  each entry up under its (point, operator) pair, then draws with
  `choice`, sorts by similarity, or weighs the survivors with
  `scan_weighted_index`;
- `scan_weighted_index` sums the weights and scans them on every draw.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minirepair.ingredients import (
    FunctionSimilarity,
    build_name_model,
    build_pool,
    select_ingredient,
)
from minirepair.lang.ast import parse_project
from minirepair.lang.types import check_project
from minirepair.rng import SplitMix64, prefix_sums


def scan_weighted_index(rng, weights):
    """SplitMix64.weighted_index before running sums.  The total was
    `float(sum(weights))`, which adds left to right on CPython 3.11 (3.12
    compensates the rounding), so it is added that way here."""
    total = 0.0
    for w in weights:
        total += w
    if total <= 0.0:
        raise ValueError("weighted_index() requires a positive total weight")
    r = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


def filter_whole_pool(pool, point, op_name, strategy, rng, tried, similarity=None,
                      name_model=None):
    """select_ingredient written out: filter, then draw, sort or weigh.
    `tried` maps each (point node id, operator name) to its tried forms."""
    entries = pool.entries(point.file, point.module)
    candidates = [e for e in entries
                  if e.printed not in tried.get((point.node_id, op_name), ())]
    if not candidates:
        return None
    if strategy == "uniform":
        return rng.choice(candidates)
    if strategy == "similarity":
        ranked = sorted(
            candidates,
            key=lambda e: (
                -similarity.similarity(point.function, e.origin_function),
                e.origin_function,
                e.node_id,
            ),
        )
        return ranked[0]
    weights = [name_model.score(e.ref_names) for e in candidates]
    return candidates[scan_weighted_index(rng, weights)]


# -- weighted draws ----------------------------------------------------------------


def draws(pick, seed):
    """The index drawn (or the error) and the generator's next draw."""
    rng = SplitMix64(seed)
    try:
        result = pick(rng)
    except ValueError as exc:
        result = str(exc)
    return result, rng.next_u64()


weights = st.lists(
    st.one_of(st.just(0.0), st.sampled_from([0.1, 0.25, 1 / 3, 1.0, 7.0]),
              st.floats(0.0, 1e6, allow_nan=False)),
    min_size=1, max_size=10,
)


@settings(max_examples=400, deadline=None)
@given(weights=weights, seed=st.integers(0, 2**64 - 1))
def test_prefix_draws_match_the_scan(weights, seed):
    expected = draws(lambda rng: scan_weighted_index(rng, weights), seed)
    assert draws(lambda rng: rng.weighted_index(weights), seed) == expected
    prefix = prefix_sums(weights)
    assert draws(lambda rng: rng.prefix_index(prefix), seed) == expected


class EdgeRng(SplitMix64):
    """A generator whose every float is 1.0, so that a draw equals the
    total.  SplitMix64 stays below 1.0, and then a draw stays below the
    total, but both algorithms keep a fallback for one that reaches it."""

    def random(self):
        return 1.0


@pytest.mark.parametrize("weights", [[1.0, 2.0], [1.0, 2.0, 0.0], [0.1, 0.2, 0.0, 0.0],
                                     [3.0], [0.0, 5.0, 0.0]])
def test_draw_at_the_rounding_edge(weights):
    prefix = prefix_sums(weights)
    assert EdgeRng(0).random() * prefix[-1] >= prefix[-1]
    expected = scan_weighted_index(EdgeRng(0), weights)
    assert expected == len(weights) - 1
    assert EdgeRng(0).prefix_index(prefix) == expected
    assert EdgeRng(0).weighted_index(weights) == expected


# -- ingredient picks ----------------------------------------------------------------

SOURCE = """\
fn alpha(a: int, b: int) -> int {
    let s = a + b;
    s = s * 2;
    if (s > b) {
        s = s - a;
    }
    return s;
}

fn beta(a: int, b: int) -> int {
    let s = a + b;
    s = s * 3;
    return s - b;
}

fn gamma(x: int, count: int) -> int {
    let total = 0;
    while (count > 0) {
        total = total + x;
        count = count - 1;
    }
    return total;
}
"""


class Point:
    def __init__(self, node_id, function):
        self.node_id = node_id
        self.function = function
        self.file = "main.mini"
        self.module = "."


PROJECT = parse_project([("main.mini", SOURCE)])
POOL = build_pool(PROJECT, "file", "statement", check_project(PROJECT))
ENTRIES = POOL.entries("main.mini", ".")
SIMILARITY = FunctionSimilarity(PROJECT)
NAME_MODEL = build_name_model(PROJECT)
POINTS = (Point(3, "alpha"), Point(40, "gamma"))
OPS = ("insert-before", "replace")

# (what, point, operator, entry): pick an entry, pick and add its form,
# pick and add a form of it that differs from its own, add another entry's
# form (a candidate printing like that entry), or add an unrelated form
actions = st.lists(
    st.tuples(st.sampled_from(["pick", "pick-add", "pick-add-other", "add-entry", "add-other"]),
              st.integers(0, len(POINTS) - 1), st.sampled_from(OPS),
              st.integers(0, len(ENTRIES) - 1)),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(
    strategy=st.sampled_from(["uniform", "similarity", "name-probability"]),
    seed=st.integers(0, 2**64 - 1),
    actions=actions,
)
def test_untried_lists_pick_as_the_whole_pool_filter(strategy, seed, actions):
    assert len(ENTRIES) >= 10
    tried = {}  # (point node id, operator name) -> printed forms, as a session keeps
    new_rng, old_rng = SplitMix64(seed), SplitMix64(seed)
    kwargs = {"similarity": SIMILARITY, "name_model": NAME_MODEL}
    for what, p, op, k in actions:
        point = POINTS[p]
        if what.startswith("add"):
            form = ENTRIES[k].printed if what == "add-entry" else f"other {k};"
            tried.setdefault((point.node_id, op), set()).add(form)
            continue
        pair = tried.setdefault((point.node_id, op), set())
        new = select_ingredient(POOL, point, pair, strategy, new_rng, **kwargs)
        old = filter_whole_pool(POOL, point, op, strategy, old_rng, tried, **kwargs)
        assert new is old
        if new is not None and what != "pick":
            form = new.printed if what == "pick-add" else new.printed + " "
            pair.add(form)
    assert new_rng.next_u64() == old_rng.next_u64()
    for point in POINTS:  # every pair used up: both agree there is nothing left
        for op in OPS:
            pair = tried.setdefault((point.node_id, op), set())
            pair.update(entry.printed for entry in ENTRIES)
            assert select_ingredient(POOL, point, pair, strategy, new_rng, **kwargs) is None
