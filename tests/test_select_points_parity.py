"""Point selection: precomputed running sums and the one-point draw
versus the copy-and-pop loop.

`select_points` takes the running sums of the points' suspiciousness from
the session, which builds them once, and draws a single point straight
from the point list by bisecting them.  `copy_and_pop` below is the function that replaced: it copies the
point list and rebuilds the weight list on every call and every pick.
Both must make the same draws from the generator and return the same
points, or raise the same error.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from minirepair.engine import ModificationPoint, select_points
from minirepair.rng import SplitMix64, prefix_sums

from test_incremental_pick_parity import scan_weighted_index


def copy_and_pop(points, strategy, count, rng):
    """select_points before the weight list was built once per session."""
    if not points:
        raise ValueError("no modification points to select from")
    count = min(count, len(points))
    if strategy == "sequential":
        ordered = sorted(points, key=lambda p: (-p.suspiciousness, p.node_id))
        return ordered[:count]
    remaining = list(points)
    picked = []
    use_weights = strategy == "weighted-random" and any(
        p.suspiciousness > 0 for p in remaining
    )
    for _ in range(count):
        if use_weights:
            idx = scan_weighted_index(rng, [p.suspiciousness for p in remaining])
        else:
            idx = rng.below(len(remaining))
        picked.append(remaining.pop(idx))
    return picked


def outcome(select, rng):
    """The picked node ids (or the error) and the generator's next draw."""
    try:
        result = [p.node_id for p in select()]
    except ValueError as exc:
        result = (type(exc), str(exc))
    return result, rng.next_u64()


weights = st.one_of(
    st.lists(st.just(0.0), min_size=1, max_size=8),
    st.lists(st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.5, 1.0]), min_size=1, max_size=8),
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(
    sv=weights,
    strategy=st.sampled_from(["uniform-random", "weighted-random", "sequential"]),
    count=st.integers(1, 9),
    seed=st.integers(0, 2**64 - 1),
    passed=st.booleans(),
)
def test_same_draws_as_copy_and_pop(sv, strategy, count, seed, passed):
    points = [
        ModificationPoint(node_id=10 + i, granularity="statement", suspiciousness=w, env={})
        for i, w in enumerate(sv)
    ]
    old_rng, new_rng = SplitMix64(seed), SplitMix64(seed)
    expected = outcome(lambda: copy_and_pop(points, strategy, count, old_rng), old_rng)
    given_prefix = prefix_sums(sv) if passed else None
    actual = outcome(
        lambda: select_points(points, strategy, count, new_rng, given_prefix), new_rng
    )
    assert actual == expected
    if passed:
        assert given_prefix == prefix_sums(sv)  # the caller's list is never consumed
