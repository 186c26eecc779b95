"""Seeded generator: determinism, bounds, stream independence."""

from minirepair.rng import RngStreams, SplitMix64, _fnv1a64


def test_same_seed_same_stream():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_known_reference_values():
    # SplitMix64 from seed 0: first outputs of the reference algorithm
    gen = SplitMix64(0)
    assert gen.next_u64() == 0xE220A8397B1DCDAF
    assert gen.next_u64() == 0x6E789E6AA1B965F4


def test_below_bounds_and_coverage():
    gen = SplitMix64(7)
    seen = set()
    for _ in range(2000):
        value = gen.below(5)
        assert 0 <= value < 5
        seen.add(value)
    assert seen == {0, 1, 2, 3, 4}


def test_random_unit_interval():
    gen = SplitMix64(3)
    values = [gen.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.4 < sum(values) / len(values) < 0.6


def test_weighted_index_distribution():
    gen = SplitMix64(11)
    counts = [0, 0, 0]
    n = 20_000
    for _ in range(n):
        counts[gen.weighted_index([0.5, 0.25, 0.25])] += 1
    assert abs(counts[0] / n - 0.5) < 0.02
    assert abs(counts[1] / n - 0.25) < 0.02
    assert abs(counts[2] / n - 0.25) < 0.02


def test_shuffle_is_permutation_and_deterministic():
    gen = SplitMix64(5)
    items = list(range(10))
    gen.shuffle(items)
    assert sorted(items) == list(range(10))
    gen2 = SplitMix64(5)
    items2 = list(range(10))
    gen2.shuffle(items2)
    assert items == items2


def test_streams_are_independent():
    streams = RngStreams(123)
    points_draws = [streams.points.next_u64() for _ in range(4)]
    fresh = RngStreams(123)
    # consuming another stream never perturbs this one
    fresh.operators.next_u64()
    fresh.ingredients.next_u64()
    assert [fresh.points.next_u64() for _ in range(4)] == points_draws
    # distinct purposes yield distinct streams
    again = RngStreams(123)
    assert again.points.next_u64() != again.operators.next_u64()


def test_each_stream_is_seeded_by_its_purpose_hash():
    for seed in (0, 1, 42, -1, (1 << 64) + 5):
        streams = RngStreams(seed)
        for purpose in RngStreams.PURPOSES:
            expected = SplitMix64(seed ^ _fnv1a64(purpose))
            stream = getattr(streams, purpose)
            assert [stream.next_u64() for _ in range(3)] == [
                expected.next_u64() for _ in range(3)
            ], (seed, purpose)
