"""Deterministic seeded randomness.

All stochastic decisions in the search are driven by SplitMix64, a small,
well-known 64-bit generator (Steele, Lea & Flood 2014).  Implementing it
here (rather than relying on the stdlib Mersenne Twister) pins the byte
stream forever: identical seeds produce identical draws on any platform
and any Python version.  The searches built on them repeat only under one
CPython minor version, because a deep MiniLang recursion can end where
Python's stack runs out, which differs between versions (see `interp`).

Each distinct purpose (point selection, operator selection, ingredient
selection, ingredient transformation, crossover) gets its own stream
derived from the master seed, so enabling or disabling one strategy never
perturbs the draws of another.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

_MASK64 = (1 << 64) - 1


def prefix_sums(weights) -> list:
    """Running sums of `weights`, added left to right; the last one is the
    total."""
    return list(accumulate(weights))


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


class SplitMix64:
    """SplitMix64 generator with helpers for unbiased bounded draws."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), rejection-sampled to avoid modulo bias."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def choice(self, seq):
        if not seq:
            raise ValueError("choice() on empty sequence")
        return seq[self.below(len(seq))]

    def weighted_index(self, weights) -> int:
        """Index drawn proportionally to the given non-negative weights."""
        return self.prefix_index(prefix_sums(weights))

    def prefix_index(self, prefix) -> int:
        """`weighted_index` of the weights whose running sums are `prefix`
        (`prefix_sums`): the first index whose sum exceeds a draw in
        [0, total), or the last index for a draw that reaches the total.
        A caller drawing many times from fixed weights builds the prefix
        once, and each draw bisects it."""
        total = float(prefix[-1]) if prefix else 0.0
        if total <= 0.0:
            raise ValueError("weighted_index() requires a positive total weight")
        r = self.random() * total
        return min(bisect_right(prefix, r), len(prefix) - 1)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


class RngStreams:
    """Per-purpose generators split from one master seed."""

    PURPOSES = ("points", "operators", "ingredients", "transform", "crossover")
    # each purpose's stream seed is the master seed xor the purpose's hash
    _SALTS = tuple((purpose, _fnv1a64(purpose)) for purpose in PURPOSES)

    def __init__(self, seed: int):
        self.seed = seed
        for purpose, salt in self._SALTS:
            setattr(self, purpose, SplitMix64((seed & _MASK64) ^ salt))
