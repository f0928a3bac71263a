"""Seeded deterministic random source.

All "general"/"random" choices in constructions are drawn from this
splitmix64 generator so that every probabilistic step is reproducible from a
recorded 64-bit seed, independent of platform and Python version.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1


class Rng:
    """splitmix64 stream."""

    __slots__ = ("state", "seed")

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self.state = self.seed

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def randrange(self, a: int, b: int | None = None) -> int:
        """Uniform int in [0, a) or [a, b).  Rejection-free modulo draw is fine
        here: ranges are tiny compared to 2^64, bias < 2^-40."""
        if b is None:
            lo, hi = 0, a
        else:
            lo, hi = a, b
        n = hi - lo
        if n <= 0:
            raise ValueError("empty range")
        return lo + self.next64() % n

    def fork(self, label: int) -> "Rng":
        """Independent child stream; deterministic in (seed, label)."""
        child = Rng((self.seed * 0x9E3779B97F4A7C15 + label + 1) & MASK64)
        return child


def as_rng(seed_or_rng) -> Rng:
    if isinstance(seed_or_rng, Rng):
        return seed_or_rng
    return Rng(int(seed_or_rng))
