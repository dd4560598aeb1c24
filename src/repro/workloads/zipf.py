"""Key-choice distributions for YCSB (Zipfian and uniform)."""

from __future__ import annotations

import bisect
import itertools
import random

__all__ = ["ZipfGenerator", "UniformGenerator"]


class ZipfGenerator:
    """Zipf-distributed integers in [0, n) with YCSB's default skew.

    Uses a precomputed CDF (fine for the key counts simulated here) so
    draws are O(log n) and deterministic under a seed.
    """

    def __init__(self, n: int, theta: float = 0.99, seed: int = 0):
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = n
        self.theta = theta
        cdf = list(itertools.accumulate(
            1.0 / float(k) ** theta for k in range(1, n + 1)))
        total = cdf[-1]
        self._cdf = [c / total for c in cdf]
        self._rng = random.Random(seed)
        # YCSB scrambles ranks so hot keys are spread over the keyspace.
        self._permutation = list(range(n))
        random.Random(seed ^ 0x5bd1e995).shuffle(self._permutation)

    def next(self) -> int:
        u = self._rng.random()
        rank = bisect.bisect_left(self._cdf, u)
        return self._permutation[min(rank, self.n - 1)]


class UniformGenerator:
    """Uniform integers in [0, n)."""

    def __init__(self, n: int, seed: int = 0):
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = n
        self._rng = random.Random(seed)

    def next(self) -> int:
        return self._rng.randrange(self.n)
