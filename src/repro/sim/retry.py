"""Seeded retry backoff shared by the DistSender and the transaction
coordinator.

Chaos runs showed that fixed ("randomless") backoff lets symmetric
contenders retry in lockstep forever; exponential backoff with seeded
jitter breaks the symmetry while keeping every run reproducible.
"""

from __future__ import annotations

import random

__all__ = ["ExponentialBackoff"]


class ExponentialBackoff:
    """Exponential backoff with decorrelating jitter.

    ``next_delay()`` returns ``min(max_ms, base_ms * MULTIPLIER**attempt)``
    scaled by a uniform jitter in ``[1 - JITTER, 1]``, drawn from the
    supplied RNG so concurrent retriers sharing one seeded RNG stay
    deterministic as a population but never synchronize.
    """

    MULTIPLIER = 2.0
    JITTER = 0.5

    def __init__(self, rng: random.Random,
                 base_ms: float = 1.0, max_ms: float = 500.0):
        self._rng = rng
        self.base_ms = base_ms
        self.max_ms = max_ms
        self.attempt = 0

    def next_delay(self) -> float:
        """Delay for the next retry; advances the attempt counter."""
        raw = self.base_ms * (self.MULTIPLIER ** self.attempt)
        self.attempt += 1
        capped = min(self.max_ms, raw)
        return capped * (1.0 - self.JITTER * self._rng.random())
