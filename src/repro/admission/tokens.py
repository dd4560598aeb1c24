"""Deterministic token bucket on simulator time.

Refill is computed lazily from elapsed sim time (no timer events), so a
bucket costs nothing while idle and its state is a pure function of the
observation times — byte-deterministic across runs by construction.
"""

from __future__ import annotations

__all__ = ["TokenBucket"]


class TokenBucket:
    """Token bucket with ``rate_per_s`` sustained rate and ``burst`` cap.

    All times are simulator milliseconds.  Tokens may be fractional;
    ``try_take`` only succeeds when the full amount is available (no
    debt), which keeps rejection decisions crisp and testable.  The
    granter of every gateway :class:`~repro.admission.queue.WorkQueue`.
    """

    def __init__(self, rate_per_s: float, burst: float,
                 now_ms: float = 0.0):
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._tokens = burst
        self._last_ms = now_ms

    def _refill(self, now_ms: float) -> None:
        if now_ms <= self._last_ms:
            return
        self._tokens = min(
            self.burst,
            self._tokens + (now_ms - self._last_ms) * self.rate_per_s / 1000.0)
        self._last_ms = now_ms

    def try_take(self, now_ms: float, n: float = 1.0) -> bool:
        """Take ``n`` tokens if fully available; False otherwise."""
        self._refill(now_ms)
        if self._tokens + 1e-9 < n:
            return False
        self._tokens -= n
        return True

    def time_until(self, n: float, now_ms: float) -> float:
        """Milliseconds until ``n`` tokens will be available (0 if now)."""
        self._refill(now_ms)
        deficit = n - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit * 1000.0 / self.rate_per_s
