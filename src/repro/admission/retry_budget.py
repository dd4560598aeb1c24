"""Per-tenant retry budget (gRPC-style retry throttling).

Every successful operation deposits a small credit; every retry spends
one token.  When the budget is empty, retries fail fast with
:class:`RetryBudgetExhaustedError` instead of piling onto an already
overloaded system — the feedback loop that turns a transient overload
into a metastable failure is cut at the client.
"""

from __future__ import annotations

from ..errors import RetryBudgetExhaustedError
from ..obs import MetricsRegistry

__all__ = ["RetryBudget"]


class RetryBudget:
    """Token-counting retry throttle for one tenant."""

    def __init__(self, max_tokens: float = 10.0, success_credit: float = 0.1,
                 tenant: str = "default", registry=None):
        self.max_tokens = max_tokens
        self.success_credit = success_credit
        self.tenant = tenant
        self.tokens = max_tokens
        registry = registry if registry is not None else MetricsRegistry()
        self._c_spent = registry.counter("retry_budget.spent", tenant=tenant)
        self._c_exhausted = registry.counter("retry_budget.exhausted",
                                             tenant=tenant)
        self._g_tokens = registry.gauge("retry_budget.tokens", tenant=tenant)
        self._g_tokens.set(self.tokens)

    def on_success(self) -> None:
        """An operation succeeded; replenish a fractional credit."""
        self.tokens = min(self.max_tokens,
                          self.tokens + self.success_credit)
        self._g_tokens.set(self.tokens)

    def try_spend(self) -> bool:
        """Spend one token for a retry; False when the budget is dry."""
        if self.tokens < 1.0:
            self._c_exhausted.inc()
            return False
        self.tokens -= 1.0
        self._c_spent.inc()
        self._g_tokens.set(self.tokens)
        return True

    def check(self, attempts: int) -> None:
        """Spend or raise :class:`RetryBudgetExhaustedError`."""
        if not self.try_spend():
            raise RetryBudgetExhaustedError(self.tenant, attempts)
