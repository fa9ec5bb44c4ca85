"""Multi-tenant model: per-tenant rate limits, priority, fair share.

At million-user scale the admission gate cannot treat the queue as one
anonymous stream: a single tenant replaying a hot prompt can saturate
the token bucket and starve everyone else *while* enjoying a near-100%
prefix-cache hit rate.  The tenant model gives the gate two levers:

* **Per-tenant token buckets** — each tenant's sustained work rate is
  bounded independently of the global bucket (`rate_tokens_per_s`,
  `burst_tokens`), so one tenant's surge defers *that tenant*, not the
  fleet.
* **Weighted fair share under pressure** — when KV pressure crosses the
  gate's fair-share mark, a tenant whose share of admitted work exceeds
  ``slack`` times its weight-proportional entitlement is deferred first.
  Below the pressure mark the ledger only observes (work-conserving:
  idle capacity is never withheld for fairness).

The ledger is pure seeded-clock arithmetic — no wall time, no
randomness — so admission decisions stay byte-identical across reruns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

__all__ = ["TenantConfig", "TenantLedger"]


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's admission contract."""

    tenant_id: int
    #: Sustained work-token (prompt + generation) rate; ``None`` = no
    #: per-tenant bucket (the global bucket still applies).
    rate_tokens_per_s: Optional[float] = None
    burst_tokens: float = 50_000.0
    #: Scheduling priority for the tenant's requests (engines shed
    #: lowest priority first; the prefix pool evicts their blocks first).
    priority: int = 0
    #: Fair-share weight: entitlement is ``weight / sum(weights of
    #: tenants seen so far)`` of admitted work.
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.rate_tokens_per_s is not None and self.rate_tokens_per_s <= 0:
            raise ValueError("rate_tokens_per_s must be positive (or None)")
        if self.burst_tokens <= 0:
            raise ValueError("burst_tokens must be positive")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


@dataclass
class _TenantState:
    config: TenantConfig
    bucket: float
    last_refill: float = 0.0
    admitted_tokens: float = 0.0
    accepted: int = 0
    deferred: int = 0


class TenantLedger:
    """Per-tenant buckets and admitted-work shares behind the gate."""

    def __init__(
        self,
        tenants: Iterable[TenantConfig] = (),
        default: Optional[TenantConfig] = None,
    ):
        self._templates: Dict[int, TenantConfig] = {}
        for cfg in tenants:
            if cfg.tenant_id in self._templates:
                raise ValueError(f"duplicate tenant_id {cfg.tenant_id}")
            self._templates[cfg.tenant_id] = cfg
        #: Contract applied to tenants without an explicit entry.
        self.default = default
        self._states: Dict[int, _TenantState] = {}
        self.total_admitted_tokens = 0.0

    def _state(self, tenant_id: int) -> _TenantState:
        state = self._states.get(tenant_id)
        if state is None:
            template = self._templates.get(tenant_id, self.default)
            if template is None:
                template = TenantConfig(tenant_id=tenant_id)
            elif template.tenant_id != tenant_id:
                template = TenantConfig(
                    tenant_id=tenant_id,
                    rate_tokens_per_s=template.rate_tokens_per_s,
                    burst_tokens=template.burst_tokens,
                    priority=template.priority,
                    weight=template.weight,
                )
            state = _TenantState(config=template, bucket=template.burst_tokens)
            self._states[tenant_id] = state
        return state

    # -- token bucket ---------------------------------------------------------
    def has_budget(self, tenant_id: int, cost: float, now: float) -> bool:
        """Refill the tenant's bucket to ``now`` and check ``cost`` fits.

        Does not spend — the gate spends only on a final ACCEPT, so a
        decision deferred for other reasons never drains the bucket.
        """
        state = self._state(tenant_id)
        rate = state.config.rate_tokens_per_s
        if rate is None:
            return True
        if now > state.last_refill:
            state.bucket = min(
                state.config.burst_tokens,
                state.bucket + (now - state.last_refill) * rate,
            )
            state.last_refill = now
        return cost <= state.bucket

    def spend(self, tenant_id: int, cost: float) -> None:
        """Charge an accepted request to the tenant's bucket and share."""
        state = self._state(tenant_id)
        if state.config.rate_tokens_per_s is not None:
            state.bucket -= cost
        state.admitted_tokens += cost
        state.accepted += 1
        self.total_admitted_tokens += cost

    def note_deferred(self, tenant_id: int) -> None:
        self._state(tenant_id).deferred += 1

    # -- fair share -----------------------------------------------------------
    def over_fair_share(self, tenant_id: int, slack: float) -> bool:
        """Is the tenant's admitted-work share above ``slack`` times its
        weighted entitlement?  Entitlement is computed over the tenants
        seen so far (the gate cannot know about tenants that never
        showed up).  A tenant that has not yet consumed one burst's
        worth of work is never over-share: with thousands of seen
        tenants the proportional entitlement shrinks toward zero, and
        without the absolute floor *any* repeat tenant would be gated.
        """
        state = self._state(tenant_id)
        if self.total_admitted_tokens <= 0:
            return False
        if state.admitted_tokens <= state.config.burst_tokens:
            return False
        total_weight = sum(s.config.weight for s in self._states.values())
        entitlement = state.config.weight / total_weight
        share = state.admitted_tokens / self.total_admitted_tokens
        return share > slack * entitlement

    # -- introspection --------------------------------------------------------
    def seen_tenants(self) -> Dict[int, Dict[str, float]]:
        """Per-tenant counters for operator visibility."""
        return {
            tid: {
                "accepted": s.accepted,
                "deferred": s.deferred,
                "admitted_tokens": s.admitted_tokens,
                "weight": s.config.weight,
            }
            for tid, s in sorted(self._states.items())
        }
