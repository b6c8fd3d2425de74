"""Per-tenant admission control: token buckets, quotas, allowlists.

Tenancy is declared, not authenticated: callers name themselves with
the ``X-Repro-Tenant`` header (absent → ``anonymous``).  That is the
right trust model for a lab-internal simulation farm — the goal is
*fairness and blast-radius control between cooperating users*, not
security.  Three independent knobs, all optional:

- **rate / burst** — a token bucket per tenant (tokens refill at
  ``rate_per_s``, capacity ``burst``).  An empty bucket answers 429
  with a ``Retry-After`` derived from the refill rate, so a chatty
  tenant backs off precisely as long as it takes to earn a token —
  it cannot crowd out the queue for everyone else.
- **max_inflight** — a cap on admitted-but-unanswered work per
  tenant, bounding how much of the shared queue one tenant can own.
- **allowlist** — when set, unknown tenants get 403 (``denied``).

Defaults leave everything disabled so the v1 surface is untouched:
``TenancyController()`` with no arguments admits every request.

The bucket clock is injectable (``clock=``) so tests and the chaos
harness stay deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.service import protocol as P


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits for one tenant (or the default for all).

    ``rate_per_s=None`` disables rate limiting; ``max_inflight=None``
    disables the inflight cap; ``max_kernels=None`` lets a tenant
    register unlimited DSL kernels (``POST /v2/kernels``).
    """

    rate_per_s: float | None = None
    burst: int = 8
    max_inflight: int | None = None
    max_kernels: int | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "TenantQuota":
        return cls(rate_per_s=doc.get("rate_per_s"),
                   burst=int(doc.get("burst", 8)),
                   max_inflight=doc.get("max_inflight"),
                   max_kernels=doc.get("max_kernels"))


@dataclass(frozen=True)
class AdmissionVerdict:
    """Outcome of one tenancy check."""

    allowed: bool
    status: str = P.STATUS_EXECUTED      # only meaningful when denied
    reason: str = ""
    retry_after_s: float | None = None


_ALLOW = AdmissionVerdict(True)


class _Bucket:
    """Token bucket on an injectable monotonic clock."""

    __slots__ = ("tokens", "stamp")

    def __init__(self, burst: float, now: float) -> None:
        self.tokens = float(burst)
        self.stamp = now

    def take(self, rate: float, burst: float, now: float) -> float:
        """Consume one token; returns 0.0 on success, else the wait
        (seconds) until the next token exists."""
        self.tokens = min(float(burst),
                          self.tokens + (now - self.stamp) * rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / rate if rate > 0 else 60.0


class TenancyController:
    """Tracks per-tenant buckets and inflight counts.

    ``quotas`` maps tenant name → :class:`TenantQuota`; ``default``
    applies to tenants without an entry.  ``allowed`` is an optional
    allowlist of tenant names (None → everyone welcome).
    """

    def __init__(self, *, quotas: dict[str, TenantQuota] | None = None,
                 default: TenantQuota | None = None,
                 allowed: set[str] | None = None,
                 clock=time.monotonic) -> None:
        self.quotas = dict(quotas or {})
        self.default = default or TenantQuota()
        self.allowed = set(allowed) if allowed is not None else None
        self.clock = clock
        self._buckets: dict[str, _Bucket] = {}
        self.inflight: dict[str, int] = {}
        #: Served-request tally per tenant, for fairness accounting
        #: (reported by :meth:`stats`).
        self.served: dict[str, int] = {}
        #: Content hashes of DSL kernels each tenant has registered.
        #: Re-submitting an already-owned kernel is idempotent — it
        #: never consumes quota, so retries are always safe.
        self.kernels: dict[str, set[str]] = {}

    @property
    def enabled(self) -> bool:
        """True when any knob can actually reject a request."""
        if self.allowed is not None:
            return True
        quotas = [self.default, *self.quotas.values()]
        return any(q.rate_per_s is not None
                   or q.max_inflight is not None
                   or q.max_kernels is not None
                   for q in quotas)

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default)

    # -- admission -----------------------------------------------------

    def admit(self, tenant: str) -> AdmissionVerdict:
        """Check one request; on success the tenant holds one inflight
        slot until :meth:`release`."""
        if self.allowed is not None and tenant not in self.allowed:
            return AdmissionVerdict(
                False, P.STATUS_DENIED,
                f"tenant {tenant!r} is not on the allowlist")
        quota = self.quota_for(tenant)
        if quota.max_inflight is not None \
                and self.inflight.get(tenant, 0) >= quota.max_inflight:
            return AdmissionVerdict(
                False, P.STATUS_THROTTLED,
                f"tenant {tenant!r} at max_inflight="
                f"{quota.max_inflight}", retry_after_s=0.1)
        if quota.rate_per_s is not None:
            now = self.clock()
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = _Bucket(
                    quota.burst, now)
            wait = bucket.take(quota.rate_per_s, quota.burst, now)
            if wait > 0.0:
                return AdmissionVerdict(
                    False, P.STATUS_THROTTLED,
                    f"tenant {tenant!r} over rate limit "
                    f"({quota.rate_per_s:g}/s)",
                    retry_after_s=max(0.05, round(wait, 3)))
        self.inflight[tenant] = self.inflight.get(tenant, 0) + 1
        return _ALLOW

    def admit_kernel(self, tenant: str,
                     kernel_hash: str) -> AdmissionVerdict:
        """Check (and on success charge) one kernel registration.

        The count is per distinct content hash: re-submitting a kernel
        the tenant already owns is admitted without consuming quota,
        so client retries and gateway re-broadcasts stay idempotent.
        """
        if self.allowed is not None and tenant not in self.allowed:
            return AdmissionVerdict(
                False, P.STATUS_DENIED,
                f"tenant {tenant!r} is not on the allowlist")
        owned = self.kernels.setdefault(tenant, set())
        if kernel_hash in owned:
            return _ALLOW
        quota = self.quota_for(tenant)
        if quota.max_kernels is not None \
                and len(owned) >= quota.max_kernels:
            return AdmissionVerdict(
                False, P.STATUS_THROTTLED,
                f"tenant {tenant!r} at max_kernels="
                f"{quota.max_kernels}", retry_after_s=60.0)
        owned.add(kernel_hash)
        return _ALLOW

    def release(self, tenant: str, *, served: bool = False) -> None:
        """Return the inflight slot taken by :meth:`admit`."""
        count = self.inflight.get(tenant, 0)
        if count <= 1:
            self.inflight.pop(tenant, None)
        else:
            self.inflight[tenant] = count - 1
        if served:
            self.served[tenant] = self.served.get(tenant, 0) + 1

    # -- observability -------------------------------------------------

    def stats(self) -> dict:
        return {
            "enabled": self.enabled,
            "inflight": dict(self.inflight),
            "served": dict(self.served),
            "kernels": {tenant: len(hashes)
                        for tenant, hashes in self.kernels.items()},
        }


def controller_from_config(doc: dict | None) -> TenancyController:
    """Build a controller from a JSON config document.

    Shape::

        {"default": {"rate_per_s": 50, "burst": 20},
         "tenants": {"ci": {"rate_per_s": 200, "max_inflight": 32}},
         "allowed": ["ci", "bench"]}

    ``None``/``{}`` → a disabled controller (admit everything).
    """
    if not doc:
        return TenancyController()
    quotas = {name: TenantQuota.from_dict(q)
              for name, q in (doc.get("tenants") or {}).items()}
    default = (TenantQuota.from_dict(doc["default"])
               if isinstance(doc.get("default"), dict) else None)
    allowed = (set(doc["allowed"])
               if isinstance(doc.get("allowed"), list) else None)
    return TenancyController(quotas=quotas, default=default,
                             allowed=allowed)
