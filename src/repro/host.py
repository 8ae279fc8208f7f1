"""Multi-tenant SessionHost: thousands of collaboration sets per process.

The paper's scalability argument (section 5.1.3) is that commit cost is per
*collaboration set*, not global: independent collaborations never
synchronize with each other, so a server hosting many small ones should
scale linearly in tenant count at bounded latency.  This module is the
runtime that actually exercises that claim:

* A :class:`SessionHost` multiplexes independent collaboration sets
  (*tenants*) over **one shared transport** — shared TCP connections,
  shared event loop, one :class:`~repro.obs.events.EventBus` and one
  transport-level :class:`~repro.obs.metrics.MetricsRegistry` across all
  tenants.
* Each tenant's :class:`~repro.core.session.Session` runs over a
  :class:`~repro.transport.base.TenantTransport` facade, so the whole
  protocol stack (site runtimes, engines, views, failure managers) is
  completely unchanged — the facade routes through the transport's
  ``(tenant, site)`` addressing.  Tenant 0 is the tenant a bare
  ``Session(transport=...)`` on the same transport occupies.
* Tenants activate **lazily**: an idle collaboration costs nothing until
  its first :meth:`SessionHost.tenant` call, and :meth:`SessionHost.evict`
  (or the ``max_active`` LRU bound) releases routing state again.  Frames
  still in flight to an evicted tenant are dropped and counted by the
  transport, never raised.
* Fan-out stays roster-aware: each tenant session's roster contains only
  that tenant's sites, so its traffic reaches only the processes that
  replicate its objects and a failure notice for one tenant's site never
  leaks into another tenant's protocol (cross-tenant isolation).

See docs/HOST.md for the architecture and the ``host_1k_open`` /
``host_1k_saturated`` workloads of perf/ for the 1,000-tenant load harness.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.session import Session
from repro.errors import ReproError
from repro.obs.events import EventBus
from repro.transport.base import TenantTransport, Transport


class _ActiveTenant:
    """One activated collaboration set: its session and its facade."""

    __slots__ = ("session", "facade")

    def __init__(self, session: Session, facade: TenantTransport) -> None:
        self.session = session
        self.facade = facade


class SessionHost:
    """Hosts many independent collaboration sets over one shared transport.

    ``local_sites`` is the slice of every tenant's site numbering this
    process hosts (the symmetric topology: the same indices for every
    tenant); ``roster`` is each collaboration's full membership, defaulting
    to ``local_sites`` (single-process).  Tenant ids are integers >= 0.

    ``max_active`` bounds resident sessions LRU-style: activating tenant
    N+1 evicts the least-recently-used one.  Eviction is routing-level
    (handlers and failure listeners detach; in-flight frames drop) — a
    re-activated tenant starts a fresh session and must re-join its
    relationships, which is the paper's late-joiner path, not a hot
    resume.
    """

    def __init__(
        self,
        transport: Transport,
        local_sites: Iterable[int] = (0,),
        roster: Optional[Iterable[int]] = None,
        max_active: Optional[int] = None,
        on_activate: Optional[Callable[[int, Session], None]] = None,
        **session_kwargs: Any,
    ) -> None:
        self.transport = transport
        self.local_sites: Tuple[int, ...] = tuple(local_sites)
        if not self.local_sites:
            raise ReproError("SessionHost needs at least one local site index")
        self.roster = frozenset(roster if roster is not None else self.local_sites)
        if max_active is not None and max_active < 1:
            raise ReproError("max_active must be at least 1")
        self.max_active = max_active
        self.on_activate = on_activate
        self.session_kwargs = session_kwargs
        self._active: "OrderedDict[int, _ActiveTenant]" = OrderedDict()
        #: Lifetime tallies (monotonic; survive eviction).
        self.activations = 0
        self.evictions = 0
        # One EventBus across tenants: sessions share the transport's bus.
        # Transports without one (MemoryTransport) get a host-provided bus
        # attached so every tenant still lands on a single timeline.
        if getattr(transport, "bus", None) is None:
            try:
                transport.bus = EventBus()  # type: ignore[attr-defined]
            except AttributeError:
                pass

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------

    def tenant(self, tenant_id: int) -> Session:
        """The tenant's session, activating it lazily on first use.

        Touching a tenant marks it most-recently-used for the
        ``max_active`` LRU bound.
        """
        active = self._active.get(tenant_id)
        if active is not None:
            self._active.move_to_end(tenant_id)
            return active.session
        facade = TenantTransport(self.transport, tenant_id)
        session = Session(transport=facade, roster=self.roster, **self.session_kwargs)
        for site_id in self.local_sites:
            session.add_site(f"t{tenant_id}s{site_id}", site_id=site_id)
        self._active[tenant_id] = _ActiveTenant(session, facade)
        self.activations += 1
        if self.on_activate is not None:
            self.on_activate(tenant_id, session)
        if self.max_active is not None:
            while len(self._active) > self.max_active:
                oldest = next(iter(self._active))
                if oldest == tenant_id:
                    break  # never evict the tenant just activated
                self.evict(oldest)
        return session

    def evict(self, tenant_id: int) -> bool:
        """Deactivate a tenant, releasing its routing state.

        Returns False when the tenant was not active.  The transport drops
        (and counts) any frames still in flight to the evicted tenant;
        other tenants are unaffected.
        """
        active = self._active.pop(tenant_id, None)
        if active is None:
            return False
        active.facade.detach()
        self.evictions += 1
        return True

    def is_active(self, tenant_id: int) -> bool:
        return tenant_id in self._active

    def __contains__(self, tenant_id: int) -> bool:
        return tenant_id in self._active

    def __len__(self) -> int:
        return len(self._active)

    @property
    def active_tenants(self) -> List[int]:
        """Active tenant ids in least-recently-used-first order."""
        return list(self._active)

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------

    def settle(self, max_events: Optional[int] = None) -> None:
        """Drain the shared transport (all tenants at once)."""
        self.transport.quiesce(max_events)

    async def asettle(self, **kwargs: Any) -> None:
        """Async drain for event-loop transports (``await aquiesce()``)."""
        fn = getattr(self.transport, "aquiesce", None)
        if fn is None:
            self.transport.quiesce(None)
            return
        await fn(**kwargs)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Aggregated protocol counters across every active tenant.

        The shared transport-level (site −1) registry is added exactly
        once — per-tenant :meth:`Session.counters` would multiply-count it
        since every tenant session shares the same transport.
        """
        totals: Dict[str, int] = {}
        for active in self._active.values():
            for site in active.session.sites:
                for key, value in site.counters().items():
                    totals[key] = totals.get(key, 0) + value
        transport_metrics = getattr(self.transport, "metrics", None)
        if transport_metrics is not None:
            for key, value in transport_metrics.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def metrics_snapshot(self) -> List[Dict[str, Any]]:
        """Per-site registry dumps in (tenant, site) order, then transport."""
        snaps: List[Dict[str, Any]] = []
        for tenant_id in sorted(self._active):
            for site in self._active[tenant_id].session.sites:
                snap = site.metrics.snapshot()
                snap["tenant"] = tenant_id
                snaps.append(snap)
        transport_metrics = getattr(self.transport, "metrics", None)
        if transport_metrics is not None:
            snaps.append(transport_metrics.snapshot())
        return snaps

    def stats(self) -> Dict[str, int]:
        """Host lifecycle tallies: active now, ever activated, ever evicted."""
        return {
            "active": len(self._active),
            "activations": self.activations,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return (
            f"SessionHost(active={len(self._active)}, "
            f"local_sites={list(self.local_sites)}, "
            f"activations={self.activations}, evictions={self.evictions})"
        )
