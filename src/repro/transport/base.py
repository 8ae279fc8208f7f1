"""The abstract transport interface used by DECAF site runtimes.

One address names a replica everywhere: a *(tenant, site)* pair, where a
tenant is one collaboration set and tenant ids are any integer ``>= 0``.
Every fabric routes on that pair itself: the ``*_scoped`` methods, which
take the tenant explicitly, are the primitives, and the handler table, the
failed set and the per-tenant failure-listener lists they work on are kept
here once, keyed by the pair.  The flat methods (``register``, ``send``,
``is_failed``, ...) are the tenant-0 spellings of the primitives, so a bare
``Session(transport=...)`` *is* tenant 0 of its fabric — the same tenant
``SessionHost.tenant(0)`` names.

A fabric supplies :meth:`Transport.send_scoped`, its clock and its drain;
the in-process queue, the simulated network and TCP differ in nothing
else that a site runtime can see.

:class:`TenantTransport` is one tenant's view of a shared fabric: it looks
like an ordinary single-collaboration :class:`Transport` to a
``Session``/``SiteRuntime`` while routing everything through the shared
inner transport's ``*_scoped`` methods.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import TransportError

DeliveryHandler = Callable[[int, Any], None]
FailureHandler = Callable[[int], None]

#: A routing key: (tenant, site).  A bare session is tenant 0.
SiteKey = Tuple[int, int]


class Transport(ABC):
    """Delivers opaque payloads between the numbered sites of each tenant.

    Implementations must deliver each payload exactly once to the
    registered handler of the destination site (unless the destination has
    failed), and should preserve FIFO order per ordered site pair.  The
    DECAF protocol tolerates cross-pair reordering (stragglers) but site
    runtimes assume per-pair FIFO, matching the TCP channels of the
    original Java prototype.
    """

    def __init__(self) -> None:
        self._handlers: Dict[SiteKey, DeliveryHandler] = {}
        self._failed: Set[SiteKey] = set()
        #: Per-tenant failure listeners; handlers see tenant-local site
        #: ids.  Cross-tenant isolation: a notice for tenant A's site never
        #: reaches tenant B's listeners.
        self._failure_handlers: Dict[int, List[FailureHandler]] = {}

    # -- tenant-addressed primitives -------------------------------------

    def register_scoped(self, tenant: int, site: int, handler: DeliveryHandler) -> None:
        """Attach the delivery handler for site ``site`` of ``tenant``.

        The handler sees *tenant-local* source ids.
        """
        self._handlers[(tenant, site)] = handler

    def unregister_scoped(self, tenant: int, site: int) -> None:
        """Detach the handler for site ``site`` of ``tenant``; messages
        still in flight to it are dropped by the fabric, never raised
        (:meth:`repro.host.SessionHost.evict`)."""
        self._handlers.pop((tenant, site), None)

    @abstractmethod
    def send_scoped(self, tenant: int, src: int, dst: int, payload: Any) -> None:
        """Queue ``payload`` from ``src`` to ``dst`` within ``tenant``."""

    def is_failed_scoped(self, tenant: int, site: int) -> bool:
        """Whether site ``site`` of ``tenant`` has been reported failed."""
        return (tenant, site) in self._failed

    def add_failure_listener_scoped(self, tenant: int, handler: FailureHandler) -> None:
        """Subscribe to fail-stop notices for ``tenant``'s sites only.

        The handler receives tenant-local site ids; notices for other
        tenants never reach it (cross-tenant failure isolation).
        """
        self._failure_handlers.setdefault(tenant, []).append(handler)

    def remove_failure_listener_scoped(self, tenant: int, handler: FailureHandler) -> None:
        """Unsubscribe ``tenant``'s listener (no-op if absent).  A tenant
        left without listeners leaves no entry behind, so fail-stop
        detection never fans a notice out to an evicted tenant."""
        listeners = self._failure_handlers.get(tenant)
        if listeners is not None and handler in listeners:
            listeners.remove(handler)
            if not listeners:
                del self._failure_handlers[tenant]

    def fail_site_scoped(self, tenant: int, site: int, **kwargs: Any) -> None:
        """Inject a fail-stop for site ``site`` of ``tenant`` (tests)."""
        raise TransportError(f"{type(self).__name__} does not support fail_site")

    def _notify_failed(self, tenant: int, site: int) -> None:
        """Tell ``tenant``'s listeners, and nobody else, that ``site`` failed."""
        for handler in list(self._failure_handlers.get(tenant, ())):
            handler(site)

    # -- the flat names: tenant 0 -----------------------------------------

    def register(self, site: int, handler: DeliveryHandler) -> None:
        self.register_scoped(0, site, handler)

    def unregister(self, site: int) -> None:
        self.unregister_scoped(0, site)

    def send(self, src: int, dst: int, payload: Any) -> None:
        self.send_scoped(0, src, dst, payload)

    def is_failed(self, site: int) -> bool:
        return self.is_failed_scoped(0, site)

    def add_failure_listener(self, handler: FailureHandler) -> None:
        self.add_failure_listener_scoped(0, handler)

    def remove_failure_listener(self, handler: FailureHandler) -> None:
        self.remove_failure_listener_scoped(0, handler)

    def fail_site(self, site: int, **kwargs: Any) -> None:
        self.fail_site_scoped(0, site, **kwargs)

    # -- time / draining -------------------------------------------------

    @abstractmethod
    def now(self) -> float:
        """Current transport time in milliseconds (simulated or wall-clock)."""

    @abstractmethod
    def pending(self) -> int:
        """Number of messages accepted but not yet delivered."""

    @abstractmethod
    def quiesce(self, max_events: Optional[int] = None) -> int:
        """Synchronously drive delivery until no messages remain in flight.

        Returns the number of deliveries performed.  ``max_events`` bounds
        the work for transports that process one event at a time (the
        simulator); queue transports may ignore it.  Event-loop transports
        cannot drain synchronously and must raise
        :class:`~repro.errors.TransportError` directing callers to
        ``await aquiesce()`` instead of silently doing nothing.
        """

    def defer(
        self, action: Callable[[], None], delay_ms: float = 0.0, site: Optional[int] = None
    ) -> None:
        """Run ``action`` asynchronously after ``delay_ms`` (transaction retries).

        ``site`` identifies the deferring site when known; the simulated
        network uses it to present positive-delay defers as schedule
        choice points during exhaustive exploration (``repro mc``).  The
        default executes immediately (zero-latency transports have no
        meaningful delay); scheduler-backed transports queue it so retries
        never recurse on the current call stack.
        """
        action()

    # -- capability protocol ---------------------------------------------

    def scheduler(self):
        """The deterministic scheduler behind this transport, or None.

        Callers that need virtual-time control (``run_for``, workload
        generators) ask the transport for the capability instead of
        sniffing its type.
        """
        return None

    def network(self):
        """The simulated :class:`~repro.sim.network.Network`, or None.

        Fault-injection helpers (drops, partitions, latency models) hang
        off the network; transports without a simulated fabric return
        None and callers must cope.
        """
        return None


class TenantTransport(Transport):
    """One tenant's view of a shared multi-tenant transport.

    Presents the classic single-collaboration :class:`Transport` interface
    — so :class:`~repro.core.session.Session` and
    :class:`~repro.core.site.SiteRuntime` run on it completely unchanged —
    while routing every operation through the ``*_scoped`` methods of the
    shared ``inner`` transport.  A :class:`repro.host.SessionHost` hands
    each tenant Session its own facade over one shared transport (shared
    sockets, shared event loop, shared metrics registry).  A facade for
    tenant 0 and a bare session on ``inner`` address the same replicas.
    It keeps no routing tables of its own, so only the flat names mean
    anything on it.
    """

    def __init__(self, inner: Transport, tenant: int) -> None:
        if tenant < 0:
            raise TransportError(f"tenant id must be non-negative, got {tenant}")
        self.inner = inner
        self.tenant = tenant
        self._registered: Set[int] = set()
        self._listeners: List[FailureHandler] = []

    # -- routing ---------------------------------------------------------

    def register(self, site: int, handler: DeliveryHandler) -> None:
        self.inner.register_scoped(self.tenant, site, handler)
        self._registered.add(site)

    def unregister(self, site: int) -> None:
        self.inner.unregister_scoped(self.tenant, site)
        self._registered.discard(site)

    def send(self, src: int, dst: int, payload: Any) -> None:
        self.inner.send_scoped(self.tenant, src, dst, payload)

    def send_scoped(self, tenant: int, src: int, dst: int, payload: Any) -> None:
        raise TransportError("a tenant facade speaks for one tenant; use send()")

    # -- time / draining -------------------------------------------------

    def now(self) -> float:
        return self.inner.now()

    def pending(self) -> int:
        # Shared fabric: pending counts traffic of *all* tenants.  That is
        # the conservative direction for settle()-style loops.
        return self.inner.pending()

    def quiesce(self, max_events: Optional[int] = None) -> int:
        return self.inner.quiesce(max_events)

    async def aquiesce(self, *args: Any, **kwargs: Any) -> int:
        fn = getattr(self.inner, "aquiesce", None)
        if fn is None:
            raise TransportError("inner transport has no async quiesce")
        return await fn(*args, **kwargs)

    def defer(
        self, action: Callable[[], None], delay_ms: float = 0.0, site: Optional[int] = None
    ) -> None:
        self.inner.defer(action, delay_ms, site=site)

    # -- failure plane ---------------------------------------------------

    def is_failed(self, site: int) -> bool:
        return self.inner.is_failed_scoped(self.tenant, site)

    def add_failure_listener(self, handler: FailureHandler) -> None:
        self.inner.add_failure_listener_scoped(self.tenant, handler)
        self._listeners.append(handler)

    def fail_site(self, site: int, **kwargs: Any) -> None:
        """Inject a fail-stop for one of this tenant's sites (tests)."""
        self.inner.fail_site_scoped(self.tenant, site, **kwargs)

    # -- capabilities / shared services ----------------------------------

    def scheduler(self):
        return self.inner.scheduler()

    def network(self):
        return self.inner.network()

    @property
    def bus(self):
        """The shared host-wide event bus (one EventBus across tenants)."""
        return getattr(self.inner, "bus", None)

    @property
    def metrics(self):
        """The shared transport-level (site −1) metrics registry, if any."""
        return getattr(self.inner, "metrics", None)

    # -- lifecycle -------------------------------------------------------

    def detach(self) -> None:
        """Tear down every registration this facade made (tenant eviction).

        After detach, frames still in flight to this tenant are dropped by
        the inner transport (counted, not raised) and failure notices no
        longer reach the evicted session.
        """
        for site in sorted(self._registered):
            self.inner.unregister_scoped(self.tenant, site)
        self._registered.clear()
        for listener in self._listeners:
            self.inner.remove_failure_listener_scoped(self.tenant, listener)
        self._listeners.clear()

    def __repr__(self) -> str:
        return f"TenantTransport(tenant={self.tenant}, inner={self.inner!r})"
