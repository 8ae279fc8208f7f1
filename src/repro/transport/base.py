"""The abstract transport interface used by DECAF site runtimes.

One address names a replica everywhere: a *(tenant, site)* pair, where a
tenant is one collaboration set and tenant ids are any integer ``>= 0``.
The flat methods (``register``, ``send``, ``is_failed``, ...) address
tenant 0, so a bare ``Session(transport=...)`` *is* tenant 0 of its
fabric — the same tenant ``SessionHost.tenant(0)`` names — and every other
tenant goes through the ``*_scoped`` methods, which take the tenant
explicitly.

A transport with a wire format (TCP) implements the ``*_scoped`` methods
natively and carries the tenant in the frame.  The flat in-process fabrics
(Memory/Sim/Asyncio) implement only the flat methods; the ABC's
``*_scoped`` defaults carry the tenant over them by giving each tenant a
private stride of the flat site-id space (:func:`_pack_site`), which is
the identity for tenant 0.  Nothing outside this module sees packed ids.

:class:`TenantTransport` is one tenant's view of a shared transport: it
looks like an ordinary single-collaboration :class:`Transport` to a
``Session``/``SiteRuntime`` while routing everything through the shared
inner transport's ``*_scoped`` methods.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, List, Optional, Set

from repro.errors import TransportError

DeliveryHandler = Callable[[int, Any], None]
FailureHandler = Callable[[int], None]

#: Width of one tenant's site-id range on a flat in-process fabric.
_TENANT_STRIDE = 1 << 20


def _pack_site(tenant: int, site: int) -> int:
    """Flatten a *(tenant, site)* pair for a flat in-process fabric.

    ``_pack_site(0, s) == s``: tenant 0's packed ids are the flat ids, so
    bare sessions and tenant-0 facades share one namespace.
    """
    if tenant < 0:
        raise TransportError(f"tenant id must be non-negative, got {tenant}")
    if not 0 <= site < _TENANT_STRIDE:
        raise TransportError(
            f"site id must be in [0, {_TENANT_STRIDE}), got {site}"
        )
    return tenant * _TENANT_STRIDE + site


class Transport(ABC):
    """Delivers opaque payloads between numbered sites.

    Implementations must deliver each payload exactly once to the
    registered handler of the destination site (unless the destination has
    failed), and should preserve FIFO order per ordered site pair.  The
    DECAF protocol tolerates cross-pair reordering (stragglers) but site
    runtimes assume per-pair FIFO, matching the TCP channels of the
    original Java prototype.
    """

    @abstractmethod
    def register(self, site: int, handler: DeliveryHandler) -> None:
        """Attach the delivery handler for ``site``."""

    @abstractmethod
    def send(self, src: int, dst: int, payload: Any) -> None:
        """Queue ``payload`` for delivery from ``src`` to ``dst``."""

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

    # -- capability protocol ---------------------------------------------

    def scheduler(self):
        """The deterministic scheduler behind this transport, or None.

        Replaces the old ``isinstance(transport, SimTransport)`` dispatch
        in :class:`~repro.core.session.Session`: callers that need
        virtual-time control (``run_for``, workload generators) ask the
        transport for the capability instead of sniffing its type.
        """
        return None

    def network(self):
        """The simulated :class:`~repro.sim.network.Network`, or None.

        Fault-injection helpers (drops, partitions, latency models) hang
        off the network; transports without a simulated fabric return
        None and callers must cope.
        """
        return None

    # -- membership ------------------------------------------------------

    def unregister(self, site: int) -> None:
        """Detach ``site``'s delivery handler; in-flight messages to it drop.

        Best-effort by default (transports without eviction support keep
        the handler).  Concrete transports override this so tenant
        eviction (:meth:`repro.host.SessionHost.evict`) actually releases
        routing state.
        """

    def is_failed(self, site: int) -> bool:
        """Whether ``site`` has been reported failed; default transport never fails."""
        return False

    def add_failure_listener(self, handler: FailureHandler) -> None:
        """Subscribe to fail-stop notifications; default transport never fails."""

    def remove_failure_listener(self, handler: FailureHandler) -> None:
        """Unsubscribe a failure listener; default transport has none."""

    def broadcast(self, src: int, dsts: List[int], payload: Any) -> None:
        """Send ``payload`` to each live destination independently.

        Destinations already reported failed are skipped: fail-stop sites
        never receive another message, so sending would at best be dropped
        by the fabric and at worst resurrect a dead queue.
        """
        for dst in dsts:
            if self.is_failed(dst):
                continue
            self.send(src, dst, payload)

    def defer(
        self, action: Callable[[], None], delay_ms: float = 0.0, site: Optional[int] = None
    ) -> None:
        """Run ``action`` asynchronously after ``delay_ms`` (transaction retries).

        ``site`` identifies the deferring site when known; the simulated
        transport uses it to present positive-delay defers as schedule
        choice points during exhaustive exploration (``repro mc``).  The
        default executes immediately (zero-latency transports have no
        meaningful delay); scheduler-backed transports queue it so retries
        never recurse on the current call stack.
        """
        action()

    # -- tenant-addressed methods ----------------------------------------
    #
    # Defaults for flat in-process fabrics: carry the tenant in the site id
    # (``_pack_site``).  TcpTransport overrides all of them to route on the
    # (tenant, site) pair itself.

    def register_scoped(self, tenant: int, site: int, handler: DeliveryHandler) -> None:
        """Attach the delivery handler for site ``site`` of ``tenant``.

        The handler sees *tenant-local* source ids.
        """
        base = _pack_site(tenant, 0)

        def unpacking(src: int, payload: Any) -> None:
            handler(src - base, payload)

        self.register(_pack_site(tenant, site), unpacking)

    def unregister_scoped(self, tenant: int, site: int) -> None:
        """Detach the handler for site ``site`` of ``tenant``."""
        self.unregister(_pack_site(tenant, site))

    def send_scoped(self, tenant: int, src: int, dst: int, payload: Any) -> None:
        """Queue ``payload`` from ``src`` to ``dst`` within ``tenant``."""
        self.send(_pack_site(tenant, src), _pack_site(tenant, dst), payload)

    def is_failed_scoped(self, tenant: int, site: int) -> bool:
        """Whether site ``site`` of ``tenant`` has been reported failed."""
        return self.is_failed(_pack_site(tenant, site))

    def add_failure_listener_scoped(
        self, tenant: int, handler: FailureHandler
    ) -> FailureHandler:
        """Subscribe to fail-stop notices for ``tenant``'s sites only.

        The handler receives tenant-local site ids; notices for other
        tenants never reach it (cross-tenant failure isolation).  Returns
        the listener actually registered so callers can later pass it to
        :meth:`remove_failure_listener`.
        """
        lo = _pack_site(tenant, 0)
        hi = lo + _TENANT_STRIDE

        def scoped(packed: int) -> None:
            if lo <= packed < hi:
                handler(packed - lo)

        self.add_failure_listener(scoped)
        return scoped

    def fail_site_scoped(self, tenant: int, site: int, **kwargs: Any) -> None:
        """Inject a fail-stop for site ``site`` of ``tenant`` (tests)."""
        fail = getattr(self, "fail_site", None)
        if fail is None:
            raise TransportError(f"{type(self).__name__} does not support fail_site")
        fail(_pack_site(tenant, site), **kwargs)


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
        # ``site`` only labels the deferral as a schedule choice point on
        # the simulated (flat) fabric, where the packed id names the replica.
        packed = None if site is None else _pack_site(self.tenant, site)
        self.inner.defer(action, delay_ms, site=packed)

    # -- failure plane ---------------------------------------------------

    def is_failed(self, site: int) -> bool:
        return self.inner.is_failed_scoped(self.tenant, site)

    def add_failure_listener(self, handler: FailureHandler) -> None:
        self._listeners.append(self.inner.add_failure_listener_scoped(self.tenant, handler))

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
            self.inner.remove_failure_listener(listener)
        self._listeners.clear()

    def __repr__(self) -> str:
        return f"TenantTransport(tenant={self.tenant}, inner={self.inner!r})"
