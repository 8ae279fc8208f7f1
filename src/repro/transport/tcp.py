"""A real TCP transport: DECAF sites in separate OS processes.

Each process runs one :class:`TcpTransport` hosting its *local* sites; all
other site ids in the address map are *remote*.  Frames are length-prefixed
wire-codec payloads (:func:`repro.wire.encode_frame`) on plain asyncio
socket transports — exactly the per-pair FIFO TCP channels the paper's
DECAF prototype assumed.

Every replica is addressed as ``(tenant, site)`` — in the frame and in the
routing tables every :class:`~repro.transport.base.Transport` keeps.  The
flat ``register``/``send``/... methods are tenant 0, so a bare session and
a hosted tenant differ in nothing but the tenant number.

Topology and guarantees:

* One listening server per distinct local address; one outbound connection
  per remote address, shared by every site of every tenant placed there.
  TCP ordering plus the single queue per destination preserves per-pair
  FIFO.
* **Event-driven, no tasks on the frame path**: an inbound chunk is split
  into frames, decoded and dispatched inside ``data_received``, and the
  replies the handlers queued are written by that same callback.  A send
  made anywhere else is written by one ``call_soon`` per loop turn.
* **Frame coalescing**: everything queued for a peer during one loop turn
  or one inbound chunk goes out as a single write (cut at
  ``coalesce_max_bytes``), so a protocol turn's fan-out of small frames
  costs one syscall instead of one per frame.  Frames stay whole and in
  order; coalescing only batches them.
* **Back-pressure**: while the socket's write buffer is over its
  high-water mark (``pause_writing``) frames wait in the peer's queue;
  ``resume_writing`` flushes them.
* **Reconnect with backoff**: a lost connection is noticed at once
  (``connection_lost``) and an unreachable peer is re-dialled with
  exponential backoff (``reconnect_base_ms`` doubling up to
  ``reconnect_max_ms``) by a dial task that lives only while the link is
  down.  Queued frames are not lost — they stay queued until a write is
  handed to a live connection.
* **Fail-stop detection**: once a peer has been continuously unreachable
  for ``fail_after_ms``, it is declared failed, registered failure
  listeners fire (feeding the protocol's failure manager), its queued
  frames are dropped, and nothing is ever sent to it again.
* Delivery is decode-then-dispatch: payloads cross the boundary as codec
  bytes, never as live objects, so this transport only carries what the
  wire format can express.

Synchronous :meth:`quiesce` raises — use ``await aquiesce()``: this
transport lives on an event loop.  A single process whose sites are all
local never opens a connection (frames still cross the codec), which makes
it the in-loop fabric of the live examples.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import TransportError, WireError
from repro.obs.clock import WallClock
from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.sample import TraceSampler
from repro.transport.base import DeliveryHandler, FailureHandler, SiteKey, Transport
from repro.wire.codec import (
    FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
    TraceContext,
    decode_frame,
    encode_frame,
)

#: A TCP endpoint: (host, port).
Addr = Tuple[str, int]

def _transport_counter(name: str) -> property:
    """A read-only registry-backed int attribute on the transport itself.

    Like :func:`repro.obs.metrics.counter_property` but reading
    ``self.metrics`` directly — a transport is not a site.  Keeps the
    pre-registry attribute API (``transport.frames_sent``, ...) readable
    while `repro metrics` and the Prometheus exporter see every counter
    uniformly.
    """

    def _get(self) -> int:
        return self.metrics.value(name)

    return property(_get, doc=f"Registry-backed counter {name!r}.")


def maybe_install_uvloop() -> bool:
    """Install the uvloop event-loop policy when the package is available.

    uvloop is an optional accelerator, never a dependency: this returns
    False (and changes nothing) when it is not importable.  Call before
    ``asyncio.run`` — an already-running loop is not replaced.
    """
    try:
        import uvloop  # type: ignore[import-not-found]
    except ImportError:
        return False
    asyncio.set_event_loop_policy(uvloop.EventLoopPolicy())
    return True


class Placement:
    """Maps ``(tenant, site)`` routing keys to process addresses.

    The common topology is *symmetric*: every tenant's site ``i`` lives in
    the same process as every other tenant's site ``i``, described once by
    ``site_addrs`` (site index → address).  Individual tenants can deviate
    via ``per_tenant`` overrides — e.g. a migrated collaboration whose
    replicas moved to other processes.  A :class:`TcpTransport` built
    without one uses the symmetric placement over its own address map.
    """

    def __init__(
        self,
        site_addrs: Dict[int, Addr],
        per_tenant: Optional[Dict[int, Dict[int, Addr]]] = None,
    ) -> None:
        self.site_addrs = dict(site_addrs)
        self.per_tenant: Dict[int, Dict[int, Addr]] = {
            t: dict(m) for t, m in (per_tenant or {}).items()
        }

    def addr_of(self, tenant: int, site: int) -> Optional[Addr]:
        """The endpoint hosting ``site`` of ``tenant`` (None if unknown)."""
        override = self.per_tenant.get(tenant)
        if override is not None and site in override:
            return override[site]
        return self.site_addrs.get(site)

    def sites_at(self, tenant: int, addr: Addr) -> List[int]:
        """Every site of ``tenant`` placed at ``addr`` (failure fan-out)."""
        override = self.per_tenant.get(tenant, {})
        sites = {s for s, a in self.site_addrs.items() if a == addr and s not in override}
        sites.update(s for s, a in override.items() if a == addr)
        return sorted(sites)


class _PeerLink:
    """Outbound state for one remote *address*: frame queue + connection.

    Keyed by TCP endpoint, not site id, since the multi-tenant rework:
    every site (of every tenant) placed at that address shares this one
    connection, which is what makes a thousand small collaborations cost
    one socket pair per process pair instead of one per site.  Queue
    entries carry their ``(tenant, site)`` destination key so a single
    failed site's frames can still be dropped selectively.
    """

    __slots__ = ("addr", "frames", "transport", "dial", "paused", "unreachable",
                 "gauge_name", "ever_connected", "dead")

    def __init__(self, addr: Addr, label: Any) -> None:
        self.addr = addr
        self.frames: Deque[Tuple[SiteKey, bytes]] = deque()
        #: The live connection; None from ``connection_lost`` until the
        #: next successful dial.
        self.transport: Optional[asyncio.Transport] = None
        #: The dial task, only while the link is disconnected with frames
        #: to send.
        self.dial: Optional["asyncio.Task"] = None
        #: True between ``pause_writing`` and ``resume_writing``: the
        #: socket's write buffer is full and frames wait in ``frames``.
        self.paused = False
        #: True after a failed dial, False again once connected; stop's
        #: flush phase does not wait for peers known to be down.
        self.unreachable = False
        #: Precomputed metrics name for this peer's queue-depth gauge.
        self.gauge_name = f"transport.peer.{label}.queue_depth"
        #: False until the first successful dial; distinguishes a reconnect
        #: from the initial lazy connection in events and counters.
        self.ever_connected = False
        #: Set when the address is declared failed; never dialled again.
        self.dead = False


class _Outbound(asyncio.Protocol):
    """The connection of one :class:`_PeerLink`.  Peers never write on it,
    so the default ``eof_received`` (close) is how a stopped peer is seen."""

    def __init__(self, owner: "TcpTransport", link: _PeerLink) -> None:
        self.owner = owner
        self.link = link

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.link.transport = transport  # type: ignore[assignment]

    def pause_writing(self) -> None:
        self.link.paused = True

    def resume_writing(self) -> None:
        self.link.paused = False
        self.owner._flush(self.link)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.link.transport = None
        self.link.paused = False
        self.owner._flush(self.link)  # re-dials if frames are queued


class _Inbound(asyncio.Protocol):
    """One accepted connection: splits the byte stream into frames and
    decodes and dispatches each inside ``data_received``."""

    def __init__(self, owner: "TcpTransport") -> None:
        self.owner = owner
        self.transport: Optional[asyncio.BaseTransport] = None
        #: The incomplete tail of the stream (None when it ended on a
        #: frame boundary) and the byte count it must reach before the
        #: next parse can make progress.
        self.buf: Optional[bytearray] = None
        self.need = FRAME_HEADER_BYTES

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.owner._inbound.add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.owner._inbound.discard(self.transport)

    def data_received(self, data: Any) -> None:
        owner = self.owner
        buf = self.buf
        if buf is not None:
            # Appending in place: a large partial frame is not re-copied
            # (or re-parsed) on every read.
            buf += data
            if len(buf) < self.need:
                return
            # bytes: the decoder's intern caches look slices up by hash,
            # which only views of an immutable buffer support.
            data, self.buf = bytes(buf), None
        view = memoryview(data)
        pos, end = 0, len(data)
        self.need = FRAME_HEADER_BYTES
        owner._receiving = True
        try:
            while end - pos >= FRAME_HEADER_BYTES:
                body = pos + FRAME_HEADER_BYTES
                length = int.from_bytes(view[pos:body], "big")
                if length > MAX_FRAME_BYTES:
                    raise WireError(f"inbound frame of {length} bytes exceeds limit")
                if body + length > end:
                    self.need = FRAME_HEADER_BYTES + length
                    break
                pos = body + length
                owner.metrics.inc("transport.frames_received")
                tenant, src, dst, payload, trace = decode_frame(view[body:pos])
                owner._dispatch(tenant, src, dst, payload, trace)
        except BaseException:
            # A malformed stream or a raising handler costs this
            # connection only; the loop's exception handler reports it.
            self.transport.close()  # type: ignore[union-attr]
            raise
        finally:
            # Replies the handlers queued go out in this same callback.
            owner._receiving = False
            if owner._dirty:
                owner._flush_dirty()
        if pos < end:
            self.buf = bytearray(view[pos:])


class TcpTransport(Transport):
    """Length-prefixed codec frames over asyncio TCP socket transports."""

    def __init__(
        self,
        site_addrs: Dict[int, Tuple[str, int]],
        local_sites: Iterable[int],
        reconnect_base_ms: float = 25.0,
        reconnect_max_ms: float = 1000.0,
        fail_after_ms: float = 10_000.0,
        coalesce_max_bytes: int = 64 * 1024,
        sampler: Optional[TraceSampler] = None,
        placement: Optional[Placement] = None,
    ) -> None:
        super().__init__()
        self.site_addrs = dict(site_addrs)
        self.local_sites: Set[int] = set(local_sites)
        for site in self.local_sites:
            if site not in self.site_addrs:
                raise TransportError(f"local site {site} has no address")
        #: Where every (tenant, site) lives.  The default is symmetric:
        #: each tenant's site *i* is at ``site_addrs[i]``.
        self.placement = placement if placement is not None else Placement(self.site_addrs)
        #: Addresses this process listens on (loopback short-circuit).
        self._local_addrs: Set[Addr] = {self.site_addrs[s] for s in self.local_sites}
        self.reconnect_base_ms = reconnect_base_ms
        self.reconnect_max_ms = reconnect_max_ms
        self.fail_after_ms = fail_after_ms
        #: High-water mark for one coalesced write: a flush batches queued
        #: frames until the write would exceed this.
        self.coalesce_max_bytes = coalesce_max_bytes
        self._failed_addrs: Set[Addr] = set()
        self._links: Dict[Addr, _PeerLink] = {}
        #: Links with frames queued since their last flush, and whether an
        #: inbound chunk is being dispatched (its callback flushes them;
        #: otherwise one ``call_soon`` per loop turn does).
        self._dirty: Set[_PeerLink] = set()
        self._receiving = False
        self._servers: List["asyncio.base_events.Server"] = []
        #: Accepted (inbound) connections; closed on stop() so peers see
        #: the outage instead of writing into a stopped transport.
        self._inbound: Set[asyncio.BaseTransport] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Monotonic wall-clock source; ``now()`` readings and event
        #: timestamps come from here (repro.obs.clock).
        self.clock = WallClock()
        self._local_pending = 0
        self._dispatching = 0
        self._stopped = False
        self._closing = False
        #: The protocol event bus.  Sessions built over this transport
        #: share it (Session reads ``transport.bus``), so transport events
        #: (message_sent/message_delivered, peer transitions) land on the
        #: same timeline as the protocol lifecycle events.  Starts idle:
        #: with no recorder and no subscribers every emission guard is one
        #: attribute load and one branch.
        self.bus = EventBus()
        #: Transport-level metrics (site -1: not owned by any one site).
        self.metrics = MetricsRegistry(site=-1)
        self.metrics.histogram("transport.connect_rtt_ms")
        self.metrics.histogram("transport.write_flush_ms")
        #: Optional :class:`repro.obs.flight.FlightRecorder`; when set, a
        #: postmortem ring-buffer dump is written the moment a peer is
        #: declared failed.
        self.flight = None
        #: The site this process reports transport-level events under (the
        #: lowest local site id): per-process program order in a merged
        #: cross-process timeline must never interleave two processes.
        self._obs_site = min(self.local_sites)
        #: Per-process sequence for traced sends; with the origin site it
        #: forms the cross-process ``msg_id`` (``TraceContext.msg_id``).
        self._msg_seq = 0
        #: Optional head-based trace sampler (repro.obs.sample).  None
        #: keeps the pre-sampling behavior: every traced frame is
        #: recorded.  With a sampler, the *origin* transport decides per
        #: trace id; the decision rides the frame's TraceContext so every
        #: receiving process records or skips the same transaction.
        self.sampler = sampler

    #: Frames successfully written to / read from peer sockets, socket
    #: writes issued, and frames that shared a write with an earlier frame
    #: (``frames_sent - writes``).  Registry-backed since the telemetry
    #: rework (`repro metrics` and the Prometheus exporter enumerate them);
    #: the attribute API is unchanged.
    frames_sent = _transport_counter("transport.frames_sent")
    frames_received = _transport_counter("transport.frames_received")
    writes = _transport_counter("transport.writes")
    frames_coalesced = _transport_counter("transport.frames_coalesced")
    #: Reconnect/backoff telemetry (also registry-backed).
    dial_attempts = _transport_counter("transport.dial_attempts")
    dial_failures = _transport_counter("transport.dial_failures")
    reconnects = _transport_counter("transport.reconnects")
    peer_unreachable_transitions = _transport_counter("transport.peer_unreachable")
    peers_failed = _transport_counter("transport.peers_failed")
    #: Trace-sampling tallies: sends whose trace the local sampler head-
    #: dropped, and deliveries skipped because the *origin's* in-band
    #: decision was drop (the only per-frame cost of a sampled-out trace).
    sends_sampled_out = _transport_counter("transport.sends_sampled_out")
    deliveries_sampled_out = _transport_counter("transport.deliveries_sampled_out")
    #: Inbound frames whose (tenant, site) destination has no registered
    #: handler — e.g. delivered after tenant eviction.  Dropped, never
    #: raised: eviction must not crash the shared connection.
    frames_dropped_unrouted = _transport_counter("transport.frames_dropped_unrouted")

    # ------------------------------------------------------------------
    # Transport interface
    # ------------------------------------------------------------------

    def register_scoped(self, tenant: int, site: int, handler: DeliveryHandler) -> None:
        if self.placement.addr_of(tenant, site) not in self._local_addrs:
            raise TransportError(
                f"site {site} of tenant {tenant} is not local to this process "
                f"(local: {sorted(self.local_sites)})"
            )
        super().register_scoped(tenant, site, handler)

    def add_failure_listener_scoped(self, tenant: int, handler: FailureHandler) -> None:
        super().add_failure_listener_scoped(tenant, handler)
        # A listener added after a peer process was declared dead (lazy
        # activation, re-activation after eviction) would otherwise never
        # hear of it: sends to that address drop silently and its
        # transactions would wait forever.  Deferred, not re-entrant — the
        # caller is usually still constructing its session.
        dead = [
            site
            for addr in self._failed_addrs
            for site in self.placement.sites_at(tenant, addr)
        ]
        if dead:

            def notify_late() -> None:
                if handler in self._failure_handlers.get(tenant, ()):
                    for site in dead:
                        handler(site)

            self._require_loop().call_soon(notify_late)

    def now(self) -> float:
        return self.clock.now_ms()

    def is_failed_scoped(self, tenant: int, site: int) -> bool:
        if (tenant, site) in self._failed:
            return True
        if not self._failed_addrs:
            return False
        return self.placement.addr_of(tenant, site) in self._failed_addrs

    def _peer_label(self, addr: Addr) -> Any:
        """Human-facing identity of a peer address for events and gauges.

        The classic one-site-per-address topology keeps its site-id labels
        (``transport.peer.1.queue_depth``); shared addresses fall back to
        ``host:port``.
        """
        sites = [s for s, a in self.site_addrs.items() if a == addr]
        if len(sites) == 1:
            return sites[0]
        return f"{addr[0]}:{addr[1]}"

    def _trace_for(
        self, tenant: int, src: int, dst: int, payload: Any
    ) -> Optional[TraceContext]:
        """Build the frame trace header and emit ``message_sent``.

        Only called when the bus is active: untraced processes leave the
        frame's trace field empty and pay nothing.  Events name a replica
        the way protocol events do — tenant-local ``site`` plus
        ``data["tenant"]`` — and ``msg_id`` stays unique across tenants
        because the sequence number is per process, not per tenant.
        """
        self._msg_seq += 1
        seq = self._msg_seq
        txn_vt = getattr(payload, "txn_vt", None)
        # __dict__ construction skips the frozen-dataclass setattr walk;
        # this header is built per frame on the send hot path.  The trace
        # id is the bare "counter@site" of the transaction VT (shorter to
        # build and to wire-encode than the VT repr), "" for control
        # messages with no transaction.
        trace_id = f"{txn_vt.counter}@{txn_vt.site}" if txn_vt is not None else ""
        trace = object.__new__(TraceContext)
        fields = trace.__dict__
        fields["origin"] = src
        fields["trace_id"] = trace_id
        fields["parent_span"] = seq
        sampler = self.sampler
        if sampler is not None and not sampler.sample(trace_id):
            # Head-dropped at the origin: the decision still rides the
            # frame so downstream processes skip their deliveries too.
            # No event is built (the bounded-cost contract
            # tests/test_sampling.py holds) unless record_dropped marks it.
            fields["sampled"] = False
            self.metrics.inc("transport.sends_sampled_out")
            if sampler.record_dropped:
                self.bus.emit(
                    "message_sent",
                    src,
                    self.clock.now_ms(),
                    txn_vt,
                    tenant=tenant,
                    dst=dst,
                    msg_type=type(payload).__name__,
                    msg_id=f"{src}:{seq}",
                    sampled=False,
                )
            return trace
        fields["sampled"] = True
        # No "payload" ref in the data dict (unlike the simulator's sender):
        # nothing subscribes for payloads on the real-socket path, exports
        # skip the key anyway, and retaining every message would pin the
        # payload objects in memory for the life of the recording.
        self.bus.emit(
            "message_sent",
            src,
            self.clock.now_ms(),
            txn_vt,
            tenant=tenant,
            dst=dst,
            msg_type=type(payload).__name__,
            msg_id=f"{src}:{seq}",
        )
        return trace

    def send_scoped(self, tenant: int, src: int, dst: int, payload: Any) -> None:
        if (
            self._stopped
            or self._closing
            or (tenant, src) in self._failed
            or (tenant, dst) in self._failed
        ):
            return
        addr = self.placement.addr_of(tenant, dst)
        if addr is None:
            raise TransportError(f"destination site {dst} has no address")
        if addr in self._failed_addrs:
            return
        trace = self._trace_for(tenant, src, dst, payload) if self.bus.active else None
        frame = encode_frame(src, dst, payload, trace, tenant=tenant)
        if addr in self._local_addrs:
            # Local loopback still crosses the codec so every payload is
            # provably wire-expressible regardless of site placement.
            self._local_pending += 1
            self._require_loop().call_soon(self._deliver_local, frame)
            return
        link = self._links.get(addr)
        if link is None:
            link = self._links[addr] = _PeerLink(addr, self._peer_label(addr))
        link.frames.append(((tenant, dst), frame))
        if not self._dirty and not self._receiving:
            self._require_loop().call_soon(self._flush_dirty)
        self._dirty.add(link)

    def defer(self, action, delay_ms: float = 0.0, site=None) -> None:
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            action()
            return
        if delay_ms > 0:
            loop.call_later(delay_ms / 1000.0, action)
        else:
            loop.call_soon(action)

    def pending(self) -> int:
        return (
            self._local_pending
            + self._dispatching
            + sum(len(link.frames) for link in self._links.values())
        )

    def quiesce(self, max_events: Optional[int] = None) -> int:
        """Event-loop transports cannot drain synchronously."""
        raise TransportError(
            "TcpTransport delivers on the event loop; use `await aquiesce()` "
            "instead of the synchronous quiesce()"
        )

    async def aquiesce(self, settle_ms: float = 50.0) -> None:
        """Wait until local delivery and outbound writes drain, then settle.

        Only covers *this* process: a peer may still be processing frames we
        already wrote.  Cross-process convergence needs an application-level
        check (compare state digests), which the two-process example does.
        """

        def idle() -> bool:
            return self.pending() == 0

        while True:
            if idle():
                await asyncio.sleep(settle_ms / 1000.0)
                if idle():
                    return
            else:
                await asyncio.sleep(0.005)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind listening servers for the local sites; call inside the loop."""
        if self._loop is not None:
            return
        self._loop = asyncio.get_running_loop()
        for host, port in sorted(self._local_addrs):
            self._servers.append(
                await self._loop.create_server(lambda: _Inbound(self), host, port)
            )

    async def stop(self, flush: bool = True, flush_timeout_s: float = 5.0) -> None:
        """Close servers, dial tasks and peer connections, and return once
        every connection it closed is released.

        With ``flush`` (the default), what :meth:`send` already accepted
        is written out first: new sends are rejected, then every
        *connected* peer gets until ``flush_timeout_s`` from the call to
        take both its queued frames and its connection's write buffer.
        Frames queued for a peer that is down (reconnecting) are not
        waited for — they are dropped exactly as before.  Each drained
        connection is then closed; one a peer has not drained by the
        deadline (it stopped reading) is ``abort()``-ed, dropping what its
        write buffer still holds.  ``flush=False`` is the hard stop: every
        connection is aborted at once.

        Either way, stop returns one loop turn later, once every inbound
        and outbound connection has run ``connection_lost``: until then the
        loop's pending callbacks reference the protocols and, through
        them, this transport, its hosts and every tenant, so a collection
        right after ``await stop()`` would find nothing to free.
        """
        self._closing = True
        if flush:
            loop = self._loop or asyncio.get_running_loop()
            deadline = loop.time() + flush_timeout_s

            def unflushed() -> bool:
                return any(
                    (link.frames and not link.unreachable and not link.dead)
                    or (link.transport is not None and link.transport.get_write_buffer_size())
                    for link in self._links.values()
                )

            while unflushed() and loop.time() < deadline:
                await asyncio.sleep(0.005)
        self._stopped = True
        for server in self._servers:
            server.close()
        connections: List[asyncio.Transport] = list(self._inbound)  # type: ignore[arg-type]
        for link in self._links.values():
            if link.dial is not None:
                link.dial.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await link.dial
            if link.transport is not None:
                connections.append(link.transport)
        self._links.clear()
        # server.close() only stops listening; sever accepted connections
        # too so still-running peers observe the outage promptly.  Both
        # close() of a drained connection and abort() schedule its
        # connection_lost for the next turn.
        for transport in connections:
            if flush and not transport.get_write_buffer_size():
                transport.close()
            else:
                transport.abort()
        await asyncio.sleep(0)
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()

    # ------------------------------------------------------------------
    # Inbound path
    # ------------------------------------------------------------------

    def _deliver_local(self, frame: bytes) -> None:
        self._local_pending -= 1
        # memoryview: the decoder cursors over the frame without copying it
        tenant, src, dst, payload, trace = decode_frame(
            memoryview(frame)[FRAME_HEADER_BYTES:]
        )
        self._dispatch(tenant, src, dst, payload, trace)

    def _dispatch(
        self,
        tenant: int,
        src: int,
        dst: int,
        payload: Any,
        trace: Optional[TraceContext] = None,
    ) -> None:
        handler = self._handlers.get((tenant, dst))
        if handler is None:
            # Evicted (or never-hosted) destination: the shared connection
            # must survive stray frames, so drop and count.
            self.metrics.inc("transport.frames_dropped_unrouted")
            return
        if (tenant, src) in self._failed or (tenant, dst) in self._failed:
            return
        if trace is not None and self.bus.active and not trace.sampled:
            # The origin head-dropped this trace: honor its in-band
            # decision so a sampled run records complete span trees for
            # exactly the sampled transactions, nothing partial.
            self.metrics.inc("transport.deliveries_sampled_out")
        elif trace is not None and self.bus.active:
            # Pairs with the sender process's message_sent via the trace
            # header's msg_id — the cross-process happens-before edge the
            # merged timeline (repro.obs.merge) reconstructs.
            self.bus.emit(
                "message_delivered",
                dst,
                self.clock.now_ms(),
                getattr(payload, "txn_vt", None),
                tenant=tenant,
                src=src,
                msg_type=type(payload).__name__,
                # inline trace.msg_id: no property hop on the hot path
                msg_id=f"{trace.origin}:{trace.parent_span}",
            )
        self._dispatching += 1
        try:
            handler(src, payload)
        finally:
            self._dispatching -= 1

    # ------------------------------------------------------------------
    # Outbound path
    # ------------------------------------------------------------------

    def _flush_dirty(self) -> None:
        dirty = self._dirty
        while dirty:
            self._flush(dirty.pop())

    def _flush(self, link: _PeerLink) -> None:
        """Write what ``link`` has queued, or dial if it is disconnected."""
        transport, frames = link.transport, link.frames
        if transport is None:
            if frames and link.dial is None and not link.dead and not self._stopped:
                link.dial = self._require_loop().create_task(self._connect(link))
            return
        metrics = self.metrics
        while frames and not link.paused and not transport.is_closing():
            # Coalesce: drain the queue into one write, bounded by the
            # high-water mark so a burst cannot buffer without limit.
            # Frames whose destination site failed after queuing are
            # skipped (the shared link still serves the address's other
            # sites and tenants).
            batch: List[Tuple[SiteKey, bytes]] = []
            size = 0
            while frames and size < self.coalesce_max_bytes:
                key, frame = frames.popleft()
                if key in self._failed:
                    continue
                batch.append((key, frame))
                size += len(frame)
            if not batch:
                return
            metrics.gauge(link.gauge_name, len(frames))
            flush_start = time.monotonic()
            if len(batch) > 1:
                transport.write(b"".join(frame for _key, frame in batch))
            else:
                transport.write(batch[0][1])
            if transport.is_closing():
                # The write broke the connection: requeue the whole batch
                # in order; connection_lost re-dials and resends (per-pair
                # FIFO is preserved).
                frames.extendleft(reversed(batch))
                return
            metrics.inc("transport.frames_sent", len(batch))
            metrics.inc("transport.writes")
            metrics.inc("transport.frames_coalesced", len(batch) - 1)
            metrics.observe(
                "transport.write_flush_ms", (time.monotonic() - flush_start) * 1000.0
            )

    async def _connect(self, link: _PeerLink) -> None:
        """Dial ``link.addr`` with exponential backoff until connected or
        declared failed, then flush — the only task on the outbound path,
        alive only while the link is down.

        Telemetry here is **edge-triggered**: the backoff loop retries many
        times per outage, but ``peer_unreachable`` fires only on the
        reachable→unreachable transition and ``peer_connected`` only when a
        dial actually succeeds — exactly one event per transition, never
        one per retry.
        """
        addr = link.addr
        loop = self._require_loop()
        backoff_ms = self.reconnect_base_ms
        down_since = time.monotonic()
        while not self._stopped:
            try:
                self.metrics.inc("transport.dial_attempts")
                dial_start = time.monotonic()
                await loop.create_connection(lambda: _Outbound(self, link), *addr)
            except (ConnectionError, OSError):
                self.metrics.inc("transport.dial_failures")
                if not link.unreachable:
                    link.unreachable = True
                    self.metrics.inc("transport.peer_unreachable")
                    if self.bus.active:
                        self.bus.emit(
                            "peer_unreachable",
                            site=self._obs_site,
                            time_ms=self.now(),
                            peer=self._peer_label(addr),
                        )
                if (time.monotonic() - down_since) * 1000.0 >= self.fail_after_ms:
                    self._fail_addr(addr)
                    return
                await asyncio.sleep(backoff_ms / 1000.0)
                backoff_ms = min(backoff_ms * 2, self.reconnect_max_ms)
                continue
            was_down = link.unreachable or link.ever_connected
            link.unreachable = False
            self.metrics.observe(
                "transport.connect_rtt_ms", (time.monotonic() - dial_start) * 1000.0
            )
            if was_down:
                # A re-dial after an outage or a broken connection — the
                # initial lazy connect is not a "reconnect".
                self.metrics.inc("transport.reconnects")
            link.ever_connected = True
            if self.bus.active:
                self.bus.emit(
                    "peer_connected",
                    site=self._obs_site,
                    time_ms=self.now(),
                    peer=self._peer_label(addr),
                    reconnect=was_down,
                )
            link.dial = None
            self._flush(link)
            return

    def _fail_addr(self, addr: Addr) -> None:
        """Declare every site placed at ``addr`` failed (fail-stop detection).

        The whole process behind the address is gone, so the notice fans
        out per tenant: each tenant with listeners hears of its own sites
        there, by tenant-local id, and of nothing else.  Tenants without
        listeners are covered by ``_failed_addrs`` (sends drop,
        ``is_failed`` answers) and notified when they add one.
        """
        if addr in self._failed_addrs:
            return
        self._failed_addrs.add(addr)
        link = self._links.get(addr)
        if link is not None:
            link.dead = True
            link.frames.clear()
            if link.transport is not None:
                link.transport.close()
        for tenant in sorted(self._failure_handlers):
            for site in self.placement.sites_at(tenant, addr):
                self.fail_site_scoped(tenant, site)

    def fail_site_scoped(self, tenant: int, site: int) -> None:
        """Declare one (tenant, site) failed; notify that tenant only.

        Fail-stop detection calls this for every site at a dead address;
        tests and orchestration call it to declare one replica failed.
        """
        key = (tenant, site)
        if key in self._failed:
            return
        self._failed.add(key)
        self.metrics.inc("transport.peers_failed")
        link = self._links.get(self.placement.addr_of(tenant, site))
        if link is not None and not link.dead and link.frames:
            # Drop only this destination's queued frames; the shared link
            # keeps serving the address's other sites and tenants.
            kept = [entry for entry in link.frames if entry[0] != key]
            if len(kept) != len(link.frames):
                link.frames.clear()
                link.frames.extend(kept)
        self._notify_failed(tenant, site)
        if self.flight is not None:
            # Postmortem: the ring buffer of recent events, dumped the
            # moment fail-stop detection fires (repro.obs.flight).
            self.flight.dump(
                f"fail-stop: site {site} of tenant {tenant} declared failed"
            )

    # ------------------------------------------------------------------

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is not None:
            return self._loop
        try:
            return asyncio.get_running_loop()
        except RuntimeError:
            raise TransportError(
                "TcpTransport.start() must run inside the event loop before sends"
            ) from None

    def __repr__(self) -> str:
        return (
            f"TcpTransport(local={sorted(self.local_sites)}, "
            f"peers={sorted(set(self.site_addrs) - self.local_sites)}, "
            f"pending={self.pending()})"
        )
