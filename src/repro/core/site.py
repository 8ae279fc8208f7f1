"""The per-site DECAF runtime.

A :class:`SiteRuntime` is one collaborating application instance: it owns
the site's Lamport clock, the registry of local model objects, the
transaction engine, the view manager, the collaboration-establishment
manager, and the failure manager, and it routes transport messages to
them.  Application code interacts with a site through:

* object factories (``create_int`` … ``create_association``),
* ``run(txn)`` / ``transact(fn)`` for atomic updates,
* ``join`` / ``leave`` for dynamic collaboration,
* model-object ``attach`` for views.
"""

from __future__ import annotations

import contextlib
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set

from repro.core.association import Association, Invitation
from repro.core.commit import TransactionEngine, TxnEntry
from repro.core.composites import DList, DMap
from repro.core.messages import (
    AbortMsg,
    CommitMsg,
    ConfirmMsg,
    Envelope,
    FailQueryMsg,
    FailQueryReplyMsg,
    FailResolutionMsg,
    JoinRequestMsg,
    JoinReplyMsg,
    SnapshotConfirmMsg,
    SnapshotReplyMsg,
    TxnPropagateMsg,
)
from repro.core.model import ModelObject
from repro.core.repgraph import ReplicationGraph
from repro.core.scalars import DFloat, DInt, DString
from repro.core.transaction import (
    ABORTED,
    COMMITTED,
    FunctionTransaction,
    Transaction,
    TransactionContext,
    TransactionOutcome,
)
from repro.core.views import ViewManager
from repro.errors import ObjectNotFound, ProtocolError, ReproError
from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.transport.base import Transport
from repro.vtime import LamportClock, VirtualTime
from repro.wire.batch import Outbox

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.session import Session


#: Exact-type route table for incoming protocol messages, one for the class:
#: ``route(site)`` is the receiving component's handler.  Message classes
#: are never subclassed, so one dict lookup on ``type(payload)`` replaces
#: the isinstance chain on the hottest receive path, and ``attrgetter``
#: resolves the handler in C — no Python call per message, and no table of
#: bound methods (each a site <-> component cycle) built per site.
_ROUTES: Dict[type, Callable[["SiteRuntime"], Callable[[int, Any], None]]] = {
    TxnPropagateMsg: attrgetter("engine.on_propagate"),
    ConfirmMsg: attrgetter("engine.on_confirm"),
    CommitMsg: attrgetter("engine.on_commit"),
    AbortMsg: attrgetter("engine.on_abort"),
    SnapshotConfirmMsg: attrgetter("views.on_confirm_request"),
    SnapshotReplyMsg: attrgetter("views.on_confirm_reply"),
    JoinRequestMsg: attrgetter("joins.on_join_request"),
    JoinReplyMsg: attrgetter("joins.on_join_reply"),
    FailQueryMsg: attrgetter("failures.on_query"),
    FailQueryReplyMsg: attrgetter("failures.on_query_reply"),
    FailResolutionMsg: attrgetter("failures.on_resolution"),
}


class SiteRuntime:
    """One DECAF application instance bound to a transport site id."""

    def __init__(
        self,
        site_id: int,
        transport: Transport,
        name: str = "",
        principal: str = "",
        session: Optional["Session"] = None,
        max_retries: int = 50,
        delegation_enabled: bool = True,
    ) -> None:
        from repro.core.failures import FailureManager
        from repro.core.join import JoinManager

        self.site_id = site_id
        self.name = name or f"site{site_id}"
        self.principal = principal or self.name
        self.transport = transport
        self.session = session
        #: Per-site metrics registry; engine/failure counters are
        #: registry-backed properties, so this must exist before them.
        self.metrics = MetricsRegistry(site_id)
        #: Protocol event bus — shared with the session (and through it the
        #: simulated network) so one timeline covers the whole run.
        if session is not None:
            self.bus: EventBus = session.bus
        else:
            transport_bus = getattr(transport, "bus", None)
            self.bus = transport_bus if transport_bus is not None else EventBus()
        self.clock = LamportClock(site_id)
        #: All outgoing protocol messages funnel through the outbox: one
        #: protocol turn's fan-out coalesces into one Envelope per
        #: destination (see :mod:`repro.wire.batch`).
        self.outbox = Outbox(self)
        self.objects: Dict[str, ModelObject] = {}
        self.views = ViewManager(self)
        self.engine = TransactionEngine(
            self, max_retries=max_retries, delegation_enabled=delegation_enabled
        )
        self.joins = JoinManager(self)
        self.failures = FailureManager(self)
        #: All site ids in the session (used by the failure protocol).
        self.roster: Set[int] = {site_id}
        #: Highest Lamport counter heard from each peer.  Because clocks
        #: are monotone, no future message from site s can carry a VT at or
        #: below ``last_heard[s]`` — the stability bound that makes
        #: reservation and history garbage collection safe.
        self.last_heard: Dict[int, int] = {}
        self._current_txn: Optional[TransactionContext] = None
        transport.register(site_id, self.dispatch)
        transport.add_failure_listener(self._on_failure_notice)

    # ------------------------------------------------------------------
    # Object factories
    # ------------------------------------------------------------------

    def _check_fresh(self, name: str) -> None:
        uid = f"s{self.site_id}:{name}"
        if uid in self.objects:
            raise ReproError(f"object named {name!r} already exists at {self.name}")

    def create_int(self, name: str, initial: int = 0) -> DInt:
        """Create a local integer model object."""
        self._check_fresh(name)
        return DInt(self, name, initial)

    def create_float(self, name: str, initial: float = 0.0) -> DFloat:
        """Create a local real-number model object."""
        self._check_fresh(name)
        return DFloat(self, name, float(initial))

    def create_string(self, name: str, initial: str = "") -> DString:
        """Create a local string model object."""
        self._check_fresh(name)
        return DString(self, name, initial)

    def create_list(self, name: str) -> DList:
        """Create a local (initially empty) list composite."""
        self._check_fresh(name)
        return DList(self, name)

    def create_map(self, name: str) -> DMap:
        """Create a local (initially empty) keyed composite."""
        self._check_fresh(name)
        return DMap(self, name)

    def create_association(self, name: str) -> Association:
        """Create a local association object for collaboration membership."""
        self._check_fresh(name)
        return Association(self, name)

    def register_object(self, obj: ModelObject) -> None:
        """Called by :class:`ModelObject` on construction."""
        self.objects[obj.uid] = obj

    def unregister_subtree(self, obj: ModelObject) -> None:
        """Drop an object (and any embedded children) from the registry."""
        from repro.core.views import _children_of

        for child in _children_of(obj):
            self.unregister_subtree(child)
        self.objects.pop(obj.uid, None)

    def lookup(self, uid: str) -> ModelObject:
        obj = self.objects.get(uid)
        if obj is None:
            raise ObjectNotFound(f"no object {uid} at {self.name}")
        return obj

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    @property
    def current_txn(self) -> Optional[TransactionContext]:
        return self._current_txn

    def require_txn(self, operation: str) -> TransactionContext:
        if self._current_txn is None:
            raise ReproError(
                f"{operation} must run inside a transaction; use site.transact(...)"
            )
        return self._current_txn

    @contextlib.contextmanager
    def install_txn(self, ctx: TransactionContext):
        if self._current_txn is not None:
            raise ReproError("transactions do not nest")
        self._current_txn = ctx
        try:
            yield ctx
        finally:
            self._current_txn = None

    def run(self, txn: Transaction) -> TransactionOutcome:
        """Execute a :class:`Transaction` object atomically."""
        return self.engine.run(txn)

    def transact(
        self, fn: Callable[[], Any], on_abort: Optional[Callable[[Exception], None]] = None
    ) -> TransactionOutcome:
        """Execute a plain callable as a transaction."""
        return self.engine.run(FunctionTransaction(fn, on_abort))

    # ------------------------------------------------------------------
    # Collaboration establishment
    # ------------------------------------------------------------------

    def import_invitation(self, invitation: Invitation, name: str) -> Association:
        """Instantiate a local association joined to the inviter's (section 2.6)."""
        return self.joins.import_invitation(invitation, name)

    def join(self, assoc: Association, rel_id: str, obj: ModelObject) -> TransactionOutcome:
        """Join ``obj`` into the replica relationship ``rel_id`` (section 3.3)."""
        return self.joins.join(assoc, rel_id, obj)

    def leave(self, assoc: Association, rel_id: str, obj: ModelObject) -> TransactionOutcome:
        """Remove ``obj`` from its replica relationship."""
        return self.joins.leave(assoc, rel_id, obj)

    # ------------------------------------------------------------------
    # Message plumbing
    # ------------------------------------------------------------------

    def send(self, dst: int, payload: Any) -> None:
        self.outbox.send(dst, payload)

    def defer(self, action: Callable[[], None], delay_ms: float = 0.0) -> None:
        self.transport.defer(action, delay_ms, site=self.site_id)

    def dispatch(self, src: int, payload: Any) -> None:
        """Transport delivery handler: unpack envelopes, route each message.

        One delivery is one protocol turn: every reply this turn produces
        leaves coalesced when the turn ends.
        """
        outbox = self.outbox
        outbox.depth += 1
        try:
            if isinstance(payload, Envelope):
                for message in payload.messages:
                    self._dispatch_one(src, message)
            else:
                self._dispatch_one(src, payload)
        finally:
            outbox.depth -= 1
            if not outbox.depth and outbox.buffer:
                outbox.flush()

    def _dispatch_one(self, src: int, payload: Any) -> None:
        """Merge clocks and route one protocol message by type."""
        clock = getattr(payload, "clock", None)
        if clock is not None:
            self.clock.observe_counter(clock)
            if clock > self.last_heard.get(src, -1):
                self.last_heard[src] = clock
        route = _ROUTES.get(type(payload))
        if route is None:
            raise ProtocolError(f"unroutable payload {type(payload).__name__}")
        route(self)(src, payload)
        # New structure may unblock buffered indirect propagations.
        if self.engine.pending_propagates:
            self.engine.retry_pending_propagates()

    def _on_failure_notice(self, failed_site: int) -> None:
        # A crashed site handles no notice: not even of another failure.
        if failed_site == self.site_id or self.transport.is_failed(self.site_id):
            return
        if self.bus.active:
            self.bus.emit(
                "failure_notice",
                site=self.site_id,
                time_ms=self.transport.now(),
                failed_site=failed_site,
            )
        outbox = self.outbox
        outbox.depth += 1
        try:
            self.failures.on_site_failed(failed_site)
            self.views.on_site_failed(failed_site)
        finally:
            outbox.depth -= 1
            if not outbox.depth and outbox.buffer:
                outbox.flush()

    # ------------------------------------------------------------------
    # Bookkeeping services used by the engines
    # ------------------------------------------------------------------

    def note_applied(self, vt: VirtualTime, obj: ModelObject, op: Any) -> None:
        entry = self.engine.txns.get(vt)
        if entry is None:
            entry = self.engine.txns[vt] = TxnEntry()
            entry.record, entry.applied, entry.reserved = None, [], []
            entry.write_reads = entry.vouched = None
        entry.applied.append((obj, op))

    def stability_bound(self, sites: List[int]) -> VirtualTime:
        """The VT below which no future transaction from ``sites`` can land.

        Every transaction's VT comes from its origin's Lamport clock, which
        never regresses, so ``min`` of the counters last heard from each
        site bounds all future VTs from them.  Used to garbage-collect
        reservations and history versions that stragglers might otherwise
        still need (commit alone is NOT sufficient: a stale-clocked site
        may still submit a write with an old VT).
        """
        bound: Optional[int] = None
        me, heard = self.site_id, self.last_heard
        for s in sites:
            counter = self.clock.counter if s == me else heard.get(s, 0)
            if bound is None or counter < bound:
                bound = counter
        return VirtualTime(0 if bound is None else bound, -1)

    def primary_site_of(self, graph: ReplicationGraph) -> int:
        session = self.session
        selector = session.primary_selector if session is not None else None
        if selector is None:
            return graph.min_node.site  # the default selector, kept on the graph
        return selector(graph).site

    # ------------------------------------------------------------------
    # Introspection / metrics
    # ------------------------------------------------------------------

    def state_digest(self) -> Dict[str, Any]:
        """Committed state of every replicated root, keyed relationship-wide.

        The key is the minimum uid in the root's replication graph, which is
        the same at every member site, so digests from different live sites
        are directly comparable: converged replicas produce identical
        digests.  Used by the conformance explorer's convergence oracle.
        """
        from repro.vtime import VT_TOP, VT_ZERO

        digest: Dict[str, Any] = {}
        for obj in self.objects.values():
            if not obj.has_own_graph():
                continue
            graph = obj.graph()
            key = min(graph.uids()) if graph.uids() else obj.uid
            try:
                committed_vt = obj.history.committed_current().vt
            except ProtocolError:
                committed_vt = VT_ZERO
            digest[key] = (tuple(committed_vt), repr(obj.value_at(VT_TOP, committed_only=True)))
        return digest

    def protocol_residue(self) -> Dict[str, List[str]]:
        """Protocol state that must be empty once the system is quiescent.

        Any entry left after ``run_until_quiescent`` is a leak: a guess that
        never resolved, a reservation owned by an aborted transaction, an
        undelivered pessimistic snapshot, an uncommitted history entry, an
        in-flight entry of a transaction that already resolved, a failure
        round still waiting for replies, or work still waiting for a graph
        repair that never came.  Used by the conformance explorer's residue
        oracle.
        """
        from repro.core.views import OutstandingReply, PessimisticProxy

        residue: Dict[str, List[str]] = {}

        def add(category: str, item: str) -> None:
            residue.setdefault(category, []).append(item)

        engine = self.engine
        for vt, entry in engine.txns.items():
            record = entry.record
            if record is not None and record.state not in (COMMITTED, ABORTED):
                add(
                    "unresolved-transactions",
                    f"{vt} state={record.state} pending_confirm={sorted(record.pending_confirm_sites)}",
                )
        for pending in engine.pending_propagates:
            add("pending-propagates", f"{pending.msg.txn_vt} remaining={len(pending.remaining)}")
        for vt in sorted(engine.txns):
            state = engine.status.get(vt)
            if state is not None:
                # Touched after its commit/abort released it: never collected.
                add("applied-after-resolution", f"{vt} {state.value}")
        for vt in sorted(engine.deps.pending_vts()):
            add("dangling-dependencies", str(vt))
        for snap_id, rec in sorted(self.views.records.items()):
            add(
                "open-snapshot-records",
                f"snap{snap_id} ts={rec.ts} pending_sites={sorted(rec.pending_sites)} "
                f"pending_rc={len(rec.pending_rc)} denied={rec.denied}",
            )
        parked = {t for t in engine.deps.targets() if isinstance(t, OutstandingReply) and t.parked}
        for reply in sorted(parked, key=lambda reply: reply.snap_id):
            awaited = sorted(str(vt) for vt in reply.waiting)
            add("parked-primary-checks", f"snap{reply.snap_id} awaiting {awaited}")
        for proxy in self.views.proxies:
            if isinstance(proxy, PessimisticProxy) and proxy.pending:
                add(
                    "undelivered-pessimistic-snapshots",
                    f"{type(proxy.view).__name__}: {sorted(str(vt) for vt in proxy.pending)}",
                )
        for uid in sorted(self.objects):
            obj = self.objects[uid]
            for entry in obj.history:
                if not entry.committed:
                    add("uncommitted-history", f"{uid} at {entry.vt}")
            for table_name, table in (
                ("value", obj.value_reservations),
                ("graph", obj.graph_reservations),
            ):
                for interval in table:
                    owner = interval.owner
                    if isinstance(owner, VirtualTime) and engine.status.get(owner) is ABORTED:
                        add(
                            "leaked-reservations",
                            f"{uid} {table_name} ({interval.lo},{interval.hi}) owner={owner}",
                        )
        failures = self.failures
        for query_id, query in sorted(failures.queries.items()):
            add(
                "open-failure-rounds",
                f"{query_id} {query.kind} failed_site={query.failed_site} "
                f"awaiting={sorted(query.awaiting)}",
            )
        for action in failures.deferred_retries:
            add("deferred-retries", action.__qualname__)
        return residue

    def counters(self) -> Dict[str, int]:
        """Per-site protocol counters for the bench harness."""
        out = {
            "commits": self.engine.commits,
            "aborts_conflict": self.engine.aborts_conflict,
            "aborts_user": self.engine.aborts_user,
            "retries": self.engine.retries,
        }
        out.update(self.views.total_counters())
        return out

    def __repr__(self) -> str:
        return f"SiteRuntime(id={self.site_id}, name={self.name!r}, objects={len(self.objects)})"
