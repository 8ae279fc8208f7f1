"""View notification: optimistic and pessimistic views (paper section 4).

A *view object* is user code attached to one or more model objects; it is
notified of changes through its ``update`` method and reads state through a
consistent :class:`Snapshot`.  The infrastructure manages, per attached
view, a *view proxy* and per notification a *snapshot object* stamped with
a virtual time ``t_S``; a snapshot's validity rests on the same RC/RL guess
machinery as transactions (section 4):

* **Optimistic views** are notified as soon as a transaction executes
  locally — possibly of uncommitted state.  The proxy keeps at most one
  uncommitted snapshot (the latest); when its RC guesses (writers commit)
  and RL guesses (no straggler hides in the read intervals, confirmed by
  the primaries) all hold, the view's ``commit`` method is called.  Aborts
  and stragglers simply trigger superseding update notifications.
* **Pessimistic views** are notified only of committed state, losslessly,
  in monotonic VT order.  The proxy creates one snapshot per VT at which an
  attached object receives an update and delivers snapshots in VT order
  once the writing transaction has committed and every guess is confirmed.
  An RL guess covered by an interval the primary reserved for the writing
  transaction — the one it read, or for a blind write the one the primary
  vouches for on the message — is confirmed by the summary COMMIT (see
  :meth:`PessimisticProxy._send_checks` — 2t everywhere, the section 5.1.2
  figure); any other is confirmed by a CONFIRM-READ sent concurrently with
  the commit protocol (3t away from the primary).  Confirmed pessimistic
  intervals are *reserved* at the primary so no straggler can later commit
  inside them (monotonicity protection).

The module also implements the primary-copy side of snapshot CONFIRM-READ:
immediate verdicts for optimistic checks, and for pessimistic checks whose
interval holds uncommitted values a verdict parked in the engine's
dependency index until those values resolve.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core import propagation
from repro.core.messages import SnapshotCheck, SnapshotConfirmMsg, SnapshotReplyMsg
from repro.core.transaction import ABORTED, COMMITTED
from repro.errors import InvalidPath, ProtocolError
from repro.vtime import VT_TOP, VT_ZERO, VirtualTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.model import ModelObject
    from repro.core.site import SiteRuntime


# ---------------------------------------------------------------------------
# User-facing classes
# ---------------------------------------------------------------------------


class View:
    """Base class for user view objects (paper Fig. 3).

    Implement :meth:`update`; optimistic views may also implement
    :meth:`commit`, called when the most recent update notification is
    known to have shown committed state.
    """

    def update(self, changed: List["ModelObject"], snapshot: "Snapshot") -> None:
        """Notification of a change.  ``changed`` lists exactly the attached
        objects whose value changed since the last notification; read state
        through ``snapshot`` for a consistent picture."""
        raise NotImplementedError

    def commit(self) -> None:
        """The most recent update notification is now known committed."""


class OptimisticView(View):
    """Marker base class for views intended to be attached optimistically."""


class PessimisticView(View):
    """Marker base class for views intended to be attached pessimistically."""


@dataclass
class Snapshot:
    """A consistent read of model state at virtual time ``ts``.

    Reads behave as if instantaneous at ``ts`` with respect to all update
    transactions (section 2.5).  Pessimistic snapshots read committed state
    only.
    """

    ts: VirtualTime
    committed_only: bool

    def read(self, obj: "ModelObject") -> Any:
        """The value of ``obj`` as of this snapshot's virtual time."""
        return obj.value_at(self.ts, self.committed_only)


# ---------------------------------------------------------------------------
# Subtree helpers (a view of a composite tracks the whole subtree)
# ---------------------------------------------------------------------------


def subtree_has_entry_in_interval(
    obj: "ModelObject", lo: VirtualTime, hi: VirtualTime, committed_only: bool
) -> bool:
    """Any value/structure entry with ``lo < vt < hi`` anywhere in the subtree?"""
    for entry in obj.history.entries_in_open_interval(lo, hi, committed_only):
        return True
    for child in _children_of(obj):
        if subtree_has_entry_in_interval(child, lo, hi, committed_only):
            return True
    return False


def subtree_uncommitted_in_interval(
    obj: "ModelObject", lo: VirtualTime, hi: VirtualTime
) -> List[VirtualTime]:
    """Uncommitted entry VTs with ``lo < vt < hi`` anywhere in the subtree."""
    found = [
        e.vt
        for e in obj.history.entries_in_open_interval(lo, hi)
        if not e.committed
    ]
    for child in _children_of(obj):
        found.extend(subtree_uncommitted_in_interval(child, lo, hi))
    return found


def subtree_uncommitted_deps(obj: "ModelObject", upto: VirtualTime) -> List[VirtualTime]:
    """The uncommitted writes a read of the subtree as of ``upto`` folds."""
    found = obj.uncommitted_deps(upto)
    for child in _children_of(obj):
        found.extend(subtree_uncommitted_deps(child, upto))
    return found


def _children_of(obj: "ModelObject") -> Sequence["ModelObject"]:
    """The embedded children of a composite, by its class-level ``kind``;
    everything else (scalars, associations) shares one empty result."""
    kind = obj.kind
    if kind == "list":
        return [slot.child for slot in obj._slots]
    if kind == "map":
        return [
            slot.child
            for slots in obj._keys.values()
            for slot in slots
            if slot.child is not None
        ]
    return ()


#: Kinds without embedded children (``_children_of`` is empty by construction).
_LEAF_KINDS = frozenset(("int", "float", "string", "association"))


def is_vouchable(obj: "ModelObject") -> bool:
    """Whether a primary may vouch for a blind write's interval on ``obj``
    (and so whether a replica may wait for it): a root of a kind without
    children, which one history describes completely and one uid addresses.
    A snapshot of an embedded object is checked through its root's subtree."""
    return obj.parent is None and obj.kind in _LEAF_KINDS


def blocking_subtree_reservation(target: "ModelObject", vt: VirtualTime) -> Optional[Any]:
    """NC helper: a pessimistic-snapshot reservation covering ``vt`` on the
    target or any ancestor (snapshot reservations protect whole subtrees)."""
    node: Optional["ModelObject"] = target
    while node is not None:
        blocking = node.subtree_reservations.blocking_reservation(vt)
        if blocking is not None:
            return blocking
        node = node.parent
    return None


# ---------------------------------------------------------------------------
# Snapshot records (requester side)
# ---------------------------------------------------------------------------


# One of each is allocated per notification / CONFIRM-READ, so both are
# slotted.  Tier-1 runs on Python 3.9 (no ``dataclass(slots=True)``), and a
# field default is a class variable that ``__slots__`` refuses, hence the
# hand-written constructors where fields have defaults.


class SnapshotRecord:
    """Internal guess-tracking for one view notification's snapshot."""

    __slots__ = (
        "snap_id", "proxy", "ts", "committed_only", "created_ms", "pending_sites",
        "pending_rc", "denied", "dead", "changed", "write_reads", "vouchable", "awaiting",
    )

    def __init__(
        self,
        snap_id: Tuple[int, int],
        proxy: "ViewProxy",
        ts: VirtualTime,
        committed_only: bool,
        created_ms: float,
        changed: List["ModelObject"],
    ) -> None:
        self.snap_id = snap_id
        self.proxy = proxy
        self.ts = ts
        self.committed_only = committed_only
        #: Transport time at record creation (pessimistic delivery latency).
        self.created_ms = created_ms
        #: Primaries whose verdict is awaited (``()`` until one is asked).
        self.pending_sites: AbstractSet[int] = ()
        self.pending_rc: Set[VirtualTime] = set()
        self.denied = False
        self.dead = False
        self.changed = changed
        #: Pessimistic: ``TxnEntry.write_reads`` of ``ts`` as of creation —
        #: kept here because a revision can come after the engine's
        #: commit-time cleanup — plus, once ``ts`` commits, what its
        #: primaries vouched for.
        self.write_reads: Optional[Dict["ModelObject", VirtualTime]] = None
        #: Pessimistic, while ``ts`` is undecided: (object, uid of its primary
        #: copy, CONFIRM-READ withheld?) per blind-written attached object
        #: whose primary may vouch for the RL guess on the COMMIT.
        self.vouchable: Optional[List[Tuple["ModelObject", str, bool]]] = None
        #: Some CONFIRM-READ above is withheld until the COMMIT settles it.
        self.awaiting = False

    def ready(self) -> bool:
        """Every guess confirmed.  The proxies' hot paths read this inline."""
        return not (self.denied or self.awaiting or self.pending_sites or self.pending_rc)

    # A record waits in the engine's DependencyIndex, under each transaction
    # it guessed will commit: the one way a resolution reaches a view.

    def on_dep_commit(
        self, dep_vt: VirtualTime, vouched: Sequence[Tuple[str, VirtualTime]]
    ) -> None:
        self.pending_rc.discard(dep_vt)
        if self.vouchable is not None:
            self.proxy.on_commit_vouch(self, vouched)
        if not (self.dead or self.denied or self.awaiting or self.pending_sites or self.pending_rc):
            self.proxy.on_snapshot_ready(self)

    def on_dep_abort(self, dep_vt: VirtualTime) -> None:
        self.dead = True
        self.proxy.on_snapshot_dead(self)


class OutstandingReply:
    """Primary side: the one reply owed to a CONFIRM-READ.

    A pessimistic check whose interval holds uncommitted entries is
    *parked*: the reply waits in the engine's :class:`DependencyIndex`
    under their VTs, like every other guess, and each resolution
    re-evaluates what is parked (:meth:`ViewManager.recheck`).
    """

    __slots__ = ("manager", "snap_id", "origin", "denied", "parked", "waiting")

    def __init__(self, manager: "ViewManager", snap_id: Tuple[int, int], origin: int) -> None:
        self.manager = manager
        self.snap_id = snap_id
        self.origin = origin
        #: Whether any check was denied (the reply is ok without one).
        self.denied = False
        #: Checks still undecided, with their targets, and the VTs the reply
        #: waits on.
        self.parked: List[Tuple[SnapshotCheck, "ModelObject"]] = []
        self.waiting: Set[VirtualTime] = set()

    def on_dep_commit(
        self, dep_vt: VirtualTime, vouched: Sequence[Tuple[str, VirtualTime]]
    ) -> None:
        self.manager.recheck(self, dep_vt)

    def on_dep_abort(self, dep_vt: VirtualTime) -> None:
        self.manager.recheck(self, dep_vt)


# ---------------------------------------------------------------------------
# Proxies
# ---------------------------------------------------------------------------


class ViewProxy:
    """Base proxy: event buffering shared by both notification disciplines."""

    mode = "abstract"

    def __init__(self, manager: "ViewManager", view: View, objects: List["ModelObject"]) -> None:
        self.manager = manager
        self.view = view
        self.objects = list(objects)
        self.site = manager.site
        # Metrics (read by the bench harness).
        self.notifications = 0
        self.commit_notifications = 0
        self.lost_updates = 0
        self.update_inconsistencies = 0
        self.read_inconsistencies = 0
        #: The open batch's events: ``()`` between batches.
        self._events: Sequence[Tuple["ModelObject", str, VirtualTime]] = ()

    def on_object_event(self, obj: "ModelObject", event: str, vt: VirtualTime) -> None:
        """Buffer an ``"apply"`` or ``"undo"``: processed when the outermost
        view batch ends (:meth:`ViewManager.end_batch`), or at once outside one."""
        if self._events:
            self._events.append((obj, event, vt))
        else:
            self._events = [(obj, event, vt)]
        manager = self.manager
        if not manager._batch_depth:
            events, self._events = self._events, ()
            self.process_events(events)
        elif self not in manager._dirty:
            manager._dirty.append(self)

    def _record_straggler(self, flavor: str, vt: VirtualTime) -> None:
        """Count a straggler symptom in the site registry and the event bus.

        The per-proxy integer counters (incremented by callers) remain the
        bench harness's per-view numbers; this adds the site-wide rollup
        and the timeline event.
        """
        self.site.metrics.inc(f"view.{flavor}")
        bus = self.site.bus
        if bus.active:
            bus.emit(
                "straggler_detected",
                site=self.site.site_id,
                time_ms=self.site.transport.now(),
                txn_vt=vt,
                flavor=flavor,
                mode=self.mode,
            )

    def _record_notify(self, kind: str, ts: VirtualTime, changed: int) -> None:
        """Emit ``view_notified``; callers test ``bus.active`` first."""
        self.site.bus.emit(
            "view_notified",
            site=self.site.site_id,
            time_ms=self.site.transport.now(),
            txn_vt=ts,
            mode=self.mode,
            kind=kind,
            changed=changed,
        )

    def process_events(self, events: List[Tuple["ModelObject", str, VirtualTime]]) -> None:
        raise NotImplementedError

    def on_snapshot_reply(self, record: SnapshotRecord, ok: bool) -> None:
        raise NotImplementedError

    def attached_root_of(self, obj: "ModelObject") -> "ModelObject":
        """Map an event's (possibly embedded) object to the attached ancestor."""
        node: Optional["ModelObject"] = obj
        objects = self.objects
        while node is not None:
            for attached in objects:
                if node is attached:
                    return node
            node = node.parent
        raise ProtocolError(f"event object {obj.uid} not under any attached object")

    # -- guess plumbing shared by subclasses ----------------------------

    def _register_rc(self, record: SnapshotRecord, dep_vt: VirtualTime) -> None:
        """RC guess: ``record`` shows state written by ``dep_vt``."""
        engine = self.site.engine
        state = engine.status.get(dep_vt)
        if state is None:
            record.pending_rc.add(dep_vt)
            engine.deps.wait_for(dep_vt, record)
        elif state is ABORTED:
            record.dead = True

    def on_snapshot_ready(self, record: SnapshotRecord) -> None:
        raise NotImplementedError

    def on_snapshot_dead(self, record: SnapshotRecord) -> None:
        """Default: the undo event rolls state back and re-notifies."""


class OptimisticProxy(ViewProxy):
    """Proxy implementing the optimistic discipline of section 4.1."""

    mode = "optimistic"

    def __init__(self, manager: "ViewManager", view: View, objects: List["ModelObject"]) -> None:
        super().__init__(manager, view, objects)
        self.latest: Optional[SnapshotRecord] = None
        self.last_ts: VirtualTime = VT_ZERO

    def bootstrap(self) -> None:
        """Initial notification at attach time."""
        self._notify(changed=list(self.objects))

    def process_events(self, events: List[Tuple["ModelObject", str, VirtualTime]]) -> None:
        changed: List["ModelObject"] = []
        superseding = False
        for obj, event, vt in events:
            attached = self.attached_root_of(obj)
            if event == "undo":
                # A previously shown value was rolled back: an *update
                # inconsistency* (section 5.1.2); re-notify with the
                # restored state.
                if vt <= self.last_ts:
                    self.update_inconsistencies += 1
                    self._record_straggler("update_inconsistency", vt)
                superseding = True
                if all(attached is not c for c in changed):
                    changed.append(attached)
                continue
            # event == "apply"
            if vt < obj.current_value_vt():
                # A straggler hidden behind a later update of the same
                # object: "the message with the earlier virtual time does
                # not yield a notification" — a *lost update*.
                self.lost_updates += 1
                self._record_straggler("lost_update", vt)
                continue
            if vt < self.last_ts:
                # Visible straggler for a different attached object: the
                # earlier snapshot was inconsistent; supersede it.
                self.read_inconsistencies += 1
                self._record_straggler("read_inconsistency", vt)
            superseding = True
            if all(attached is not c for c in changed):
                changed.append(attached)
        if superseding:
            self._notify(changed)

    def _notify(self, changed: List["ModelObject"]) -> None:
        """Create the (single) latest snapshot and call ``view.update``."""
        ts = max(obj.current_value_vt() for obj in self.objects)
        if self.latest is not None:
            # "An optimistic view proxy maintains at most one uncommitted
            # snapshot — the one with the latest t_S" (section 4.1).
            self.manager.discard_record(self.latest)
            self.latest = None
        record = self.manager.new_record(self, ts, committed_only=False, changed=changed)
        self.latest = record
        self.last_ts = ts
        # RC guesses: every uncommitted write the snapshot folds.
        for obj in self.objects:
            for dep_vt in set(subtree_uncommitted_deps(obj, ts)):
                self._register_rc(record, dep_vt)
        # RL guesses: per attached object, interval (current value VT, ts).
        guesses: List[Tuple["ModelObject", VirtualTime, VirtualTime]] = []
        for obj in self.objects:
            lo = obj.current_value_vt()
            if lo < ts:
                guesses.append((obj, lo, ts))
        self.notifications += 1
        if self.site.bus.active:
            self._record_notify("update", ts, len(changed))
        self.view.update(changed, Snapshot(ts=ts, committed_only=False))
        if guesses:
            self.manager.dispatch_checks(record, guesses)
        if not (record.dead or record.denied or record.pending_sites or record.pending_rc):
            self.on_snapshot_ready(record)

    def on_snapshot_ready(self, record: SnapshotRecord) -> None:
        if record is not self.latest or record.dead:
            return
        # "An optimistic view will receive a commit notification whenever
        # its most recent update notification is known to have been from a
        # committed state."
        self.latest = None
        self.manager.discard_record(record)
        self.commit_notifications += 1
        if self.site.bus.active:
            self._record_notify("commit", record.ts, len(record.changed))
        self.view.commit()

    def on_snapshot_reply(self, record: SnapshotRecord, ok: bool) -> None:
        if record is not self.latest:
            return
        if not ok:
            # A straggler is on its way; it will supersede this snapshot.
            record.denied = True
            return
        if record.ready() and not record.dead:
            self.on_snapshot_ready(record)

    def _revise(self, record: SnapshotRecord) -> Optional[SnapshotRecord]:
        """Re-ask the latest snapshot's RL guesses under a fresh snapshot id
        (a primary it asked failed): a late reply to the old id is stale.
        The view is not notified again; only the checks are re-sent."""
        if record is not self.latest or record.dead:
            return None
        ts = record.ts
        fresh = self.manager.new_record(self, ts, committed_only=False, changed=record.changed)
        self.manager.discard_record(record)
        self.latest = fresh
        for dep_vt in record.pending_rc:
            self._register_rc(fresh, dep_vt)
        guesses = [
            (obj, obj.current_value_vt(), ts) for obj in self.objects if obj.current_value_vt() < ts
        ]
        if guesses:
            self.manager.dispatch_checks(fresh, guesses)
        return fresh


class PessimisticProxy(ViewProxy):
    """Proxy implementing the pessimistic discipline of section 4.2."""

    mode = "pessimistic"

    def __init__(self, manager: "ViewManager", view: View, objects: List["ModelObject"]) -> None:
        super().__init__(manager, view, objects)
        #: VT of the last delivered update notification.
        self.last_notified_vt: VirtualTime = VT_ZERO
        #: Pending snapshots keyed by ts.
        self.pending: Dict[VirtualTime, SnapshotRecord] = {}
        #: The same timestamps in VT order, so delivery and neighbour lookups
        #: bisect instead of scanning every pending VT.
        self._pending_order: List[VirtualTime] = []
        self.monotonicity_skips = 0

    def bootstrap(self) -> None:
        """Deliver the initial committed state and track in-flight updates."""
        ts0 = max(
            (obj.history.committed_current().vt for obj in self.objects), default=VT_ZERO
        )
        self.last_notified_vt = ts0
        self.notifications += 1
        if self.site.bus.active:
            self._record_notify("update", ts0, len(self.objects))
        self.view.update(list(self.objects), Snapshot(ts=ts0, committed_only=True))
        # Uncommitted values already applied locally become pending snapshots.
        seen: Set[VirtualTime] = set()
        for obj in self.objects:
            for vt in subtree_uncommitted_in_interval(obj, ts0, VT_TOP):
                if vt not in seen:
                    seen.add(vt)
                    self._create_snapshot(vt, [obj])

    def process_events(self, events: List[Tuple["ModelObject", str, VirtualTime]]) -> None:
        # Applies and undoes make the head deliverable only by replacing it;
        # every other transition that can delivers where it happens.
        pending, order = self.pending, self._pending_order
        head = pending[order[0]] if order else None
        for obj, event, vt in events:
            if event == "apply":
                if vt <= self.last_notified_vt:
                    # A committed straggler below the delivered frontier is
                    # prevented by snapshot reservations; an *uncommitted*
                    # one will be denied at the primary and abort.  Either
                    # way it can never be shown monotonically.
                    self.monotonicity_skips += 1
                    self._record_straggler("monotonicity_skip", vt)
                    continue
                attached = self.attached_root_of(obj)
                existing = self.pending.get(vt)
                if existing is not None:
                    if all(attached is not c for c in existing.changed):
                        existing.changed.append(attached)
                else:
                    self._create_snapshot(vt, [attached])
            else:  # "undo"
                self._drop_revising(vt)
        if order and pending[order[0]] is not head:
            self._deliver_ready()

    # -- snapshot lifecycle ---------------------------------------------

    def _drop_pending(self, ts: VirtualTime) -> Optional[SnapshotRecord]:
        record = self.pending.pop(ts, None)
        if record is not None:
            order = self._pending_order
            del order[bisect_left(order, ts)]
            self.manager.discard_record(record)
        return record

    def _drop_revising(self, ts: VirtualTime) -> None:
        """Drop the snapshot at ``ts``, if any (rolled back, or its writer
        aborted); its successor's interval now reaches further down."""
        if self._drop_pending(ts) is not None:
            successor = self._successor(ts)
            if successor is not None:
                self._revise(successor)

    def earliest_pending(self) -> Optional[VirtualTime]:
        """The lowest pending snapshot VT (None when nothing is pending)."""
        order = self._pending_order
        return order[0] if order else None

    def _predecessor_ts(self, ts: VirtualTime) -> VirtualTime:
        order = self._pending_order
        i = bisect_left(order, ts)
        return order[i - 1] if i else self.last_notified_vt

    def _successor(self, ts: VirtualTime) -> Optional[SnapshotRecord]:
        order = self._pending_order
        i = bisect_right(order, ts)
        return self.pending[order[i]] if i < len(order) else None

    def _create_snapshot(self, ts: VirtualTime, changed: List["ModelObject"]) -> None:
        record = self.manager.new_record(self, ts, committed_only=True, changed=list(changed))
        entry = self.site.engine.txns.get(ts)
        record.write_reads = entry.write_reads if entry is not None else None
        self.pending[ts] = record
        insort(self._pending_order, ts)
        # RC guess: the updating transaction must commit.
        self._register_rc(record, ts)
        self._send_checks(record)
        # A snapshot inserted between existing ones narrows its successor's
        # interval; revise the successor ("the RL guess made by the
        # succeeding snapshot ... is revised" — section 4.2).
        successor = self._successor(ts)
        if successor is not None:
            self._revise(successor)

    def _send_checks(self, record: SnapshotRecord) -> None:
        """Request confirmation of the RL guesses "(lo, ts) is write-free",
        one per attached object, except those the summary COMMIT confirms.

        A snapshot is delivered only when every guess is either answered by
        a CONFIRM-READ or covered by an interval ``(v, ts)`` with
        ``v <= lo`` that the object's primary reserved for the transaction
        at ``ts`` — ``write_reads`` holds ``v`` — and the object has no
        embedded children.  The record's RC guess already gates delivery on
        ``ts`` committing, and ``ts`` commits only after the primary found
        no entry, committed or not, in ``(v, ts)`` and reserved it in
        ``value_reservations`` — where it NC-denies every later straggler
        exactly as this snapshot's ``subtree_reservations`` entry would,
        and is pruned at the same stability floor.

        For a non-blind write ``v`` is the time it read, known when the
        write is applied.  For a blind write (``t_R = t_T``) it is the
        entry below ``ts`` in the primary's history, which only the COMMIT
        can tell (:meth:`on_commit_vouch`): if the last blind write's did,
        this one's CONFIRM-READ is withheld until its COMMIT arrives.  That
        expectation decides only *when* a CONFIRM-READ is sent, never
        whether the guess is checked.

        With ``v > lo`` the write at ``v`` has not reached this site yet;
        the check goes out, and that write's arrival revises the interval
        to one that is covered.  A composite's check covers a subtree that
        one node's write cannot vouch for.
        """
        ts = record.ts
        lo = self._predecessor_ts(ts)
        if not lo < ts:
            return
        site = self.site
        undecided = site.engine.status.get(ts) is None
        write_reads = record.write_reads
        guesses: List[Tuple["ModelObject", VirtualTime, VirtualTime]] = []
        for obj in self.objects:
            read_vt = write_reads.get(obj) if write_reads is not None else None
            if read_vt is not None and read_vt <= lo and obj.kind in _LEAF_KINDS:
                site.metrics.inc("view.rl_confirmed_by_commit")
                continue
            if read_vt is None and undecided and is_vouchable(obj) and obj in record.changed:
                primary, uid = self.manager.primary_copy_of(obj)
                if primary != site.site_id:
                    # Blind-written, and the COMMIT is still to come.
                    entry = (obj, uid, obj.vouch_expected)
                    if record.vouchable is None:
                        record.vouchable = [entry]
                    else:
                        record.vouchable.append(entry)
                    if obj.vouch_expected:
                        record.awaiting = True
                        continue
            guesses.append((obj, lo, ts))
        if guesses:
            self.manager.dispatch_checks(record, guesses)

    def on_commit_vouch(
        self, record: SnapshotRecord, vouched: Sequence[Tuple[str, VirtualTime]]
    ) -> None:
        """The transaction at ``record.ts`` committed, by whatever path —
        with or without a vouch, this is where a record that expected one
        is settled: note what the COMMIT vouched for (``uid -> prev`` pairs,
        handed over by the dependency index with the resolution itself) and
        settle the guesses withheld.

        A vouch ``(prev, ts)`` goes where a non-blind write's read time is
        (``write_reads``), so :meth:`_send_checks` finds the guess covered
        now and on any later revision.  A withheld guess the COMMIT did not
        cover — no vouch (a failure-resolution or repair commit, a primary
        that has not been asked yet), or ``prev > lo`` — is checked after
        all: the record is revised with ``ts`` decided, which sends its
        CONFIRM-READ through :meth:`ViewManager.dispatch_checks`.  That
        costs a round trip (4t once), never the check.
        """
        if self.pending.get(record.ts) is not record:
            return  # revised meanwhile; its replacement waits in the index too
        lo = self._predecessor_ts(record.ts)
        covered = missed = 0
        by_uid = dict(vouched)
        for obj, uid, withheld in record.vouchable:
            prev = by_uid.get(uid)
            obj.vouch_expected = prev is not None
            if prev is not None:
                if record.write_reads is None:
                    record.write_reads = {}
                record.write_reads[obj] = prev
            if withheld:
                if prev is not None and prev <= lo:
                    covered += 1
                else:
                    missed += 1
        record.vouchable = None
        record.awaiting = False
        # ``metrics.inc`` spelled out, as in ``dispatch_checks``: this runs
        # once per blind write and replica.
        counters = self.site.metrics.counters
        if missed:
            counters["view.vouch_missed"] = counters.get("view.vouch_missed", 0) + missed
            self._revise(record)  # counts what it finds covered
        elif covered:
            counters["view.rl_confirmed_by_commit"] = (
                counters.get("view.rl_confirmed_by_commit", 0) + covered
            )

    def _revise(self, record: SnapshotRecord) -> Optional[SnapshotRecord]:
        """Recompute and resend a still-pending snapshot's RL checks under a
        fresh snapshot id: with a narrower lo, or to a repaired primary."""
        if self.pending.get(record.ts) is not record:
            return None
        fresh = self.manager.new_record(
            self, record.ts, committed_only=True, changed=list(record.changed)
        )
        fresh.pending_rc = record.pending_rc  # RC waits carry over by ts
        fresh.write_reads = record.write_reads
        self.manager.discard_record(record)
        self.pending[record.ts] = fresh
        # The replacement waits in the index in its own right (the old
        # record's entry stays, and finds itself replaced).
        self._register_rc(fresh, record.ts)
        self._send_checks(fresh)
        return fresh

    # -- delivery ----------------------------------------------------------

    def _deliver_ready(self) -> None:
        """Deliver pending snapshots in VT order while they are ready."""
        pre_commit_mutant = "views_pre_commit" in self.site.engine.mutations
        order = self._pending_order
        while order:
            first_ts = order[0]
            record = self.pending[first_ts]
            if record.dead:
                self._drop_revising(first_ts)
                continue
            if pre_commit_mutant:
                # Deliberately broken gating (conformance-canary tests
                # only): deliver as soon as the remote checks are answered,
                # ignoring RC guesses and the commit gate.  The explorer's
                # pessimistic-view oracle must catch this.
                if record.denied or record.pending_sites:
                    return
            elif (record.denied or record.awaiting or record.pending_sites or record.pending_rc
                  or self.site.engine.status.get(first_ts) is not COMMITTED):
                return
            self._drop_pending(first_ts)
            self.last_notified_vt = first_ts
            self.notifications += 1
            self.site.metrics.observe(
                "view.pessimistic_delivery_ms",
                self.site.transport.now() - record.created_ms,
            )
            if self.site.bus.active:
                self._record_notify("update", first_ts, len(record.changed))
            self.view.update(record.changed, Snapshot(ts=first_ts, committed_only=True))

    def on_snapshot_ready(self, record: SnapshotRecord) -> None:
        self._deliver_ready()

    def on_snapshot_dead(self, record: SnapshotRecord) -> None:
        # The undo event (same batch) removes the pending snapshot; if the
        # abort resolved through the dep index first, clean up here.
        if self.pending.get(record.ts) is record:
            self._drop_revising(record.ts)
        self._deliver_ready()

    def on_snapshot_reply(self, record: SnapshotRecord, ok: bool) -> None:
        if self.pending.get(record.ts) is not record:
            return
        if not ok:
            # A committed straggler hides inside our interval; its local
            # arrival will insert an earlier snapshot and revise this one.
            record.denied = True
            return
        self._deliver_ready()


# ---------------------------------------------------------------------------
# The per-site view manager
# ---------------------------------------------------------------------------


class ViewManager:
    """Owns proxies, snapshot bookkeeping, and the CONFIRM-READ protocol.

    Most sites of a hosted collaboration never attach a view, so those
    lists start as ``()``, which the collector does not track, and become
    lists on first use.
    """

    def __init__(self, site: "SiteRuntime") -> None:
        self.site = site
        #: Attached proxies, and those with events to flush when the
        #: outermost batch ends (both lists from the first ``attach`` on).
        self.proxies: Sequence[ViewProxy] = ()
        self._batch_depth = 0
        self._dirty: Sequence[ViewProxy] = ()
        self._snap_seq = 0
        #: Requester-side snapshot records by id.
        self.records: Dict[Tuple[int, int], SnapshotRecord] = {}

    # -- attachment ------------------------------------------------------

    def attach(self, view: View, objects: List["ModelObject"], mode: str) -> ViewProxy:
        if mode == "optimistic":
            proxy: ViewProxy = OptimisticProxy(self, view, objects)
        elif mode == "pessimistic":
            proxy = PessimisticProxy(self, view, objects)
        else:
            raise ValueError(f"unknown view mode {mode!r}")
        if not self.proxies:
            self.proxies, self._dirty = [], []
        self.proxies.append(proxy)
        for obj in objects:
            if not obj.proxies:
                obj.proxies = []
            obj.proxies.append(proxy)
        proxy.bootstrap()
        return proxy

    def detach(self, proxy: ViewProxy) -> None:
        """Final: no event, reply or resolution reaches ``proxy`` again."""
        if proxy in self.proxies:
            self.proxies.remove(proxy)
        for obj in proxy.objects:
            if proxy in obj.proxies:
                obj.proxies.remove(proxy)
        for snap_id, record in list(self.records.items()):
            if record.proxy is proxy:
                del self.records[snap_id]
        self.site.engine.deps.forget(
            lambda target: isinstance(target, SnapshotRecord) and target.proxy is proxy
        )

    # -- batching ----------------------------------------------------------

    def begin_batch(self) -> None:
        self._batch_depth += 1

    def end_batch(self) -> None:
        if self._batch_depth <= 0:
            raise ProtocolError("unbalanced view batch")
        self._batch_depth -= 1
        if self._batch_depth == 0:
            while self._dirty:
                proxy = self._dirty.pop(0)
                events, proxy._events = proxy._events, ()
                proxy.process_events(events)

    # -- snapshot records (requester side) ---------------------------------

    def new_record(
        self,
        proxy: ViewProxy,
        ts: VirtualTime,
        committed_only: bool,
        changed: List["ModelObject"],
    ) -> SnapshotRecord:
        self._snap_seq += 1
        snap_id = (self.site.site_id, self._snap_seq)
        record = SnapshotRecord(
            snap_id=snap_id,
            proxy=proxy,
            ts=ts,
            committed_only=committed_only,
            created_ms=self.site.transport.now(),
            changed=changed,
        )
        self.records[snap_id] = record
        bus = self.site.bus
        if bus.active:
            bus.emit(
                "snapshot_taken",
                site=self.site.site_id,
                time_ms=record.created_ms,
                txn_vt=ts,
                mode=proxy.mode,
                committed_only=committed_only,
            )
        return record

    def discard_record(self, record: SnapshotRecord) -> None:
        self.records.pop(record.snap_id, None)

    def primary_copy_of(self, obj: "ModelObject") -> Tuple[int, str]:
        """Where ``obj``'s RL guesses are checked: the primary site of its
        propagation root under the current graph, and the root's uid there."""
        root = obj.propagation_root()
        graph = root.graph()
        primary = self.site.primary_site_of(graph)
        return primary, graph.uid_at_site(primary) or root.uid

    def dispatch_checks(
        self,
        record: SnapshotRecord,
        guesses: List[Tuple["ModelObject", VirtualTime, VirtualTime]],
    ) -> None:
        """Have the RL guesses ``(obj, lo, hi)`` — "``obj``'s subtree is
        write-free in ``(lo, hi)``" — checked at each object's primary copy:
        local ones evaluated here, one CONFIRM-READ per live remote primary.
        Entered only with guesses; a ``SnapshotCheck`` is built only for a
        primary that is asked.  While the current graph still names a dead
        primary (repair has not committed yet), its guesses are not sent:
        the record stays pending and is revised once repair has committed."""
        by_site: Dict[int, List[Tuple[str, "ModelObject", VirtualTime, VirtualTime]]] = {}
        for obj, lo, hi in guesses:
            primary, uid = self.primary_copy_of(obj)
            by_site.setdefault(primary, []).append((uid, obj, lo, hi))
        me = self.site.site_id
        failures = self.site.failures
        # Every primary is pending before any check is evaluated: a local
        # primary's immediate verdict must not find the record ready while
        # a remote primary is still to be asked.
        if record.pending_sites:
            record.pending_sites.update(by_site)
        else:
            record.pending_sites = set(by_site)
        for primary, site_guesses in sorted(by_site.items()):
            if primary in failures.failed:
                continue
            checks = tuple(
                SnapshotCheck(uid, lo, hi, record.committed_only, obj.path_from_root())
                for uid, obj, lo, hi in site_guesses
            )
            msg = SnapshotConfirmMsg(
                snap_id=record.snap_id, origin=me, checks=checks, clock=self.site.clock.counter
            )
            if primary == me:
                # Local-primary fast path: same aggregation logic, no
                # network round trip.
                self.on_confirm_request(me, msg)
            else:
                # ``metrics.inc`` spelled out: one CONFIRM-READ per remote
                # snapshot is the blind-write path, whose Python call count
                # is pinned (tests/test_call_budget.py).
                counters = self.site.metrics.counters
                counters["view.confirm_requests_sent"] = (
                    counters.get("view.confirm_requests_sent", 0) + 1
                )
                self.site.send(primary, msg)
        if not failures.failed.isdisjoint(by_site):
            failures.deferred_retries.append(lambda: self._revise_after_repair(record))

    # -- failure handling (requester and primary side) ---------------------

    def on_site_failed(self, failed: int) -> None:
        """React to a fail-stop notification (paper section 3.4).

        Replies owed to the dead site are dropped (they have nowhere to go);
        a snapshot record still waiting for the dead primary is revised once
        graph repair has committed — without this, a pessimistic view whose
        primary crashes mid-check would block forever.
        """
        self.site.engine.deps.forget(
            lambda target: isinstance(target, OutstandingReply) and target.origin == failed
        )
        retries = self.site.failures.deferred_retries
        for record in self.records.values():
            if failed in record.pending_sites:
                retries.append(lambda r=record: self._revise_after_repair(r))

    def _revise_after_repair(self, record: SnapshotRecord) -> None:
        """Re-address ``record``'s checks against the repaired graph, if it
        is still its proxy's current snapshot; a revision that asks nothing
        may be ready at once."""
        fresh = record.proxy._revise(record)
        if fresh is not None and fresh.ready() and not fresh.dead:
            fresh.proxy.on_snapshot_ready(fresh)

    # -- primary side --------------------------------------------------------

    def on_confirm_request(self, src: int, msg: SnapshotConfirmMsg) -> None:
        reply = OutstandingReply(self, msg.snap_id, msg.origin)
        for check in msg.checks:
            target = self._resolve_target(check)
            if target is None:
                verdict: Optional[bool] = False
            elif not check.committed_only:
                # Optimistic: any in-interval entry denies immediately; no
                # reservation is made (a straggler simply supersedes the view).
                verdict = not subtree_has_entry_in_interval(
                    target, check.lo_vt, check.hi_vt, committed_only=False
                )
            else:
                verdict = self._evaluate_pessimistic(reply, check, target)
            if verdict is None:
                self.site.metrics.inc("view.checks_parked")
            elif not verdict:
                reply.denied = True
        if not reply.parked:
            self._reply(reply)

    def _resolve_target(self, check: SnapshotCheck) -> Optional["ModelObject"]:
        root = self.site.objects.get(check.object_uid)
        if root is None:
            return None
        try:
            return propagation.resolve_path(root, check.path)
        except InvalidPath:
            return None

    def _evaluate_pessimistic(
        self, reply: OutstandingReply, check: SnapshotCheck, target: "ModelObject"
    ) -> Optional[bool]:
        """True/False verdict, or None if the check parked."""
        if reply.origin != self.site.site_id:
            # Another site watches this copy pessimistically: from now on a
            # blind write's COMMIT answers this question before it is asked
            # (``TransactionEngine._vouch``).
            target.watched = True
        if subtree_has_entry_in_interval(target, check.lo_vt, check.hi_vt, committed_only=True):
            return False
        unresolved = subtree_uncommitted_in_interval(target, check.lo_vt, check.hi_vt)
        if unresolved:
            # Park: the answer depends on whether those transactions commit.
            reply.parked.append((check, target))
            deps = self.site.engine.deps
            for vt in unresolved:
                if vt not in reply.waiting:
                    reply.waiting.add(vt)
                    deps.wait_for(vt, reply)
            return None
        # Confirmed: reserve the interval so no straggler can ever commit
        # inside it (monotonicity protection for delivered snapshots).
        target.reserve("subtree_reservations", check.lo_vt, check.hi_vt, ("snap",) + reply.snap_id)
        return True

    def recheck(self, reply: OutstandingReply, vt: VirtualTime) -> None:
        """``vt``, which ``reply`` waits on, resolved: re-evaluate its parked
        checks (what must keep waiting parks again) and answer once none is
        left.  Any committed entry in a check's interval denies it."""
        if not reply.parked:
            return  # answered already
        reply.waiting.discard(vt)
        parked, reply.parked = reply.parked, []
        for check, target in parked:
            if self._evaluate_pessimistic(reply, check, target) is False:
                reply.denied = True
        if not reply.parked:
            self._reply(reply)

    def _reply(self, reply: OutstandingReply) -> None:
        if reply.origin == self.site.site_id:
            record = self.records.get(reply.snap_id)
            if record is not None:
                record.pending_sites.discard(self.site.site_id)
                record.proxy.on_snapshot_reply(record, ok=not reply.denied)
            return
        self.site.send(
            reply.origin,
            SnapshotReplyMsg(
                snap_id=reply.snap_id, ok=not reply.denied, clock=self.site.clock.counter
            ),
        )

    # -- requester side: replies -------------------------------------------

    def on_confirm_reply(self, src: int, msg: SnapshotReplyMsg) -> None:
        record = self.records.get(msg.snap_id)
        if record is None:
            return  # superseded snapshot; stale reply
        record.pending_sites.discard(src)
        record.proxy.on_snapshot_reply(record, ok=msg.ok)

    # -- GC support -----------------------------------------------------------

    def retention_floor(self, obj: "ModelObject") -> Optional[VirtualTime]:
        """The oldest VT any local pending snapshot may still read for ``obj``."""
        floor: Optional[VirtualTime] = None
        node: Optional["ModelObject"] = obj
        while node is not None:
            for proxy in node.proxies:
                if isinstance(proxy, PessimisticProxy):
                    candidate = proxy.last_notified_vt
                    pending_min = proxy.earliest_pending()
                    if pending_min is not None and pending_min < candidate:
                        candidate = pending_min
                    if floor is None or candidate < floor:
                        floor = candidate
            node = node.parent
        return floor

    # -- aggregate metrics ------------------------------------------------

    #: The per-proxy counters :meth:`total_counters` sums, in this order.
    _TOTALS = (
        "notifications", "commit_notifications", "lost_updates",
        "update_inconsistencies", "read_inconsistencies",
    )

    def total_counters(self) -> Dict[str, int]:
        return {name: sum(getattr(p, name) for p in self.proxies) for name in self._TOTALS}
