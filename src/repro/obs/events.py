"""The protocol event bus: typed lifecycle events with zero disabled cost.

Every protocol-relevant moment — a transaction submitted, a guess made, a
primary validating, a commit landing, a view being notified, a failure
notice arriving — is describable as a :class:`ProtocolEvent`.  The
:class:`EventBus` collects them (when recording) and fans them out to
subscribers (message tracing, live dashboards).  Instrumented code guards
every emission with ``if bus.active:`` so a disabled bus costs exactly one
attribute load and one branch on the hot paths; no event object, kwargs
dict, or payload formatting is ever built unless someone is listening.
When someone is, :meth:`EventBus.emit` is the one way an event comes to
exist.  Recording keeps no object per event (:class:`RecordedEvents`), and
subscribers get one :class:`ProtocolEvent` per emit, built only for them.

Events are stamped with the owning transport's clock (:mod:`repro.obs.clock`).
In the simulator that is *simulated* time, never the wall clock, so a
recorded timeline is deterministic: the same seed always yields
byte-identical exports, which is what lets the conformance explorer embed
timelines in replayable violation artifacts.  The real cross-process
transports stamp monotonic wall-clock milliseconds instead
(:class:`~repro.obs.clock.WallClock`); their per-process timelines are
fused — send/deliver pairing plus clock-skew estimation — by
:mod:`repro.obs.merge`.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.vtime import VirtualTime

#: The event taxonomy.  ``guess_made`` carries ``guess`` in {"RC","RL","NC"};
#: ``view_notified`` carries ``mode`` in {"optimistic","pessimistic"} and
#: ``kind`` in {"update","commit"}; ``straggler_detected`` carries ``flavor``
#: in {"lost_update","update_inconsistency","read_inconsistency",
#: "monotonicity_skip"}; ``message_sent``/``message_delivered`` share a
#: network-wide ``msg_id`` linking each delivery to its send (the
#: happens-before edges of repro.obs.causal).  See docs/OBSERVABILITY.md
#: for the full schema.
EVENT_KINDS = frozenset(
    {
        "txn_submitted",
        "guess_made",
        "fanout_sent",
        "validated",
        "committed",
        "aborted",
        "retry_scheduled",
        "propagate_blocked",
        "straggler_detected",
        "view_notified",
        "snapshot_taken",
        "op_applied",
        "failure_notice",
        "repair_committed",
        "message_sent",
        "message_delivered",
        "envelope_sent",
        "peer_unreachable",
        "peer_connected",
    }
)

#: Data keys never serialized by :func:`event_to_dict` (live object refs
#: kept for subscribers like MessageTrace, meaningless in an export).
_EXPORT_SKIP_KEYS = frozenset({"payload"})


class ProtocolEvent(NamedTuple):
    """One recorded protocol moment.

    ``seq`` is a bus-wide monotone counter that breaks simulated-time ties
    deterministically; ``site`` is the site at which the event happened
    (``-1`` for events with no site, e.g. nothing currently); ``txn_vt``
    links the event to a transaction lifecycle (or a snapshot's ``t_S``,
    which for pessimistic views equals the writing transaction's VT).

    A tuple-backed record: immutable, no per-instance ``__dict__``;
    ``event._replace(time_ms=...)`` derives a modified copy.
    """

    seq: int
    time_ms: float
    site: int
    kind: str
    txn_vt: Optional[VirtualTime]
    data: Dict[str, Any]

    def __str__(self) -> str:
        vt = f" vt={self.txn_vt}" if self.txn_vt is not None else ""
        extras = " ".join(
            f"{k}={v}" for k, v in sorted(self.data.items()) if k not in _EXPORT_SKIP_KEYS
        )
        return f"{self.time_ms:9.1f}ms  s{self.site}  {self.kind}{vt}  {extras}".rstrip()


_new_tuple = tuple.__new__
_NO_VT = (None, None)


class RecordedEvents(Sequence):
    """A bus's recorded events: a read-only sequence in ``seq`` order.

    Event *i* is ``seq`` and ``time_ms`` in two ``array`` columns and, from
    ``starts[i]`` in one flat list, its site, kind, VT as two ints (or two
    Nones), data keys and data values: nothing per event is GC-tracked.
    ``len()`` builds nothing; reads rebuild each event and keep none.
    """

    __slots__ = ("_seqs", "_times", "_starts", "_flat")

    def __init__(self) -> None:
        self._seqs, self._times, self._starts = array("q"), array("d"), array("q")
        self._flat: List[Any] = []

    def __len__(self) -> int:
        return len(self._starts)

    def _event(self, i: int) -> ProtocolEvent:
        flat, starts = self._flat, self._starts
        start, end = starts[i], starts[i + 1] if i + 1 < len(starts) else len(flat)
        site, kind, counter, vt_site = flat[start:start + 4]
        values = (start + 4 + end) // 2  # as many keys as values
        vt = None if counter is None else _new_tuple(VirtualTime, (counter, vt_site))
        data = dict(zip(flat[start + 4:values], flat[values:end]))
        return _new_tuple(ProtocolEvent, (self._seqs[i], self._times[i], site, kind, vt, data))

    def __iter__(self):
        return map(self._event, range(len(self)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._event(i) for i in range(*index.indices(len(self)))]
        return self._event(range(len(self))[index])

    def __eq__(self, other: object) -> bool:
        comparable = isinstance(other, (list, RecordedEvents))
        return list(self) == list(other) if comparable else NotImplemented


def _json_safe(value: Any) -> Any:
    """Map event data to deterministic JSON-serializable values."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, VirtualTime):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    return str(value)


def event_to_dict(event: ProtocolEvent) -> Dict[str, Any]:
    """A stable, JSON-serializable rendering of one event."""
    return {
        "seq": event.seq,
        "time_ms": round(event.time_ms, 6),
        "site": event.site,
        "kind": event.kind,
        "txn_vt": str(event.txn_vt) if event.txn_vt is not None else None,
        "data": {
            k: _json_safe(v)
            for k, v in sorted(event.data.items())
            if k not in _EXPORT_SKIP_KEYS
        },
    }


class EventBus:
    """Collects and fans out protocol events for one session/network.

    The bus has two independent consumers: a *recording* buffer
    (``enable()`` / ``events``) and live *subscribers* (``subscribe``).
    ``active`` is True iff either exists — instrumentation sites check it
    before building an event, so an idle bus adds no measurable overhead.

    Subscription is re-entrant-safe and order-independent: subscribers are
    stored in a list keyed by identity, so two concurrent
    :class:`~repro.sim.trace.MessageTrace` instances can install and
    uninstall in any order without clobbering each other (the monkeypatch
    stacking bug this bus replaced).
    """

    __slots__ = ("active", "recording", "events", "_subscribers", "_seq") + RecordedEvents.__slots__

    def __init__(self) -> None:
        self.active = False
        self.recording = False
        #: Recorded events, in emission (``seq``) order.
        self.events = events = RecordedEvents()  # emit() appends to its columns
        self._seqs, self._times, self._starts, self._flat = map(events.__getattribute__, events.__slots__)
        self._subscribers: List[Callable[[ProtocolEvent], None]] = []
        self._seq = 0

    # -- lifecycle -------------------------------------------------------

    def enable(self) -> None:
        """Start recording events into :attr:`events`."""
        self.recording = True
        self._refresh()

    def disable(self) -> None:
        """Stop recording (recorded events are kept until :meth:`clear`)."""
        self.recording = False
        self._refresh()

    def clear(self) -> None:
        """Drop all recorded events (the sequence counter keeps running)."""
        del self._seqs[:], self._times[:], self._starts[:], self._flat[:]

    def subscribe(self, fn: Callable[[ProtocolEvent], None]) -> None:
        """Add a live consumer called synchronously on every event."""
        self._subscribers.append(fn)
        self._refresh()

    def unsubscribe(self, fn: Callable[[ProtocolEvent], None]) -> None:
        """Remove a consumer; unknown consumers are ignored (idempotent)."""
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass
        self._refresh()

    def _refresh(self) -> None:
        self.active = self.recording or bool(self._subscribers)

    # -- emission --------------------------------------------------------

    def emit(
        self,
        event_kind: str,
        site: int,
        time_ms: float,
        txn_vt: Optional[VirtualTime] = None,
        **data: Any,
    ) -> None:
        """Record/distribute one event.  Callers guard with ``if bus.active``
        so the kwargs dict is never built on a dead bus; emit() re-checks
        anyway so unguarded call sites stay correct.  (The positional name
        is ``event_kind`` so data payloads may carry their own ``kind`` key,
        e.g. view_notified's kind=update/commit.)"""
        if not self.active:
            return
        seq = self._seq
        self._seq = seq + 1
        if self.recording:
            self._seqs.append(seq)
            self._times.append(time_ms)
            flat = self._flat
            self._starts.append(len(flat))
            flat += (site, event_kind) + (txn_vt or _NO_VT)
            flat += data
            flat += data.values()
        subscribers = self._subscribers
        if subscribers:
            event = _new_tuple(ProtocolEvent, (seq, time_ms, site, event_kind, txn_vt, data))
            for fn in subscribers:
                fn(event)

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._starts)

    def filter(
        self,
        kind: Optional[str] = None,
        site: Optional[int] = None,
        txn_vt: Optional[VirtualTime] = None,
    ) -> List[ProtocolEvent]:
        """Recorded events matching every given criterion."""
        out = []
        for event in self.events:
            if kind is not None and event.kind != kind:
                continue
            if site is not None and event.site != site:
                continue
            if txn_vt is not None and event.txn_vt != txn_vt:
                continue
            out.append(event)
        return out

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def timeline(self) -> List[Dict[str, Any]]:
        """The recorded events as stable JSON-serializable dicts."""
        return [event_to_dict(e) for e in self.events]

    def __repr__(self) -> str:
        state = "recording" if self.recording else ("live" if self.active else "idle")
        return f"EventBus({state}, {len(self.events)} events, {len(self._subscribers)} subscribers)"
