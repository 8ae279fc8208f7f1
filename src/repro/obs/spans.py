"""Transaction lifecycle spans reconstructed from the event stream.

A *span* is the causal story of one transaction attempt, keyed by its
virtual time: submit → guess → fanout → validate → commit/abort → notify.
Each retry executes under a fresh VT, so retries are separate spans linked
by the ``attempt`` number carried on ``txn_submitted``.

Spans are derived purely from :class:`~repro.obs.events.ProtocolEvent`
sequences — nothing in the protocol tracks them at runtime — which keeps the
hot paths clean and makes span reconstruction usable on any saved timeline,
including the ones embedded in explorer violation artifacts.

This is the one place the lifecycle is derived.  A :class:`SpanTracker`
folds events into spans one at a time: unbounded over a recorded timeline
it *is* :func:`build_spans`; FIFO-bounded behind a live subscription it is
where ``TenantTelemetry`` and the notify-lag health rules read origin submit
and commit times — so live and offline numbers agree by construction.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.events import ProtocolEvent
from repro.vtime import VirtualTime

#: Event kinds that participate in a transaction's lifecycle span.  Other
#: txn_vt-carrying kinds (snapshot_taken, message_sent) are contextual.
_SPAN_KINDS = frozenset(
    {
        "txn_submitted",
        "guess_made",
        "fanout_sent",
        "validated",
        "committed",
        "aborted",
        "view_notified",
        "repair_committed",
    }
)


#: Default bound on the spans a live tracker retains (oldest evicted first).
DEFAULT_MAX_SPANS = 4096


def origin_resolution(event: ProtocolEvent) -> bool:
    """Commit/abort at the transaction's origin site: once per txn (the same
    kinds fire at every replica applying the summary — under a delegated
    commit at the primary, one transit *before* the origin hears)."""
    vt = event.txn_vt
    return vt is not None and event.site == vt.site and event.kind in ("committed", "aborted")


@dataclass
class TxnSpan:
    """One transaction attempt's lifecycle, with simulated-time phase marks.

    ``resolution`` is ``"committed"``, ``"aborted"``, or ``None`` when the
    trace ended mid-flight.  Resolution is the *origin site's*
    (:func:`origin_resolution`; ``origin_resolved`` says it was seen) — what
    the submitting application waits for.  Other sites' applications of
    the same commit count toward ``event_count`` but move no mark, except
    that the first of them stands in while the origin's has not appeared
    (a single-site recording of a remote transaction).
    """

    vt: VirtualTime
    origin: int
    submit_ms: Optional[float] = None
    attempt: int = 1
    first_guess_ms: Optional[float] = None
    first_fanout_ms: Optional[float] = None
    first_validated_ms: Optional[float] = None
    resolved_ms: Optional[float] = None
    resolution: Optional[str] = None
    origin_resolved: bool = False
    abort_reason: Optional[str] = None
    #: True when the transaction aborted before any fan-out was sent (user
    #: abort or a local-primary denial): the span is degenerate — no
    #: transit/validate phases exist — but it must still be reported, not
    #: silently dropped from span-derived analyses.
    aborted_pre_fanout: bool = False
    first_notify_ms: Optional[float] = None
    guesses: Dict[str, int] = field(default_factory=dict)
    fanout_sites: List[int] = field(default_factory=list)
    notify_count: int = 0
    event_count: int = 0
    #: The tracker owner's per-transaction state, evicted with the span
    #: (TenantTelemetry's tenant label, NotifyLagSLO's flagged sites).
    annotation: Any = None

    @property
    def duration_ms(self) -> Optional[float]:
        """Submit to resolution, in simulated ms (None while in flight)."""
        if self.submit_ms is None or self.resolved_ms is None:
            return None
        return self.resolved_ms - self.submit_ms

    @property
    def validate_latency_ms(self) -> Optional[float]:
        """First fanout to first remote validation."""
        if self.first_fanout_ms is None or self.first_validated_ms is None:
            return None
        return self.first_validated_ms - self.first_fanout_ms

    @property
    def notify_lag_ms(self) -> Optional[float]:
        """Resolution to first view notification referencing this txn."""
        if self.resolved_ms is None or self.first_notify_ms is None:
            return None
        return self.first_notify_ms - self.resolved_ms

    def pessimistic_lag_ms(self, event: ProtocolEvent) -> Optional[float]:
        """Origin commit to ``event`` if that is a pessimistic notification
        of this transaction and the origin's commit was seen, else None."""
        if (
            event.kind != "view_notified"
            or not self.origin_resolved
            or self.resolution != "committed"
            or event.data.get("mode") != "pessimistic"
        ):
            return None
        return event.time_ms - self.resolved_ms

    @property
    def complete(self) -> bool:
        return self.submit_ms is not None and self.resolution is not None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "vt": str(self.vt),
            "origin": self.origin,
            "attempt": self.attempt,
            "submit_ms": self.submit_ms,
            "first_guess_ms": self.first_guess_ms,
            "first_fanout_ms": self.first_fanout_ms,
            "first_validated_ms": self.first_validated_ms,
            "resolved_ms": self.resolved_ms,
            "resolution": self.resolution,
            "abort_reason": self.abort_reason,
            "aborted_pre_fanout": self.aborted_pre_fanout,
            "first_notify_ms": self.first_notify_ms,
            "duration_ms": self.duration_ms,
            "guesses": {k: self.guesses[k] for k in sorted(self.guesses)},
            "fanout_sites": list(self.fanout_sites),
            "notify_count": self.notify_count,
            "event_count": self.event_count,
        }


class SpanTracker:
    """Incremental span derivation: feed events in bus order, read spans.
    ``max_spans`` bounds the table for live subscribers (FIFO by first
    appearance, deterministic under replay); ``None`` keeps every span."""

    __slots__ = ("max_spans", "spans")

    def __init__(self, max_spans: Optional[int] = None) -> None:
        self.max_spans = max_spans
        #: VT -> span, in order of first appearance.
        self.spans: "OrderedDict[VirtualTime, TxnSpan]" = OrderedDict()

    def observe(self, event: ProtocolEvent) -> Optional[TxnSpan]:
        """Fold one event into its transaction's span and return the span
        (None for events outside any lifecycle)."""
        vt = event.txn_vt
        kind = event.kind
        if vt is None or kind not in _SPAN_KINDS:
            return None
        span = self.spans.get(vt)
        if span is None:
            span = self.spans[vt] = TxnSpan(vt=vt, origin=event.site)
            if self.max_spans is not None and len(self.spans) > self.max_spans:
                self.spans.popitem(last=False)
        span.event_count += 1
        if kind == "txn_submitted":
            span.submit_ms = event.time_ms
            span.origin = event.site
            span.attempt = int(event.data.get("attempt", 1))
        elif kind == "guess_made":
            if span.first_guess_ms is None:
                span.first_guess_ms = event.time_ms
            guess = str(event.data.get("guess", "?"))
            span.guesses[guess] = span.guesses.get(guess, 0) + 1
        elif kind == "fanout_sent":
            if span.first_fanout_ms is None:
                span.first_fanout_ms = event.time_ms
            dst = event.data.get("dst")
            if dst is not None:
                span.fanout_sites.append(int(dst))
        elif kind == "validated":
            if span.first_validated_ms is None:
                span.first_validated_ms = event.time_ms
        elif kind in ("committed", "aborted"):
            at_origin = origin_resolution(event)
            if not span.origin_resolved and (at_origin or span.resolution is None):
                span.origin_resolved = at_origin
                span.resolution = kind
                span.resolved_ms = event.time_ms
                aborted = kind == "aborted"
                span.abort_reason = event.data.get("reason") if aborted else None
                span.aborted_pre_fanout = aborted and span.first_fanout_ms is None
        elif kind == "view_notified":
            span.notify_count += 1
            if span.first_notify_ms is None:
                span.first_notify_ms = event.time_ms
        return span


def build_spans(events: Iterable[ProtocolEvent]) -> List[TxnSpan]:
    """Group an event stream into per-VT lifecycle spans.

    Spans come back ordered by first appearance in the stream, which for a
    recorded bus equals simulated-time order (seq breaks ties).  Events
    whose VT never saw a ``txn_submitted`` (e.g. a remote replica's view of
    a transaction when only one site was recorded) still form a span — its
    ``submit_ms`` stays None and ``complete`` is False.
    """
    tracker = SpanTracker()
    for event in events:
        tracker.observe(event)
    return list(tracker.spans.values())


def span_summary(spans: Iterable[TxnSpan]) -> Dict[str, Any]:
    """Aggregate statistics over a span list (used by `repro trace`)."""
    spans = list(spans)
    committed = [s for s in spans if s.resolution == "committed"]
    aborted = [s for s in spans if s.resolution == "aborted"]
    durations = sorted(s.duration_ms for s in committed if s.duration_ms is not None)
    return {
        "spans": len(spans),
        "committed": len(committed),
        "aborted": len(aborted),
        "aborted_pre_fanout": sum(1 for s in aborted if s.aborted_pre_fanout),
        "in_flight": len(spans) - len(committed) - len(aborted),
        "commit_duration_ms": {
            "min": durations[0] if durations else None,
            "max": durations[-1] if durations else None,
            "mean": round(sum(durations) / len(durations), 3) if durations else None,
        },
    }
