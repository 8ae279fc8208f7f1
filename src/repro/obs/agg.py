"""Windowed per-tenant telemetry rollups: counters + quantile sketches.

The paper's §5.1.3 scalability argument is that commit cost is per
*collaboration set*, not global — so the telemetry must be per
collaboration set too.  A :class:`TelemetryAggregator` buckets counters
and :class:`~repro.obs.sketch.QuantileSketch` observations into tumbling
time windows keyed by a tenant label (one label per collaboration
set/object/customer), holding a bounded number of recent windows.  Time
comes from whichever clock stamps the events (simulated ms in the
simulator, :class:`~repro.obs.clock.WallClock` ms on the real socket
plane), so aggregation is deterministic under replay.

Snapshots are plain JSON dicts (``repro-agg/1``) in which sketches appear
in their :meth:`~repro.obs.sketch.QuantileSketch.to_dict` form; they are
mergeable across processes with :func:`merge_agg_snapshots` (counters
add, sketches bucket-merge) — the same discipline as the trace merge in
:mod:`repro.obs.merge`, and what lets ``repro top`` fuse the per-process
``agg*.json`` files that ``examples/two_process_tcp.py --trace-dir``
emits.

:class:`TenantTelemetry` adapts the event bus to the aggregator: it maps
each transaction to a tenant (the first object it touches, falling back
to the origin site), and derives per-tenant commit counts, commit
latency, abort counts, and notify lag from the protocol lifecycle events
— subscribe it like any other consumer (``bus.subscribe(telemetry)``).
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.events import ProtocolEvent
from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch
from repro.obs.spans import DEFAULT_MAX_SPANS, SpanTracker, TxnSpan, origin_resolution

__all__ = [
    "AGG_FORMAT",
    "TelemetryAggregator",
    "TenantTelemetry",
    "merge_agg_snapshots",
]

AGG_FORMAT = "repro-agg/1"

#: Quantiles exported in snapshots and rendered by ``repro top``.
SNAPSHOT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)


class _TenantWindow:
    """One tenant's accumulators inside one time window."""

    __slots__ = ("counters", "sketches")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.sketches: Dict[str, QuantileSketch] = {}


def _render(
    windows: Dict[int, Dict[str, _TenantWindow]], window_ms: float, site: int
) -> Dict[str, Any]:
    """The ``repro-agg/1`` form of ``window index -> tenant -> accumulators``
    (what an aggregator holds and what a merge rebuilds), keys sorted."""
    rendered: List[Dict[str, Any]] = []
    for index in sorted(windows):
        tenants: Dict[str, Any] = {}
        for tenant in sorted(windows[index]):
            cell = windows[index][tenant]
            tenants[tenant] = {
                "counters": {k: cell.counters[k] for k in sorted(cell.counters)},
                "sketches": {k: cell.sketches[k].to_dict() for k in sorted(cell.sketches)},
                "quantiles": {
                    k: {
                        f"p{int(q * 100)}": round(cell.sketches[k].quantile(q), 6)
                        for q in SNAPSHOT_QUANTILES
                    }
                    for k in sorted(cell.sketches)
                },
            }
        rendered.append(
            {
                "index": index,
                "start_ms": index * window_ms,
                "end_ms": (index + 1) * window_ms,
                "tenants": tenants,
            }
        )
    return {"format": AGG_FORMAT, "site": site, "window_ms": window_ms, "windows": rendered}


class TelemetryAggregator:
    """Tumbling-window rollups keyed by (window index, tenant label).

    ``window_ms`` sets the window width; ``keep_windows`` bounds memory —
    when a new window opens beyond the horizon, the oldest completed
    windows are evicted (their data is assumed already snapshotted by the
    periodic flusher).  Eviction is by window index, so it is
    deterministic under replay regardless of flush timing.
    """

    def __init__(
        self,
        window_ms: float = 1000.0,
        keep_windows: int = 8,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        site: int = -1,
    ) -> None:
        if window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {window_ms}")
        if keep_windows < 1:
            raise ValueError("keep_windows must be >= 1")
        self.window_ms = float(window_ms)
        self.keep_windows = keep_windows
        self.relative_accuracy = relative_accuracy
        self.site = site
        # window index -> tenant label -> accumulators; OrderedDict in
        # insertion order == ascending window index (time is monotone).
        self._windows: "OrderedDict[int, Dict[str, _TenantWindow]]" = OrderedDict()

    # -- recording -------------------------------------------------------

    def _cell(self, tenant: str, time_ms: float) -> _TenantWindow:
        index = int(time_ms // self.window_ms)
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = {}
            while len(self._windows) > self.keep_windows:
                self._windows.popitem(last=False)
        cell = window.get(tenant)
        if cell is None:
            cell = window[tenant] = _TenantWindow()
        return cell

    def inc(self, tenant: str, name: str, time_ms: float, delta: int = 1) -> None:
        """Bump counter ``name`` for ``tenant`` in the window of ``time_ms``."""
        counters = self._cell(tenant, time_ms).counters
        counters[name] = counters.get(name, 0) + delta

    def observe(self, tenant: str, name: str, time_ms: float, value: float) -> None:
        """Record ``value`` into tenant's ``name`` sketch in the window."""
        sketches = self._cell(tenant, time_ms).sketches
        sketch = sketches.get(name)
        if sketch is None:
            sketch = sketches[name] = QuantileSketch(self.relative_accuracy)
        sketch.observe(value)

    # -- export ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic JSON-stable dump of every retained window."""
        return _render(self._windows, self.window_ms, self.site)

    def to_json(self) -> str:
        """Canonical byte-stable serialization of :meth:`snapshot`."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n"

    def tenants(self) -> List[str]:
        """Every tenant label seen in the retained windows, sorted."""
        out = set()
        for window in self._windows.values():
            out.update(window)
        return sorted(out)

    def __repr__(self) -> str:
        return (
            f"TelemetryAggregator(window_ms={self.window_ms}, "
            f"{len(self._windows)} windows, {len(self.tenants())} tenants)"
        )


def merge_agg_snapshots(*snapshots: Dict[str, Any]) -> Dict[str, Any]:
    """Fuse ``repro-agg/1`` snapshots from several sites/processes.

    Counters add; sketches bucket-merge
    (:meth:`~repro.obs.sketch.QuantileSketch.merge`); quantiles are
    re-derived from the merged sketches.  All inputs must share
    ``window_ms`` — windows are aligned by index, which is well-defined
    across processes only when their clocks share an origin (the
    simulator) or the consumer accepts window-granularity skew
    (``repro top`` over wall clocks).  Merging is commutative and
    associative up to float round-off in sketch sums, mirroring the
    sketch merge laws.
    """
    if not snapshots:
        return _render({}, 0.0, site=-1)
    window_ms = snapshots[0]["window_ms"]
    for snap in snapshots:
        if snap.get("format") != AGG_FORMAT:
            raise ValueError(f"not a {AGG_FORMAT} snapshot: {snap.get('format')!r}")
        if snap["window_ms"] != window_ms:
            raise ValueError(
                f"window_ms mismatch: {snap['window_ms']} vs {window_ms}"
            )
    windows: Dict[int, Dict[str, _TenantWindow]] = {}
    for snap in snapshots:
        for window in snap["windows"]:
            for tenant, data in window["tenants"].items():
                cells = windows.setdefault(window["index"], {})
                cell = cells.get(tenant)
                if cell is None:
                    cell = cells[tenant] = _TenantWindow()
                for name, value in data["counters"].items():
                    cell.counters[name] = cell.counters.get(name, 0) + value
                for name, sketch_data in data["sketches"].items():
                    sketch = QuantileSketch.from_dict(sketch_data)
                    if name in cell.sketches:
                        cell.sketches[name].merge(sketch)
                    else:
                        cell.sketches[name] = sketch
    return _render(windows, window_ms, site=-1)


#: Lifecycle kinds TenantTelemetry reads (attribution and series alike).
_TELEMETRY_KINDS = frozenset(
    {"txn_submitted", "guess_made", "op_applied", "committed", "aborted", "view_notified"}
)


def _tenant(span: TxnSpan) -> str:
    return span.annotation if span.annotation is not None else f"site:{span.vt.site}"


class TenantTelemetry:
    """Event-bus subscriber deriving per-tenant protocol metrics.

    Tenant attribution: a transaction belongs to the first object label
    its lifecycle mentions (``obj`` in ``guess_made`` / ``op_applied``
    data — the collaboration set it writes), falling back to
    ``site:<origin>`` for transactions whose recorded events never name
    an object.  Lifecycle times come from a :class:`~repro.obs.spans.SpanTracker`
    bounded to ``max_txns`` live transactions (FIFO, deterministic under
    replay); the label rides on the span, so it is evicted with it.

    Derived per-tenant series (all in the transaction origin's window):

    * ``commits`` / ``aborts`` — origin-site resolutions.
    * ``commit_latency_ms`` sketch — ``txn_submitted`` to origin
      ``committed`` (the span's ``duration_ms``).
    * ``notify_lag_ms`` sketch — origin ``committed`` to each
      pessimistic ``view_notified`` (the NotifyLagSLO quantity).
    """

    def __init__(
        self,
        agg: Optional[TelemetryAggregator] = None,
        tenant_of: Optional[Callable[[ProtocolEvent], Optional[str]]] = None,
        max_txns: int = DEFAULT_MAX_SPANS,
    ) -> None:
        self.agg = agg if agg is not None else TelemetryAggregator()
        self._tenant_of = tenant_of
        self._spans = SpanTracker(max_txns)

    def observe(self, event: ProtocolEvent) -> None:
        kind = event.kind
        if kind not in _TELEMETRY_KINDS:
            return
        if kind == "op_applied":  # names the object; no lifecycle mark
            span = self._spans.spans.get(event.txn_vt)
        else:
            span = self._spans.observe(event)
        if span is None:
            return
        if span.annotation is None:
            if self._tenant_of is not None:
                span.annotation = self._tenant_of(event)
            else:
                obj = event.data.get("obj")
                if obj is not None:
                    span.annotation = f"obj:{obj}"
        if kind == "view_notified":
            lag = span.pessimistic_lag_ms(event)
            if lag is not None:
                self.agg.observe(_tenant(span), "notify_lag_ms", event.time_ms, lag)
        elif origin_resolution(event):
            tenant = _tenant(span)
            if kind == "aborted":
                self.agg.inc(tenant, "aborts", event.time_ms)
            else:
                self.agg.inc(tenant, "commits", event.time_ms)
                if span.submit_ms is not None:
                    self.agg.observe(
                        tenant, "commit_latency_ms", event.time_ms, span.duration_ms
                    )

    __call__ = observe  # the instance itself is the bus subscriber
