"""Per-site metrics registry: counters, gauges, deterministic histograms.

Replaces the scattered ad-hoc integer attributes (``engine.commits``,
``failures.graphs_repaired``, per-proxy notification counts) with one
registry per :class:`~repro.core.site.SiteRuntime`.  Existing attribute
*reads* keep working — the engine and failure manager expose read-only
registry-backed properties — but every counter is now also enumerable,
snapshotable, and exported alongside traces.

A registry holds one distribution type, the fixed-bucket :class:`Histogram`:
constant memory per series and exact, mergeable counts — "how many commits
were slower than X".  "What is p99, to 1 %" is the windowed per-tenant
aggregator's question (:mod:`repro.obs.agg`), which observes a
:class:`~repro.obs.sketch.QuantileSketch` instead; nothing carries both.

Accounting is deterministic: bucket boundaries are *fixed* and values are
stamped by the session's clock, so under the simulator a metrics snapshot
for a given seed is byte-stable across runs and platforms.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The one latency ladder (bucket upper bounds, milliseconds of whichever
#: clock stamps the run): 1–2.5–5 steps from 50 µs to 5 s, so a 0.2 ms
#: loopback commit, a socket write flush and a 200 ms simulated commit on
#: 5–200 ms links each land in a bucket that brackets them.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)

#: Bucket bounds for small integer distributions (attempt counts, fanout
#: sizes): one bucket per value up to 8, then a tail.
COUNT_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 16.0)


class Histogram:
    """A fixed-bucket histogram with deterministic accounting.

    ``bounds`` are inclusive upper edges; one implicit overflow bucket
    catches everything above the last edge.  ``counts``/``total``/``sum``
    are exact (no sampling), so two runs that observe the same sequence of
    values produce identical snapshots.
    """

    __slots__ = ("bounds", "counts", "total", "sum", "min", "max")

    def __init__(self, bounds: Sequence[float] = LATENCY_BUCKETS_MS) -> None:
        self.bounds: Tuple[float, ...] = tuple(map(float, bounds))
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        # bisect_left on the upper edges makes each bound inclusive:
        # bucket i covers (bounds[i-1], bounds[i]], overflow past the end.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON-serializable snapshot."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "sum": round(self.sum, 6),
            "mean": round(self.mean, 6),
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self) -> str:
        return f"Histogram(total={self.total}, mean={self.mean:.2f})"


class MetricsRegistry:
    """One site's metrics: named counters, gauges, and histograms.

    Names are dotted strings (``txn.commits``, ``view.lost_updates``,
    ``txn.commit_latency_ms``).  Counters spring into existence at zero on
    first touch; histograms must declare their buckets once via
    :meth:`histogram` (re-declaring with the same bounds is a no-op).
    """

    __slots__ = ("site", "counters", "gauges", "histograms")

    def __init__(self, site: int = -1) -> None:
        self.site = site
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- counters --------------------------------------------------------

    def inc(self, name: str, delta: int = 1) -> int:
        value = self.counters.get(name, 0) + delta
        self.counters[name] = value
        return value

    def set_counter(self, name: str, value: int) -> None:
        self.counters[name] = value

    def value(self, name: str) -> int:
        return self.counters.get(name, 0)

    # -- gauges ----------------------------------------------------------

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    # -- histograms ------------------------------------------------------

    def histogram(self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS_MS) -> Histogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = Histogram(bounds)
            self.histograms[name] = hist
        return hist

    def observe(self, name: str, value: float,
                bounds: Sequence[float] = LATENCY_BUCKETS_MS) -> None:
        self.histogram(name, bounds).observe(value)

    # -- export ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic full dump: keys sorted, histograms expanded."""
        return {
            "site": self.site,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {k: self.histograms[k].to_dict() for k in sorted(self.histograms)},
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(site={self.site}, {len(self.counters)} counters, "
            f"{len(self.histograms)} histograms)"
        )


def counter_property(name: str, doc: Optional[str] = None) -> property:
    """A read-only, registry-backed int attribute for protocol components.

    Lets readers (``site.engine.aborts_conflict`` in tests,
    ``Session.counters()``) keep their shape while the value lives in
    ``site.metrics``.  Writers bump the registry directly
    (``metrics.inc(name)``): an increment is one dict write, not a property
    get and set.  The owning object must expose ``site`` with a ``metrics``
    registry.
    """

    def _get(self) -> int:
        return self.site.metrics.value(name)

    return property(_get, doc=doc or f"Registry-backed counter {name!r}.")
