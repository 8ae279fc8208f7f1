"""Mergeable relative-error quantile sketches (DDSketch-style).

Replaces raw-sample retention for latency distributions: a
:class:`QuantileSketch` stores log-spaced bucket counts whose width is
chosen so any quantile estimate is within a configured *relative* error
``alpha`` of the true value — p99 of a 3 ms distribution is as accurate
as p99 of a 3 s one, which fixed-bound histograms
(:class:`repro.obs.metrics.Histogram`) cannot promise.

The design follows DDSketch (Masson, Rim & Lee, VLDB 2019): bucket ``i``
covers ``(gamma**(i-1), gamma**i]`` with ``gamma = (1+alpha)/(1-alpha)``,
and the estimate for any value in bucket ``i`` is the bucket midpoint
``2 * gamma**i / (gamma + 1)``.  Because bucket indices depend only on
the observed values (never on arrival order or wall clock), two sketches
fed the same multiset of values are identical, and merging is exact
bucket-count addition — commutative, and associative up to float
round-off in ``sum``.  Sketches therefore merge across sites and OS
processes exactly like the event timelines in :mod:`repro.obs.merge`.

Sketches live in the windowed per-tenant rollups of :mod:`repro.obs.agg`
(the per-site registries keep fixed-bucket histograms) and have one
serialization, :meth:`QuantileSketch.to_dict` / ``from_dict``: the JSON
form ``repro-agg/1`` snapshots carry between processes and ``repro top``
merges.  This module imports nothing from the rest of the package.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Optional

__all__ = [
    "DEFAULT_RELATIVE_ACCURACY",
    "QuantileSketch",
    "merge_sketches",
]

#: Default relative accuracy: quantile estimates within 1% of the true
#: value.  alpha=0.01 gives gamma ~= 1.0202, ~114 buckets per decade.
DEFAULT_RELATIVE_ACCURACY = 0.01

#: Values in (0, _MIN_VALUE] collapse into the zero bucket so the index
#: range stays bounded (a denormal would otherwise need ~35k buckets).
_MIN_VALUE = 1e-9


class QuantileSketch:
    """Log-bucketed quantile sketch with bounded relative error.

    ``observe`` is O(1); ``quantile`` is O(#buckets); ``merge`` is
    O(#buckets of the smaller side).  Only non-negative values are
    accepted (the repo's latencies and counts are all >= 0).  When the
    live bucket count exceeds ``max_buckets`` the two lowest buckets
    collapse into one — upper quantiles (the ones SLOs watch) keep the
    full guarantee; only the extreme low tail degrades.
    """

    __slots__ = (
        "relative_accuracy", "gamma", "_inv_log_gamma", "max_buckets",
        "buckets", "zero_count", "total", "sum", "min", "max",
    )

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        max_buckets: int = 2048,
    ) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}"
            )
        if max_buckets < 2:
            raise ValueError("max_buckets must be >= 2")
        self.relative_accuracy = float(relative_accuracy)
        self.gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._inv_log_gamma = 1.0 / math.log(self.gamma)
        self.max_buckets = max_buckets
        self.buckets: Dict[int, int] = {}
        self.zero_count = 0
        self.total = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # -- recording -------------------------------------------------------

    def _index(self, value: float) -> int:
        return math.ceil(math.log(value) * self._inv_log_gamma)

    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0.0 or value != value:  # negative or NaN
            raise ValueError(f"sketch values must be finite and >= 0, got {value}")
        if value <= _MIN_VALUE:
            self.zero_count += 1
        else:
            index = self._index(value)
            self.buckets[index] = self.buckets.get(index, 0) + 1
            if len(self.buckets) > self.max_buckets:
                self._collapse()
        self.total += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def _collapse(self) -> None:
        """Fold the lowest bucket into its neighbor until under the cap."""
        while len(self.buckets) > self.max_buckets:
            indices = sorted(self.buckets)
            lowest, second = indices[0], indices[1]
            self.buckets[second] += self.buckets.pop(lowest)

    # -- queries ---------------------------------------------------------

    def _value_of(self, index: int) -> float:
        return 2.0 * self.gamma ** index / (self.gamma + 1.0)

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0 <= q <= 1); 0.0 on an empty sketch.

        The estimate ``v`` satisfies ``|v - true| <= alpha * true`` for
        any true quantile that did not land in a collapsed or zero
        bucket (zero-bucket values are reported as exactly 0.0).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            return 0.0
        rank = q * (self.total - 1)
        cum = self.zero_count
        if rank < cum:
            return 0.0
        estimate = 0.0
        for index in sorted(self.buckets):
            cum += self.buckets[index]
            if cum > rank:
                estimate = self._value_of(index)
                break
        else:
            estimate = self.max if self.max is not None else 0.0
        # Clamp to the exact observed extremes: the true quantile lies in
        # [min, max], so clamping only moves the estimate closer.
        if self.min is not None:
            estimate = min(max(estimate, self.min), self.max)  # type: ignore[arg-type]
        return estimate

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    # -- merge -----------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (bucket-count addition)."""
        if other.relative_accuracy != self.relative_accuracy:
            raise ValueError(
                "cannot merge sketches with different relative accuracy: "
                f"{self.relative_accuracy} vs {other.relative_accuracy}"
            )
        for index in sorted(other.buckets):
            self.buckets[index] = self.buckets.get(index, 0) + other.buckets[index]
        if len(self.buckets) > self.max_buckets:
            self._collapse()
        self.zero_count += other.zero_count
        self.total += other.total
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def copy(self) -> "QuantileSketch":
        out = QuantileSketch(self.relative_accuracy, self.max_buckets)
        out.merge(self)
        return out

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON-serializable snapshot (same shape as Histogram's)."""
        return {
            "relative_accuracy": self.relative_accuracy,
            "zero_count": self.zero_count,
            "total": self.total,
            "sum": round(self.sum, 6),
            "mean": round(self.mean, 6),
            "min": self.min,
            "max": self.max,
            "buckets": [[i, c] for i, c in sorted(self.buckets.items())],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any], max_buckets: int = 2048) -> "QuantileSketch":
        out = cls(data["relative_accuracy"], max_buckets)
        out.buckets = {int(i): int(c) for i, c in data["buckets"]}
        out.zero_count = data["zero_count"]
        out.total = data["total"]
        out.sum = data["sum"]
        out.min = data["min"]
        out.max = data["max"]
        return out

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(alpha={self.relative_accuracy}, total={self.total}, "
            f"p50={self.quantile(0.5):.3f}, p99={self.quantile(0.99):.3f})"
        )


def merge_sketches(sketches: Iterable[QuantileSketch]) -> QuantileSketch:
    """Merge an iterable of sketches into a fresh one.

    Empty input yields an empty sketch at the default accuracy.
    """
    out: Optional[QuantileSketch] = None
    for sk in sketches:
        if out is None:
            out = QuantileSketch(sk.relative_accuracy, sk.max_buckets)
        out.merge(sk)
    return out if out is not None else QuantileSketch()
