"""Quantile-sketch accuracy and merge laws (repro.obs.sketch).

Two families of properties pin the sketch:

* **Accuracy**: against the exact quantiles of the sorted sample, every
  estimate must respect the configured relative-error bound, including
  on distributions built to break log-bucketed sketches (many decades of
  range, widely separated modes, heavy tails, a single repeated value).
* **Merge laws**: merging is equivalent to observing the concatenated
  stream (the property that makes cross-site aggregation sound), and is
  commutative/associative on the bucket state.  Order-insensitivity and
  the JSON round-trip follow from the same state equality.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.sketch import (
    DEFAULT_RELATIVE_ACCURACY,
    QuantileSketch,
    merge_sketches,
)

QUANTILES = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999)


def exact_quantile(ordered, q):
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1)))]


def assert_within_bound(sketch, values, quantiles=QUANTILES):
    ordered = sorted(values)
    for q in quantiles:
        true = exact_quantile(ordered, q)
        est = sketch.quantile(q)
        if true <= 1e-9:
            assert est <= 1e-9, (q, true, est)
        else:
            rel = abs(est - true) / true
            assert rel <= sketch.relative_accuracy + 1e-12, (q, true, est, rel)


def fill(values, alpha=DEFAULT_RELATIVE_ACCURACY):
    sketch = QuantileSketch(alpha)
    for v in values:
        sketch.observe(v)
    return sketch


def state(sketch):
    """The mergeable state (everything except float `sum` round-off)."""
    return (
        sketch.relative_accuracy,
        sketch.zero_count,
        sketch.total,
        sketch.min,
        sketch.max,
        tuple(sorted(sketch.buckets.items())),
    )


# ---------------------------------------------------------------------------
# Accuracy on adversarial distributions
# ---------------------------------------------------------------------------


class TestAccuracy:
    def test_lognormal(self):
        rng = random.Random(1)
        values = [rng.lognormvariate(3.0, 2.0) for _ in range(20_000)]
        assert_within_bound(fill(values), values)

    def test_loguniform_nine_decades(self):
        rng = random.Random(2)
        values = [10.0 ** rng.uniform(-3.0, 6.0) for _ in range(20_000)]
        assert_within_bound(fill(values), values)

    def test_bimodal_separated_modes(self):
        rng = random.Random(3)
        values = [
            abs(rng.gauss(1.0, 0.05)) if rng.random() < 0.5 else rng.gauss(5000.0, 100.0)
            for _ in range(20_000)
        ]
        assert_within_bound(fill(values), values)

    def test_pareto_heavy_tail(self):
        rng = random.Random(4)
        values = [rng.paretovariate(1.2) for _ in range(20_000)]
        assert_within_bound(fill(values), values)

    def test_constant_stream_is_exact(self):
        values = [42.0] * 10_000
        sketch = fill(values)
        for q in QUANTILES:
            # min/max clamping pins a one-bucket sketch to the exact value
            assert sketch.quantile(q) == 42.0
        assert len(sketch.buckets) == 1

    def test_tight_accuracy_setting(self):
        rng = random.Random(5)
        values = [rng.lognormvariate(0.0, 1.0) for _ in range(5_000)]
        assert_within_bound(fill(values, alpha=0.001), values)

    def test_coarse_accuracy_setting(self):
        rng = random.Random(6)
        values = [rng.expovariate(0.01) for _ in range(5_000)]
        assert_within_bound(fill(values, alpha=0.1), values)

    def test_zero_values_land_in_zero_bucket(self):
        sketch = fill([0.0] * 90 + [100.0] * 10)
        assert sketch.zero_count == 90
        assert sketch.quantile(0.5) == 0.0
        rel = abs(sketch.quantile(0.95) - 100.0) / 100.0
        assert rel <= sketch.relative_accuracy

    def test_empty_sketch(self):
        sketch = QuantileSketch()
        assert sketch.quantile(0.5) == 0.0
        assert sketch.total == 0
        assert sketch.mean == 0.0

    def test_single_observation(self):
        sketch = fill([7.25])
        for q in (0.0, 0.5, 1.0):
            assert sketch.quantile(q) == 7.25

    def test_extreme_quantiles_clamp_to_observed_range(self):
        rng = random.Random(7)
        values = [rng.uniform(0.5, 900.0) for _ in range(2_000)]
        sketch = fill(values)
        lo, hi = min(values), max(values)
        # q=0/q=1 are bucket midpoints clamped into [min, max]: never
        # outside the observed range, and within the relative bound.
        assert lo <= sketch.quantile(0.0) <= lo * (1 + sketch.relative_accuracy)
        assert hi * (1 - sketch.relative_accuracy) <= sketch.quantile(1.0) <= hi
        assert sketch.min == lo
        assert sketch.max == hi

    def test_rejects_negative_and_nan(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.observe(-1.0)
        with pytest.raises(ValueError):
            sketch.observe(float("nan"))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=1.0)
        with pytest.raises(ValueError):
            QuantileSketch(max_buckets=1)
        with pytest.raises(ValueError):
            QuantileSketch().quantile(1.5)

    def test_bucket_cap_collapses_low_tail_only(self):
        # 9 decades at alpha=0.01 needs ~1000 buckets; cap at 64 and only
        # the top ~0.56 decades keep their own buckets.  Quantiles landing
        # there (p99/p999 of a log-uniform stream — the ones SLOs watch)
        # must keep the full guarantee; lower ones degrade by design.
        rng = random.Random(8)
        values = [10.0 ** rng.uniform(-3.0, 6.0) for _ in range(20_000)]
        sketch = QuantileSketch(max_buckets=64)
        for v in values:
            sketch.observe(v)
        assert len(sketch.buckets) <= 64
        assert_within_bound(sketch, values, quantiles=(0.99, 0.999))


# ---------------------------------------------------------------------------
# Merge laws
# ---------------------------------------------------------------------------

value_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    max_size=60,
)


class TestMergeLaws:
    @settings(max_examples=80)
    @given(value_lists, value_lists)
    def test_merge_equals_concatenated_stream(self, xs, ys):
        merged = fill(xs)
        merged.merge(fill(ys))
        assert state(merged) == state(fill(xs + ys))
        assert merged.sum == pytest.approx(
            math.fsum(xs) + math.fsum(ys), rel=1e-9, abs=1e-6
        )

    @settings(max_examples=60)
    @given(value_lists, value_lists)
    def test_merge_is_commutative(self, xs, ys):
        ab = fill(xs)
        ab.merge(fill(ys))
        ba = fill(ys)
        ba.merge(fill(xs))
        assert state(ab) == state(ba)

    @settings(max_examples=60)
    @given(value_lists, value_lists, value_lists)
    def test_merge_is_associative(self, xs, ys, zs):
        left = fill(xs)
        left.merge(fill(ys))
        left.merge(fill(zs))
        bc = fill(ys)
        bc.merge(fill(zs))
        right = fill(xs)
        right.merge(bc)
        assert state(left) == state(right)

    @settings(max_examples=60)
    @given(st.lists(value_lists, max_size=6))
    def test_order_insensitive_and_merge_sketches_helper(self, shards):
        forward = merge_sketches(fill(s) for s in shards)
        backward = merge_sketches(fill(s) for s in reversed(shards))
        assert state(forward) == state(backward)
        assert state(forward) == state(fill([v for s in shards for v in s]))

    def test_merge_identity(self):
        sketch = fill([1.0, 2.0, 3.0])
        before = state(sketch)
        sketch.merge(QuantileSketch())
        assert state(sketch) == before

    def test_merge_rejects_mismatched_accuracy(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_merged_quantiles_stay_within_bound(self):
        rng = random.Random(9)
        shards = [
            [rng.lognormvariate(2.0, 1.5) for _ in range(2_000)] for _ in range(8)
        ]
        merged = merge_sketches(fill(s) for s in shards)
        everything = [v for s in shards for v in s]
        assert_within_bound(merged, everything)

    def test_copy_is_independent(self):
        sketch = fill([1.0, 10.0, 100.0])
        dup = sketch.copy()
        dup.observe(1000.0)
        assert sketch.total == 3
        assert dup.total == 4


# ---------------------------------------------------------------------------
# Snapshots: the JSON round-trip
# ---------------------------------------------------------------------------


class TestSnapshots:
    @settings(max_examples=60)
    @given(value_lists)
    def test_json_round_trip(self, xs):
        import json

        sketch = fill(xs)
        data = json.loads(json.dumps(sketch.to_dict()))
        restored = QuantileSketch.from_dict(data)
        assert state(restored)[:2] == state(sketch)[:2]
        assert tuple(sorted(restored.buckets.items())) == tuple(
            sorted(sketch.buckets.items())
        )
        assert restored.total == sketch.total
