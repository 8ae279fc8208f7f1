"""Windowed per-tenant aggregation (repro.obs.agg).

Covers the tumbling-window bucketing and eviction, snapshot shape and
byte-stability, the cross-process merge laws (the ``repro top`` fusion
path), and the event-bus adapter that derives per-tenant commit/abort/
latency series from protocol lifecycle events.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.agg import (
    AGG_FORMAT,
    TelemetryAggregator,
    TenantTelemetry,
    merge_agg_snapshots,
)
from repro.obs.events import ProtocolEvent
from repro.vtime import VirtualTime


def make_event(seq, time_ms, site, event_kind, vt=None, **data):
    return ProtocolEvent(
        seq=seq, time_ms=float(time_ms), site=site, kind=event_kind, txn_vt=vt, data=data
    )


class TestWindowing:
    def test_events_land_in_their_time_window(self):
        agg = TelemetryAggregator(window_ms=100.0)
        agg.inc("t", "commits", 50.0)
        agg.inc("t", "commits", 150.0)
        agg.inc("t", "commits", 199.0)
        snap = agg.snapshot()
        assert [w["index"] for w in snap["windows"]] == [0, 1]
        assert snap["windows"][0]["tenants"]["t"]["counters"]["commits"] == 1
        assert snap["windows"][1]["tenants"]["t"]["counters"]["commits"] == 2
        assert snap["windows"][1]["start_ms"] == 100.0
        assert snap["windows"][1]["end_ms"] == 200.0

    def test_old_windows_evict_fifo(self):
        agg = TelemetryAggregator(window_ms=10.0, keep_windows=3)
        for i in range(10):
            agg.inc("t", "commits", i * 10.0)
        snap = agg.snapshot()
        assert [w["index"] for w in snap["windows"]] == [7, 8, 9]

    def test_sketch_observations_produce_quantiles(self):
        agg = TelemetryAggregator(window_ms=1000.0)
        for v in range(1, 101):
            agg.observe("t", "latency_ms", 0.0, float(v))
        cell = agg.snapshot()["windows"][0]["tenants"]["t"]
        q = cell["quantiles"]["latency_ms"]
        assert q["p50"] == pytest.approx(50.0, rel=0.02)
        assert q["p99"] == pytest.approx(99.0, rel=0.02)
        assert cell["sketches"]["latency_ms"]["total"] == 100

    def test_tenants_are_isolated(self):
        agg = TelemetryAggregator()
        agg.inc("a", "commits", 0.0, 3)
        agg.inc("b", "commits", 0.0, 5)
        tenants = agg.snapshot()["windows"][0]["tenants"]
        assert tenants["a"]["counters"]["commits"] == 3
        assert tenants["b"]["counters"]["commits"] == 5
        assert agg.tenants() == ["a", "b"]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TelemetryAggregator(window_ms=0.0)
        with pytest.raises(ValueError):
            TelemetryAggregator(keep_windows=0)

    def test_to_json_is_byte_stable(self):
        def build():
            agg = TelemetryAggregator(window_ms=100.0, site=2)
            agg.inc("b", "commits", 10.0)
            agg.inc("a", "commits", 20.0)
            agg.observe("a", "lat", 30.0, 5.0)
            return agg.to_json()

        assert build() == build()
        doc = json.loads(build())
        assert doc["format"] == AGG_FORMAT
        assert doc["site"] == 2


class TestMergeSnapshots:
    def build(self, site, pairs):
        agg = TelemetryAggregator(window_ms=100.0, site=site)
        for tenant, time_ms, latency in pairs:
            agg.inc(tenant, "commits", time_ms)
            agg.observe(tenant, "lat", time_ms, latency)
        return agg.snapshot()

    def test_counters_add_and_sketches_merge(self):
        merged = merge_agg_snapshots(
            self.build(0, [("t", 10.0, 5.0), ("t", 20.0, 7.0)]),
            self.build(1, [("t", 30.0, 9.0), ("u", 40.0, 1.0)]),
        )
        window = merged["windows"][0]["tenants"]
        assert window["t"]["counters"]["commits"] == 3
        assert window["t"]["sketches"]["lat"]["total"] == 3
        assert window["u"]["counters"]["commits"] == 1

    def test_merge_equals_single_aggregator(self):
        # Split one stream across two sites: the merge must equal the
        # snapshot of one aggregator that saw everything.
        stream = [(f"t{i % 3}", i * 7.0, float(i + 1)) for i in range(60)]
        merged = merge_agg_snapshots(
            self.build(0, stream[0::2]), self.build(1, stream[1::2])
        )
        expected = self.build(-1, stream)
        assert merged["windows"] == expected["windows"]

    def test_merge_keeps_every_tenant_at_fleet_scale(self):
        # 120 collaboration sets sharded over 4 per-site aggregators, the
        # shape ``repro top`` consumes: no tenant and no commit is lost.
        stream = [(f"obj:doc{t}", i * 25.0, float(i + 1)) for i in range(8) for t in range(120)]
        merged = merge_agg_snapshots(*(self.build(s, stream[s::4]) for s in range(4)))
        cells = [c for w in merged["windows"] for c in w["tenants"].items()]
        assert {tenant for tenant, _ in cells} == {f"obj:doc{t}" for t in range(120)}
        assert sum(cell["counters"]["commits"] for _, cell in cells) == len(stream)
        assert merged["windows"] == self.build(-1, stream)["windows"]

    @settings(max_examples=30)
    @given(st.permutations(list(range(4))))
    def test_merge_is_order_insensitive(self, order):
        snaps = [
            self.build(s, [(f"t{s}", s * 25.0, float(s + 1)), ("shared", 10.0, 2.0)])
            for s in range(4)
        ]
        baseline = merge_agg_snapshots(*snaps)
        shuffled = merge_agg_snapshots(*[snaps[i] for i in order])
        assert shuffled["windows"] == baseline["windows"]

    def test_merge_empty_input(self):
        merged = merge_agg_snapshots()
        assert merged["windows"] == []
        assert merged["format"] == AGG_FORMAT

    def test_merge_rejects_mismatched_inputs(self):
        with pytest.raises(ValueError):
            merge_agg_snapshots(self.build(0, []), {"format": "other"})
        other_width = TelemetryAggregator(window_ms=50.0).snapshot()
        with pytest.raises(ValueError):
            merge_agg_snapshots(self.build(0, []), other_width)

    def test_merge_round_trips_through_json(self):
        # repro top reads files: merging parsed JSON must equal merging
        # the in-memory snapshots.
        a = self.build(0, [("t", 5.0, 3.0)])
        b = self.build(1, [("t", 6.0, 4.0)])
        via_json = merge_agg_snapshots(
            json.loads(json.dumps(a)), json.loads(json.dumps(b))
        )
        assert via_json["windows"] == merge_agg_snapshots(a, b)["windows"]


class TestTenantTelemetry:
    def lifecycle(self, telemetry, vt, submit_ms, commit_ms, obj="doc", notify_ms=None):
        origin = vt.site
        telemetry(make_event(1, submit_ms, origin, "txn_submitted", vt))
        if obj is not None:
            telemetry(make_event(2, submit_ms + 1, origin, "guess_made", vt, obj=obj))
        telemetry(make_event(3, commit_ms, origin, "committed", vt))
        if notify_ms is not None:
            telemetry(
                make_event(4, notify_ms, origin + 1, "view_notified", vt,
                           mode="pessimistic", obj=obj)
            )

    def test_commit_latency_attributed_to_object_tenant(self):
        telemetry = TenantTelemetry(TelemetryAggregator(window_ms=1000.0))
        self.lifecycle(telemetry, VirtualTime(1, 0), 100.0, 140.0, obj="doc")
        cell = telemetry.agg.snapshot()["windows"][0]["tenants"]["obj:doc"]
        assert cell["counters"]["commits"] == 1
        assert cell["sketches"]["commit_latency_ms"]["total"] == 1
        assert cell["quantiles"]["commit_latency_ms"]["p50"] == pytest.approx(40.0, rel=0.02)

    def test_falls_back_to_origin_site_tenant(self):
        telemetry = TenantTelemetry(TelemetryAggregator())
        self.lifecycle(telemetry, VirtualTime(2, 3), 10.0, 20.0, obj=None)
        assert telemetry.agg.tenants() == ["site:3"]

    def test_aborts_counted_at_origin_only(self):
        telemetry = TenantTelemetry(TelemetryAggregator())
        vt = VirtualTime(5, 1)
        telemetry(make_event(1, 10.0, 1, "txn_submitted", vt))
        telemetry(make_event(2, 30.0, 1, "aborted", vt))
        telemetry(make_event(3, 31.0, 2, "aborted", vt))  # remote echo: ignored
        cell = telemetry.agg.snapshot()["windows"][0]["tenants"]["site:1"]
        assert cell["counters"]["aborts"] == 1
        assert "commits" not in cell["counters"]

    def test_notify_lag_measured_from_origin_commit(self):
        telemetry = TenantTelemetry(TelemetryAggregator())
        self.lifecycle(
            telemetry, VirtualTime(7, 0), 100.0, 150.0, obj="doc", notify_ms=230.0
        )
        cell = telemetry.agg.snapshot()["windows"][0]["tenants"]["obj:doc"]
        lag = cell["quantiles"]["notify_lag_ms"]["p50"]
        assert lag == pytest.approx(80.0, rel=0.02)

    def test_optimistic_notifications_not_counted_as_lag(self):
        telemetry = TenantTelemetry(TelemetryAggregator())
        vt = VirtualTime(8, 0)
        self.lifecycle(telemetry, vt, 0.0, 10.0)
        telemetry(make_event(9, 20.0, 1, "view_notified", vt, mode="optimistic"))
        cell = telemetry.agg.snapshot()["windows"][0]["tenants"]["obj:doc"]
        assert "notify_lag_ms" not in cell["sketches"]

    def test_custom_tenant_mapping(self):
        telemetry = TenantTelemetry(
            TelemetryAggregator(), tenant_of=lambda e: f"team-{e.txn_vt.site % 2}"
        )
        self.lifecycle(telemetry, VirtualTime(1, 0), 0.0, 5.0)
        self.lifecycle(telemetry, VirtualTime(1, 1), 0.0, 5.0)
        self.lifecycle(telemetry, VirtualTime(1, 2), 0.0, 5.0)
        assert telemetry.agg.tenants() == ["team-0", "team-1"]

    def test_control_plane_events_ignored(self):
        telemetry = TenantTelemetry(TelemetryAggregator())
        telemetry(make_event(1, 0.0, 0, "committed", None))
        telemetry(make_event(2, 0.0, 0, "site_joined", VirtualTime(1, 0)))
        assert telemetry.agg.tenants() == []

    def test_txn_table_is_bounded(self):
        telemetry = TenantTelemetry(TelemetryAggregator(), max_txns=16)
        for i in range(100):
            telemetry(make_event(i, float(i), 0, "txn_submitted", VirtualTime(i, 0)))
        assert len(telemetry._spans.spans) <= 16
