"""Tests for the protocol observability layer (repro.obs).

Covers the event bus contract (zero emissions when idle, deterministic
seq/time stamping, subscriber fan-out), the metrics registry (registry-
backed counters staying compatible with attribute access, fixed-bucket
histogram determinism), span reconstruction from event streams, and the
end-to-end determinism guarantee: identical runs record byte-identical
timelines and metrics.
"""

import pytest

from repro import Session
from repro.obs import (
    COUNT_BUCKETS,
    EVENT_KINDS,
    EventBus,
    Histogram,
    LATENCY_BUCKETS_MS,
    MetricsRegistry,
    ProtocolEvent,
    build_spans,
    counter_property,
    event_to_dict,
    commit_critical_paths,
    span_summary,
    to_jsonl,
)
from repro.obs.agg import TelemetryAggregator, TenantTelemetry
from repro.obs.causal import SEGMENTS
from repro.obs.spans import SpanTracker, origin_resolution
from repro.workloads import ReadModifyWriteWorkload
from repro.vtime import VirtualTime
from repro import DInt


class TestEventBus:
    def test_idle_bus_emits_nothing(self):
        bus = EventBus()
        assert not bus.active
        bus.emit("committed", site=0, time_ms=1.0)
        assert len(bus) == 0 and bus._seq == 0

    def test_enable_records_and_stamps_seq(self):
        bus = EventBus()
        bus.enable()
        assert bus.active and bus.recording
        bus.emit("txn_submitted", site=0, time_ms=5.0, txn_vt=VirtualTime(1, 0))
        bus.emit("committed", site=1, time_ms=5.0)
        e0, e1 = bus.events
        assert (e0.seq, e1.seq) == (0, 1)  # same time, deterministic order
        assert e0.txn_vt == VirtualTime(1, 0) and e1.txn_vt is None
        bus.disable()
        assert not bus.active
        bus.emit("aborted", site=0, time_ms=6.0)
        assert len(bus) == 2  # recorded events survive disable

    def test_subscribers_activate_without_recording(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        assert bus.active and not bus.recording
        bus.emit("message_sent", site=0, time_ms=0.0, dst=1)
        assert len(seen) == 1 and len(bus) == 0
        bus.unsubscribe(seen.append)
        assert not bus.active
        bus.unsubscribe(seen.append)  # idempotent

    def test_data_payload_may_carry_kind_key(self):
        bus = EventBus()
        bus.enable()
        bus.emit("view_notified", site=0, time_ms=1.0, kind="update", mode="optimistic")
        (event,) = bus.events
        assert event.kind == "view_notified"
        assert event.data["kind"] == "update"

    def test_filter_and_counts(self):
        bus = EventBus()
        bus.enable()
        vt = VirtualTime(3, 1)
        bus.emit("committed", site=0, time_ms=1.0, txn_vt=vt)
        bus.emit("committed", site=1, time_ms=2.0, txn_vt=vt)
        bus.emit("aborted", site=0, time_ms=3.0)
        assert len(bus.filter(kind="committed")) == 2
        assert len(bus.filter(site=0)) == 2
        assert len(bus.filter(kind="committed", site=1, txn_vt=vt)) == 1
        assert bus.counts_by_kind() == {"committed": 2, "aborted": 1}

    def test_event_to_dict_is_json_safe_and_skips_payloads(self):
        event = ProtocolEvent(
            seq=0,
            time_ms=1.5,
            site=2,
            kind="message_sent",
            txn_vt=VirtualTime(4, 1),
            data={"dst": 0, "payload": object(), "vts": [VirtualTime(1, 0)]},
        )
        d = event_to_dict(event)
        assert "payload" not in d["data"]
        assert d["txn_vt"] == str(VirtualTime(4, 1))
        assert d["data"]["vts"] == [str(VirtualTime(1, 0))]
        import json

        json.dumps(d)  # must be serializable as-is


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper(self):
        h = Histogram(bounds=(10.0, 20.0))
        for v in (0.0, 10.0, 10.1, 20.0, 21.0):
            h.observe(v)
        # (−inf,10]=2, (10,20]=2, overflow=1
        assert h.counts == [2, 2, 1]
        assert h.total == 5
        assert h.min == 0.0 and h.max == 21.0

    def test_boundary_values_land_deterministically_in_one_bucket(self):
        # A value exactly on a bucket edge must always land in the bucket
        # whose *inclusive upper* edge it is — for every edge of both
        # standard bucket layouts, and identically on repeat observation.
        for bounds in (LATENCY_BUCKETS_MS, COUNT_BUCKETS):
            for index, edge in enumerate(bounds):
                h = Histogram(bounds=bounds)
                h.observe(float(edge))
                h.observe(float(edge))
                expected = [0] * (len(bounds) + 1)
                expected[index] = 2
                assert h.counts == expected, (bounds, edge)

    def test_just_past_an_edge_lands_in_the_next_bucket(self):
        h = Histogram(bounds=(10.0, 20.0))
        h.observe(10.0)  # inclusive upper edge of bucket 0
        h.observe(10.000001)  # strictly above: bucket 1
        h.observe(20.0)
        h.observe(20.000001)  # strictly above the last bound: overflow
        assert h.counts == [1, 2, 1]

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(5.0, 5.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(10.0, 5.0))

    def test_determinism_across_observation_orders_with_same_multiset(self):
        a, b = Histogram(LATENCY_BUCKETS_MS), Histogram(LATENCY_BUCKETS_MS)
        values = [3.0, 7.5, 120.0, 4999.0, 12000.0, 25.0]
        for v in values:
            a.observe(v)
        for v in reversed(values):
            b.observe(v)
        assert a.counts == b.counts and a.total == b.total and a.sum == b.sum

    def test_to_dict_round(self):
        h = Histogram(COUNT_BUCKETS)
        h.observe(1.0)
        h.observe(3.0)
        d = h.to_dict()
        assert d["total"] == 2 and d["mean"] == 2.0
        assert sum(d["counts"]) == 2


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        m = MetricsRegistry(site=3)
        assert m.value("txn.commits") == 0
        m.inc("txn.commits")
        m.inc("txn.commits", 2)
        m.gauge("queue.depth", 7.0)
        snap = m.snapshot()
        assert snap["site"] == 3
        assert snap["counters"] == {"txn.commits": 3}
        assert snap["gauges"] == {"queue.depth": 7.0}

    def test_histogram_declared_once(self):
        m = MetricsRegistry()
        h1 = m.histogram("lat", LATENCY_BUCKETS_MS)
        h2 = m.histogram("lat")
        assert h1 is h2
        m.observe("lat", 12.0)
        assert m.histograms["lat"].total == 1

    def test_counter_property_proxies_registry(self):
        class FakeSite:
            def __init__(self):
                self.metrics = MetricsRegistry(0)

        class Engine:
            commits = counter_property("txn.commits")

            def __init__(self, site):
                self.site = site

        site = FakeSite()
        engine = Engine(site)
        assert engine.commits == 0
        site.metrics.inc("txn.commits")
        site.metrics.inc("txn.commits")
        assert engine.commits == 2
        site.metrics.set_counter("txn.commits", 10)
        assert engine.commits == 10
        # Read side only: writers bump the registry, one dict write each.
        with pytest.raises(AttributeError):
            engine.commits = 11
        with pytest.raises(AttributeError):
            engine.commits += 1
        assert site.metrics.value("txn.commits") == 10

    def test_snapshot_keys_sorted(self):
        m = MetricsRegistry()
        m.inc("b")
        m.inc("a")
        assert list(m.snapshot()["counters"]) == ["a", "b"]


class TestSpans:
    def _events(self):
        vt = VirtualTime(5, 0)
        mk = lambda seq, t, event_kind, **data: ProtocolEvent(
            seq=seq, time_ms=t, site=0, kind=event_kind, txn_vt=vt, data=data
        )
        return vt, [
            mk(0, 10.0, "txn_submitted", attempt=1),
            mk(1, 10.0, "guess_made", guess="RL", obj="x@0"),
            mk(2, 10.0, "guess_made", guess="NC", obj="x@0"),
            mk(3, 10.0, "fanout_sent", dst=1, writes=1, checks=0),
            mk(4, 35.0, "validated", ok=True, scope="delegate"),
            mk(5, 60.0, "committed", ops=1),
            mk(6, 61.0, "view_notified", kind="commit", mode="optimistic"),
        ]

    def test_lifecycle_reconstruction(self):
        vt, events = self._events()
        (span,) = build_spans(events)
        assert span.vt == vt and span.origin == 0 and span.attempt == 1
        assert span.submit_ms == 10.0 and span.resolved_ms == 60.0
        assert span.resolution == "committed" and span.complete
        assert span.duration_ms == 50.0
        assert span.validate_latency_ms == 25.0
        assert span.notify_lag_ms == 1.0
        assert span.guesses == {"NC": 1, "RL": 1}
        assert span.fanout_sites == [1]

    def test_abort_span_keeps_reason_and_first_resolution_wins(self):
        vt = VirtualTime(7, 1)
        mk = lambda seq, t, event_kind, **data: ProtocolEvent(
            seq=seq, time_ms=t, site=1, kind=event_kind, txn_vt=vt, data=data
        )
        events = [
            mk(0, 0.0, "txn_submitted", attempt=2),
            mk(1, 9.0, "aborted", reason="RL conflict on x", kind="conflict"),
            mk(2, 12.0, "committed"),  # late echo must not flip the verdict
        ]
        (span,) = build_spans(events)
        assert span.resolution == "aborted"
        assert span.abort_reason == "RL conflict on x"
        assert span.resolved_ms == 9.0

    def test_pre_fanout_abort_emits_degenerate_span(self):
        """Regression: a transaction aborting before any fanout must still
        produce a span, flagged ``aborted_pre_fanout`` (it has no
        transit/validate phases, but dropping it would hide the abort from
        every span-derived analysis)."""
        vt = VirtualTime(9, 2)
        mk = lambda seq, t, event_kind, **data: ProtocolEvent(
            seq=seq, time_ms=t, site=2, kind=event_kind, txn_vt=vt, data=data
        )
        events = [
            mk(0, 0.0, "txn_submitted", attempt=1),
            mk(1, 2.0, "aborted", reason="user abort", kind="user"),
        ]
        (span,) = build_spans(events)
        assert span.resolution == "aborted"
        assert span.aborted_pre_fanout is True
        assert span.first_fanout_ms is None
        assert span.duration_ms == 2.0
        assert span.to_dict()["aborted_pre_fanout"] is True
        summary = span_summary([span])
        assert summary["aborted"] == 1
        assert summary["aborted_pre_fanout"] == 1

    def test_post_fanout_abort_is_not_flagged(self):
        vt = VirtualTime(9, 2)
        mk = lambda seq, t, event_kind, **data: ProtocolEvent(
            seq=seq, time_ms=t, site=2, kind=event_kind, txn_vt=vt, data=data
        )
        events = [
            mk(0, 0.0, "txn_submitted", attempt=1),
            mk(1, 1.0, "fanout_sent", dst=0, writes=1, checks=0),
            mk(2, 9.0, "aborted", reason="RL conflict", kind="conflict"),
        ]
        (span,) = build_spans(events)
        assert span.aborted_pre_fanout is False
        assert span_summary([span])["aborted_pre_fanout"] == 0

    def test_summary(self):
        _, events = self._events()
        summary = span_summary(build_spans(events))
        assert summary["spans"] == 1 and summary["committed"] == 1
        assert summary["aborted"] == 0 and summary["in_flight"] == 0
        assert summary["aborted_pre_fanout"] == 0
        assert summary["commit_duration_ms"]["mean"] == 50.0


class TestOriginResolution:
    """One lifecycle derivation: a span resolves when its *origin* hears,
    and the offline analyses and the live telemetry read the same number."""

    def test_delegated_commit_reads_2t_everywhere(self):
        # 3 sites, t = 50 ms, delegated commit (the default): the primary
        # (site 0) commits at t, the origin (site 2) hears at 2t.
        session = Session.simulated(latency_ms=50.0, seed=1)
        sites = session.add_sites(3)
        objs = session.replicate(DInt, "x", sites)
        session.settle()
        bus = session.observe()
        telemetry = TenantTelemetry(TelemetryAggregator())
        bus.subscribe(telemetry)
        counts_before = list(sites[2].metrics.histogram("txn.commit_latency_ms").counts)
        outcome = sites[2].transact(ReadModifyWriteWorkload(objs[2])())
        session.settle()
        assert outcome.committed and outcome.commit_latency_ms == 100.0

        committed_at = [e.site for e in bus.filter(kind="committed", txn_vt=outcome.vt)]
        assert committed_at[0] == 0 and 2 in committed_at  # the primary's comes first
        (span,) = [s for s in build_spans(bus.events) if s.vt == outcome.vt]
        assert span.origin == 2 and span.origin_resolved
        assert span.duration_ms == outcome.commit_latency_ms == 100.0

        (path,) = [p for p in commit_critical_paths(bus.events) if p.vt == outcome.vt]
        assert path.duration_ms == 100.0
        assert path.segments["transit"] == 50.0 and path.segments["ack"] == 50.0
        assert sum(path.segments[name] for name in SEGMENTS) == path.duration_ms

        (window,) = telemetry.agg.snapshot()["windows"]
        (cell,) = window["tenants"].values()
        assert cell["counters"] == {"commits": 1}
        assert cell["quantiles"]["commit_latency_ms"]["p50"] == pytest.approx(100.0, rel=0.01)

        # ... and the registry's histogram, on the one ladder that also
        # resolves a 0.2 ms loopback commit, brackets it: (50, 100].
        hist = sites[2].metrics.histograms["txn.commit_latency_ms"]
        assert hist.bounds == LATENCY_BUCKETS_MS
        (index,) = [i for i, n in enumerate(hist.counts) if n != counts_before[i]]
        assert (hist.bounds[index - 1], hist.bounds[index]) == (50.0, 100.0)

    def test_first_resolution_stands_in_until_the_origins_appears(self):
        vt = VirtualTime(4, 2)
        mk = lambda seq, t, site, event_kind, **data: ProtocolEvent(
            seq=seq, time_ms=t, site=site, kind=event_kind, txn_vt=vt, data=data
        )
        replica_only = [mk(0, 50.0, 0, "committed"), mk(1, 60.0, 1, "committed")]
        (span,) = build_spans(replica_only)  # a single-site style recording
        assert (span.resolution, span.resolved_ms, span.origin_resolved) == (
            "committed", 50.0, False,
        )
        (span,) = build_spans(replica_only + [mk(2, 100.0, 2, "committed")])
        assert (span.resolved_ms, span.origin_resolved) == (100.0, True)
        assert origin_resolution(mk(2, 100.0, 2, "committed"))
        assert not origin_resolution(mk(0, 50.0, 0, "committed"))
        assert not origin_resolution(mk(3, 100.0, 2, "view_notified"))

    def test_pessimistic_lag_counts_from_the_origin_commit_only(self):
        vt = VirtualTime(4, 2)
        mk = lambda seq, t, site, event_kind, **data: ProtocolEvent(
            seq=seq, time_ms=t, site=site, kind=event_kind, txn_vt=vt, data=data
        )
        tracker = SpanTracker()
        early = mk(1, 50.0, 0, "view_notified", mode="pessimistic", kind="commit")
        late = mk(3, 150.0, 1, "view_notified", mode="pessimistic", kind="commit")
        span = tracker.observe(mk(0, 50.0, 0, "committed"))  # the primary's
        assert tracker.observe(early) is span
        assert span.pessimistic_lag_ms(early) is None  # origin has not heard yet
        tracker.observe(mk(2, 100.0, 2, "committed"))
        assert span.pessimistic_lag_ms(late) == 50.0
        optimistic = mk(4, 150.0, 1, "view_notified", mode="optimistic", kind="commit")
        assert span.pessimistic_lag_ms(optimistic) is None

    def test_tracker_is_fifo_bounded_and_batch_equals_incremental(self):
        session = Session.simulated(latency_ms=20.0, seed=3)
        sites = session.add_sites(2)
        objs = session.replicate(DInt, "x", sites)
        bus = session.observe()
        for i in range(6):
            sites[i % 2].transact(ReadModifyWriteWorkload(objs[i % 2])())
            session.settle()
        full = build_spans(bus.events)
        bounded = SpanTracker(max_spans=3)
        for event in bus.events:
            bounded.observe(event)
            assert len(bounded.spans) <= 3
        kept = list(bounded.spans.values())
        assert len(full) > 3
        # The survivors are the most recent spans; they read exactly as the
        # batch derivation does unless their early events fell off with an
        # eviction — here none did (transactions run one after another).
        assert [s.to_dict() for s in kept] == [s.to_dict() for s in full[-3:]]


class TestEndToEndDeterminism:
    def _observed_run(self):
        session = Session.simulated(latency_ms=20.0)
        bus = session.observe()
        sites = session.add_sites(3)
        objs = session.replicate(DInt, "x", sites, initial=0)
        session.settle()
        for i in range(5):
            sites[i % 3].transact(lambda i=i: objs[i % 3].set(objs[i % 3].get() + 1))
            session.settle()
        return session, bus

    def test_identical_runs_record_identical_timelines(self):
        s1, b1 = self._observed_run()
        s2, b2 = self._observed_run()
        assert b1.timeline() == b2.timeline()
        assert to_jsonl(b1.events) == to_jsonl(b2.events)
        assert s1.metrics_snapshot() == s2.metrics_snapshot()

    def test_event_kinds_are_registered(self):
        _, bus = self._observed_run()
        kinds = set(bus.counts_by_kind())
        assert kinds <= EVENT_KINDS
        assert {"txn_submitted", "guess_made", "fanout_sent", "committed",
                "message_sent", "op_applied"} <= kinds

    def test_unobserved_session_records_nothing(self):
        session = Session.simulated(latency_ms=20.0)
        sites = session.add_sites(2)
        objs = session.replicate(DInt, "x", sites, initial=0)
        session.settle()
        sites[0].transact(lambda: objs[0].set(1))
        session.settle()
        assert len(session.bus) == 0
        assert session.bus._seq == 0  # emit never even entered

    def test_counters_match_events(self):
        session, bus = self._observed_run()
        committed_vts = {
            e.txn_vt for e in bus.filter(kind="committed") if e.site == e.txn_vt.site
        }
        total_commits = sum(s["counters"].get("txn.commits", 0) for s in session.metrics_snapshot())
        # Both sides count the replication-setup transactions too, since
        # observation started before add_sites; the 5 workload commits
        # are a lower bound.
        assert total_commits == len(committed_vts) >= 5
