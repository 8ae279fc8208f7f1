"""Tests for the live-telemetry runtime pieces added with trace propagation:

pluggable clocks (repro.obs.clock), the bounded flight recorder
(repro.obs.flight), the Prometheus text exporter (repro.obs.prom), and
the EventBus's one emit path.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

import repro
import repro.obs
from repro.obs import FlightRecorder, SimClock, WallClock, prometheus_text, write_prometheus
from repro.obs.events import EventBus, ProtocolEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import sanitize_name
from repro.vtime import VirtualTime


class TestClocks:
    def test_sim_clock_reads_its_source(self):
        now = [0.0]
        clock = SimClock(lambda: now[0])
        assert clock.simulated
        assert clock.now_ms() == 0.0
        now[0] = 42.5
        assert clock.now_ms() == 42.5
        assert clock() == 42.5  # clocks are callables too

    def test_wall_clock_is_monotone_from_zero(self):
        clock = WallClock()
        assert not clock.simulated
        first = clock.now_ms()
        second = clock.now_ms()
        assert 0.0 <= first <= second
        assert clock.wall_origin_unix_s > 0


class TestEventBusStagedLane:
    """The one emit path's contract.  (There is no staged lane any more —
    ``emit`` is the only way an event is built; the class and test names
    are kept so the ids the suite prints stay stable.)"""

    def emit_n(self, bus: EventBus, n: int) -> None:
        for i in range(n):
            bus.emit("committed", 0, float(i), None, i=i)

    def test_staged_events_materialize_in_order(self):
        bus = EventBus()
        bus.enable()
        self.emit_n(bus, 3)
        live = []
        bus.subscribe(live.append)  # a subscriber arriving mid-run changes nothing
        self.emit_n(bus, 2)
        assert len(bus) == 5
        events = bus.events
        assert [e.seq for e in events] == list(range(5))
        assert [e.seq for e in live] == [3, 4]
        assert all(isinstance(e, ProtocolEvent) for e in events)
        assert events[3].data == {"i": 0}
        assert live[0] == events[3]  # the subscriber's event is the recorded one

    def test_materialized_events_stay_frozen(self):
        bus = EventBus()
        bus.enable()
        bus.emit("committed", site=1, time_ms=9.0, txn_vt=VirtualTime(1, 1))
        event = bus.events[0]
        with pytest.raises(AttributeError):
            event.seq = 99
        assert not hasattr(event, "__dict__")
        moved = event._replace(time_ms=10.0)
        assert (event.time_ms, moved.time_ms) == (9.0, 10.0)
        assert moved.seq == event.seq and moved.data is event.data

    def test_clear_drops_staged_events(self):
        bus = EventBus()
        bus.enable()
        self.emit_n(bus, 4)
        bus.clear()
        assert len(bus) == 0
        assert bus.events == []
        bus.emit("committed", 0, 0.0)
        assert bus.events[0].seq == 4  # the counter keeps running

    def test_inactive_bus_stages_nothing(self):
        bus = EventBus()
        self.emit_n(bus, 3)
        bus.emit("committed", 0, 0.0)
        assert len(bus) == 0
        assert bus._seq == 0


class TestModulesStandAlone:
    """The plane has no import cycle to paper over: every module imports
    first, alone, in a fresh interpreter, and the two that used to need a
    ``TYPE_CHECKING`` guard and a deferred import have neither."""

    MODULES = sorted(
        "repro.obs." + name[:-3]
        for name in os.listdir(os.path.dirname(repro.obs.__file__))
        if name.endswith(".py") and name != "__init__.py"
    )

    @pytest.mark.parametrize("module", MODULES)
    def test_imports_alone_in_a_fresh_interpreter(self, module):
        # -S -E: no site-packages, no environment — the plane is pure
        # stdlib.  The module under test is the interpreter's first import,
        # so whatever it needs it must import itself, at module level.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = f"import sys; sys.path.insert(0, {src!r}); import {module}"
        done = subprocess.run(
            [sys.executable, "-S", "-E", "-c", code], capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr

    @staticmethod
    def imports_of(module):
        """(module-level imported names, names imported inside functions)."""
        tree = ast.parse(open(module.__file__).read())
        top, nested = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module] if isinstance(node, ast.ImportFrom) else [
                    alias.name for alias in node.names
                ]
                (top if node in tree.body else nested).update(names)
        return top, nested

    def test_sketch_and_metrics_import_nothing_of_the_package(self):
        import repro.obs.metrics
        import repro.obs.sketch
        from repro.wire import codec

        for module in (repro.obs.sketch, repro.obs.metrics):
            top, nested = self.imports_of(module)
            assert not nested, (module.__name__, nested)
            assert not [name for name in top if name.startswith("repro")], top
        assert "TYPE_CHECKING" not in open(repro.obs.metrics.__file__).read()
        assert 0x3B not in codec._STRUCTS_BY_TAG and codec._DECODERS[0x3B] is None


class TestFlightRecorder:
    def make_bus_with_events(self, n: int) -> EventBus:
        bus = EventBus()
        bus.enable()
        for i in range(n):
            bus.emit("committed", site=0, time_ms=float(i), txn_vt=VirtualTime(i + 1, 0))
        return bus

    def test_ring_keeps_only_most_recent(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path / "flight.jsonl"), capacity=3)
        bus = EventBus()
        recorder.attach(bus)
        assert bus.active  # a subscriber alone activates the bus
        for i in range(5):
            bus.emit("committed", site=0, time_ms=float(i))
        assert recorder.events_seen == 5
        assert [e.time_ms for e in recorder.ring] == [2.0, 3.0, 4.0]
        # Bounded consumer: the recording buffer did not grow.
        assert bus.events == []

    def test_events_seen_counts_across_detach_and_reattach(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path / "flight.jsonl"), capacity=8)
        bus = EventBus()
        recorder.attach(bus)
        for i in range(3):
            bus.emit("committed", site=0, time_ms=float(i))
        recorder.detach()
        assert not bus.active and recorder.events_seen == 3
        bus.enable()
        bus.emit("committed", site=0, time_ms=3.0)  # not attached: not seen
        recorder.attach(bus)
        bus.emit("committed", site=0, time_ms=4.0)
        assert recorder.events_seen == 4
        assert [e.time_ms for e in recorder.ring] == [0.0, 1.0, 2.0, 4.0]

    def test_dump_writes_header_then_events(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        recorder = FlightRecorder(str(path), capacity=8)
        bus = self.make_bus_with_events(2)
        for event in bus.events:
            recorder.record(event)
        written = recorder.dump("fail-stop: site 1", extra={"site": 0})
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert written == str(path)
        assert lines[0]["flight"] == "repro-flight/1"
        assert lines[0]["reason"] == "fail-stop: site 1"
        assert lines[0]["events"] == 2
        assert lines[0]["extra"] == {"site": 0}
        assert [l["time_ms"] for l in lines[1:]] == [0.0, 1.0]

    def test_repeat_dumps_never_overwrite(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        recorder = FlightRecorder(str(path), capacity=8)
        first = recorder.dump("one")
        second = recorder.dump("two")
        third = recorder.dump("three")
        assert (first, second, third) == (str(path), f"{path}.1", f"{path}.2")
        assert recorder.dumps == 3

    def test_capacity_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            FlightRecorder(str(tmp_path / "x"), capacity=0)

    def test_excepthook_dumps_and_chains(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        recorder = FlightRecorder(str(path), capacity=4)
        bus = self.make_bus_with_events(1)
        recorder.record(bus.events[0])
        chained = []
        original = sys.excepthook
        sys.excepthook = lambda *args: chained.append(args)
        try:
            recorder.install_excepthook()
            recorder.install_excepthook()  # idempotent
            try:
                raise RuntimeError("boom")
            except RuntimeError:
                sys.excepthook(*sys.exc_info())
            assert path.exists()
            header = json.loads(path.read_text().splitlines()[0])
            assert "RuntimeError" in header["reason"] and "boom" in header["reason"]
            assert len(chained) == 1  # previous hook still ran
        finally:
            recorder.uninstall_excepthook()
            sys.excepthook = original

    def test_detach_stops_recording(self):
        recorder = FlightRecorder("unused.jsonl", capacity=4)
        bus = EventBus()
        recorder.attach(bus)
        recorder.detach()
        assert not bus.active
        bus.emit("committed", site=0, time_ms=1.0)
        assert recorder.events_seen == 0


class TestPrometheusExport:
    def test_sanitize_name(self):
        assert sanitize_name("transport.peer.1.queue_depth") == (
            "repro_transport_peer_1_queue_depth"
        )

    def test_counters_gauges_and_site_labels(self):
        a = MetricsRegistry(site=0)
        a.inc("engine.commits", 3)
        a.gauge("outbox.depth", 2)
        b = MetricsRegistry(site=1)
        b.inc("engine.commits", 5)
        text = prometheus_text([a.snapshot(), b.snapshot()])
        assert '# TYPE repro_engine_commits_total counter' in text
        assert 'repro_engine_commits_total{site="0"} 3' in text
        assert 'repro_engine_commits_total{site="1"} 5' in text
        assert 'repro_outbox_depth{site="0"} 2' in text
        # One TYPE header per family even with two sites.
        assert text.count("TYPE repro_engine_commits_total") == 1

    def test_negative_site_means_no_label(self):
        reg = MetricsRegistry(site=-1)
        reg.inc("transport.messages_sent")
        text = prometheus_text([reg.snapshot()])
        assert "repro_transport_messages_sent_total 1" in text

    def test_histogram_buckets_in_increasing_le_order(self):
        reg = MetricsRegistry(site=0)
        for v in (0.5, 3.0, 250.0):
            reg.observe("transport.rtt_ms", v)
        text = prometheus_text([reg.snapshot()])
        bucket_lines = [l for l in text.splitlines() if "_bucket" in l]
        assert bucket_lines, text
        # +Inf is last and cumulative counts never decrease.
        assert 'le="+Inf"' in bucket_lines[-1]
        counts = [int(l.rsplit(" ", 1)[1]) for l in bucket_lines]
        assert counts == sorted(counts)
        assert counts[-1] == 3
        assert "repro_transport_rtt_ms_count" in text
        assert "repro_transport_rtt_ms_sum" in text

    def test_write_prometheus_atomic_and_rereadable(self, tmp_path):
        reg = MetricsRegistry(site=0)
        reg.inc("engine.commits")
        path = tmp_path / "metrics.prom"
        written = write_prometheus(str(path), [reg.snapshot()])
        assert written == str(path)
        assert path.read_text().endswith("\n")
        # Overwrite in place (atomic replace, no stale tmp files left).
        write_prometheus(str(path), [reg.snapshot()])
        leftovers = [p for p in tmp_path.iterdir() if p.name != "metrics.prom"]
        assert leftovers == []

    def test_empty_snapshot_renders_empty(self):
        assert prometheus_text([MetricsRegistry(site=0).snapshot()]) == ""


class TestPromConformance:
    """Render -> parse_prometheus_text -> compare (text-format round trip)."""

    def build_text(self):
        a = MetricsRegistry(site=0)
        a.inc("engine.commits", 3)
        a.gauge("outbox.depth", 2)
        for v in (0.5, 3.0, 250.0):
            a.observe("transport.rtt_ms", v)
        b = MetricsRegistry(site=-1)
        b.inc("transport.frames_sent", 7)
        return prometheus_text([a.snapshot(), b.snapshot()]), a, b

    def test_every_line_parses(self):
        from repro.obs.prom import parse_prometheus_text

        text, _a, _b = self.build_text()
        types, samples = parse_prometheus_text(text)
        sample_lines = [
            l for l in text.splitlines() if l.strip() and not l.startswith("#")
        ]
        assert len(samples) == len(sample_lines)
        assert types["repro_engine_commits_total"] == "counter"
        assert types["repro_outbox_depth"] == "gauge"
        assert types["repro_transport_rtt_ms"] == "histogram"
        assert "summary" not in types.values()

    def test_values_round_trip(self):
        from repro.obs.prom import parse_prometheus_text

        text, a, _b = self.build_text()
        _types, samples = parse_prometheus_text(text)
        by_key = {(n, tuple(sorted(l.items()))): v for n, l, v in samples}
        assert by_key[("repro_engine_commits_total", (("site", "0"),))] == 3.0
        assert by_key[("repro_transport_frames_sent_total", ())] == 7.0
        assert by_key[("repro_outbox_depth", (("site", "0"),))] == 2.0
        # Histogram: +Inf bucket and _count both equal the observation count.
        assert by_key[
            ("repro_transport_rtt_ms_bucket", (("le", "+Inf"), ("site", "0")))
        ] == 3.0
        assert by_key[("repro_transport_rtt_ms_count", (("site", "0"),))] == 3.0

    def test_histogram_cumulative_counts_survive_parse(self):
        from repro.obs.prom import parse_prometheus_text

        text, _a, _b = self.build_text()
        _types, samples = parse_prometheus_text(text)
        buckets = [
            (l["le"], v)
            for n, l, v in samples
            if n == "repro_transport_rtt_ms_bucket"
        ]
        counts = [v for _le, v in buckets]
        assert counts == sorted(counts)  # cumulative, never decreasing
        assert buckets[-1][0] == "+Inf"

    def test_unparseable_line_raises(self):
        from repro.obs.prom import parse_prometheus_text

        with pytest.raises(ValueError):
            parse_prometheus_text("this is { not a metric\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("repro_ok_total notanumber\n")

    def test_file_round_trip(self, tmp_path):
        from repro.obs.prom import parse_prometheus_text

        text, a, b = self.build_text()
        path = tmp_path / "metrics.prom"
        write_prometheus(str(path), [a.snapshot(), b.snapshot()])
        types, samples = parse_prometheus_text(path.read_text())
        _t2, samples2 = parse_prometheus_text(text)
        assert samples == samples2
        assert "repro_transport_rtt_ms" in types
