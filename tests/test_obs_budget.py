"""The telemetry plane's clock-free cost column.

``tests/test_call_budget.py`` pins what the protocol core costs with the bus
off; this file pins what the documented operator set-up adds on the same
scenario (that file's ``_build()``: 4 sites x 2 ``DInt``s, a view of each
mode on every replica, 240 blind writes, 54 retries): the bus recording, a
:class:`~repro.obs.flight.FlightRecorder` and a
:class:`~repro.obs.agg.TenantTelemetry` subscribed — what
``examples/two_process_tcp.py --trace-dir`` and the benchmark's
``tcp_turn_observed`` workload turn on.  Wall-clock readings of that price
swing by a quarter on a shared host; these four do not move at all:

* **events by kind** — an equality.  A lifecycle signal added or lost shows
  here (and as ``obs.events_per_commit`` in the benchmark) before any timing
  does; this PR deleted copies, not signals, so the table is the parent's.
* **Python calls made inside ``repro/obs/`` per commit** — a ceiling at the
  count recorded when the flight recorder's ring became its own subscriber
  (272.7 before; 326.3 with the staged lane and three private tables).  CPython 3.12 inlines
  comprehensions and counts fewer; the bound is one-sided.
* **state digests** — equal to the bus-off ``MAIN_DIGEST``: observing does
  not perturb the run.
* **the recorded timeline's digest** — the sha256 of its JSONL rendering,
  as recorded while the bus kept a list of events: how events are stored
  does not change what they say.

A second column prices what a long recording *keeps*: the socket path's 19
events per commit, emitted with their ``tcp_turn_observed`` kinds and data
shapes under the same set-up, keep 146.0 traced bytes and no GC-tracked
object per event (371.2 bytes and 1.105 objects while the bus kept one
``ProtocolEvent`` per event: the record, its data dict and, per commit,
the VTs).  ``scripts/call_budget.py`` prints both readings.
"""

import gc
import hashlib
import json
import os
import sys
import tracemalloc
from collections import Counter

import pytest

from repro.obs import EventBus, FlightRecorder, ProtocolEvent, TelemetryAggregator, TenantTelemetry
from repro.obs.events import RecordedEvents
from repro.obs.export import to_jsonl
from repro.vtime import VirtualTime
from tests.test_call_budget import MAIN_DIGEST, MAIN_FRAMES, PACKAGE_DIR, TXNS, _build

OBS_DIR = PACKAGE_DIR + "obs" + os.sep

#: Events of the measured window, by kind: 14,516 in all, 60.5 per commit
#: (four sites share one simulated bus; ``tcp_turn_observed`` reads 19.0
#: per commit over two single-site buses).  The network's events are per
#: frame: 1,632 frames carry the 1,844 protocol messages, 212 of them
#: multi-message envelopes (14,687 events when every message was a frame).
EVENTS_BY_KIND = {
    "txn_submitted": 294,  # 240 commits + 54 retries
    "op_applied": 1176,  # each attempt at each of 4 replicas
    "guess_made": 588,
    "validated": 1176,
    "fanout_sent": 882,
    "message_sent": 1632,  # == MAIN_FRAMES
    "message_delivered": 1632,
    "envelope_sent": 212,
    "committed": 960,  # 240 x 4 sites
    "aborted": 216,  # 54 x 4 sites
    "retry_scheduled": 54,
    "snapshot_taken": 2592,
    "straggler_detected": 555,
    # 2,506 when a value's snapshot waited for every uncommitted entry at
    # or before it: those 41 commit notifications were withheld until a
    # newer update discarded the snapshot.
    "view_notified": 2547,
}

#: 50,928 calls = 212.2 per commit (60.5 events: ~3.5 calls per event for
#: emit, the span tracker and the windowed sketches).  65,438 = 272.7 while
#: the recorder's ring was fed through a Python method, one call per event
#: (it subscribes the ring's own ``deque.append`` now); 65,233 = 271.8
#: before the 41 commit notifications above, five calls each; 69,557 =
#: 289.8 when every message was its own frame.
OBS_CALLS_PER_COMMIT_CEILING = 212.2

#: sha256 of ``to_jsonl(bus.events)`` for the measured window, recorded while
#: the bus kept a list of ``ProtocolEvent``s.
TIMELINE_SHA256 = "7a71a9970943231ad637435b4d6fa9ef6464a036a62aea86e9b47926c652751d"


def _count_obs_calls(fn):
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(OBS_DIR):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def test_observed_run_costs_a_pinned_number_of_events_and_calls(tmp_path):
    session, sites, outcomes = _build()
    bus = session.bus
    bus.enable()
    recorder = FlightRecorder(str(tmp_path / "flight.jsonl")).attach(bus)
    telemetry = TenantTelemetry(TelemetryAggregator(window_ms=1000.0, keep_windows=64))
    bus.subscribe(telemetry)

    calls = _count_obs_calls(session.settle)

    assert len(outcomes) == TXNS and all(o.committed for o in outcomes)
    for site in sites:
        assert site.state_digest() == MAIN_DIGEST  # observing perturbs nothing
        assert site.protocol_residue() == {}

    assert dict(Counter(event.kind for event in bus.events)) == EVENTS_BY_KIND
    assert EVENTS_BY_KIND["message_sent"] == MAIN_FRAMES
    assert recorder.events_seen == len(bus.events) == sum(EVENTS_BY_KIND.values())
    assert [event.seq for event in bus.events] == list(range(len(bus.events)))
    timeline = to_jsonl(bus.events)
    assert hashlib.sha256(timeline.encode()).hexdigest() == TIMELINE_SHA256
    assert "".join(json.dumps(e, sort_keys=True) + "\n" for e in bus.timeline()) == timeline
    commits = sum(
        cell["counters"].get("commits", 0)
        for window in telemetry.agg.snapshot()["windows"]
        for cell in window["tenants"].values()
    )
    assert commits == TXNS  # the subscriber saw every origin commit, once

    per_commit = calls / TXNS
    assert per_commit <= OBS_CALLS_PER_COMMIT_CEILING, (
        f"{per_commit:.1f} Python calls per commit inside repro/obs/; the recorded "
        f"ceiling is {OBS_CALLS_PER_COMMIT_CEILING}"
    )


def test_an_event_is_one_tuple_and_one_dict():
    event = ProtocolEvent(0, 1.0, 2, "committed", None, {"ops": 1})
    assert isinstance(event, tuple) and not hasattr(event, "__dict__")
    assert event.__slots__ == ()
    assert (event.seq, event.time_ms, event.site, event.kind, event.txn_vt) == (
        0, 1.0, 2, "committed", None,
    )


# ---------------------------------------------------------------------------
# What a recorded event keeps
# ---------------------------------------------------------------------------

#: One commit on the socket path as ``tcp_turn_observed`` records it: the
#: writer (site 1) submits and propagates, the primary (site 0) validates,
#: commits and notifies both views, the writer commits.  A ``msg_id`` is
#: built per event from the sender's sequence, as the transport does.
SOCKET_COMMIT = (
    (1, "txn_submitted", {"attempt": 1}),
    (1, "op_applied", {"obj": "s1:doc", "op": "set", "committed": False}),
    (1, "guess_made", {"guess": "RL", "obj": "s1:doc"}),
    (1, "guess_made", {"guess": "NC", "obj": "s1:doc"}),
    (1, "validated", {"ok": True, "reason": "", "scope": "local", "against": ()}),
    (1, "fanout_sent", {"dst": 0, "writes": 1, "checks": 0, "delegated": True}),
    (1, "message_sent", {"tenant": 1, "dst": 0, "msg_type": "TxnPropagateMsg", "msg_id": 1}),
    (0, "message_delivered", {"tenant": 1, "src": 1, "msg_type": "TxnPropagateMsg", "msg_id": 1}),
    (0, "op_applied", {"obj": "s0:doc", "op": "set", "committed": False}),
    (0, "snapshot_taken", {"mode": "optimistic", "committed_only": False}),
    (0, "view_notified", {"mode": "optimistic", "kind": "update", "changed": 1}),
    (0, "snapshot_taken", {"mode": "pessimistic", "committed_only": True}),
    (0, "validated", {"ok": True, "reason": "", "scope": "delegate", "against": ()}),
    (0, "committed", {"ops": 1}),
    (0, "view_notified", {"mode": "optimistic", "kind": "commit", "changed": 1}),
    (0, "view_notified", {"mode": "pessimistic", "kind": "update", "changed": 1}),
    (0, "message_sent", {"tenant": 1, "dst": 1, "msg_type": "CommitMsg", "msg_id": 0}),
    (1, "message_delivered", {"tenant": 1, "src": 0, "msg_type": "CommitMsg", "msg_id": 0}),
    (1, "committed", {"ops": 1}),
)

#: Commits emitted before measuring: more than the span table's 4,096, so
#: the recorder's ring and the telemetry's span table are full and evict
#: one entry per entry added.
COST_WARMUP_COMMITS = 4200
COST_COMMITS = 2000

#: 146.0 traced bytes per event at this size on CPython 3.11 (144.3-145.5
#: on 3.9-3.13): ~9.7 flat-list slots, three 8-byte array cells, the
#: per-event ``msg_id`` strings and the VT counters; 371.2 while the bus
#: kept a ``ProtocolEvent`` and its data dict.
RETAINED_BYTES_PER_EVENT_CEILING = 160.0


def emit_socket_commits(bus, first, count):
    """Emit ``count`` commits of :data:`SOCKET_COMMIT`.  Each process
    decodes its own copy of the VT; stamps step 0.05 ms per commit, so the
    whole run stays in one 1 s telemetry window."""
    emit = bus.emit
    for c in range(first, first + count):
        vts = (VirtualTime(c + 1000, 1), VirtualTime(c + 1000, 1))
        for j, (site, kind, data) in enumerate(SOCKET_COMMIT):
            if "msg_id" in data:
                data = dict(data, msg_id=f"{data['msg_id']}:{c}")
            emit(kind, site, c * 0.05 + j * 0.001, vts[site], **data)


def recorded_event_cost(commits=COST_COMMITS):
    """(traced bytes, GC-tracked objects) the process keeps per recorded
    event, counted after ``gc.collect()``, with the documented set-up on:
    recording, a :class:`FlightRecorder` and a :class:`TenantTelemetry`."""
    bus = EventBus()
    bus.enable()
    FlightRecorder(os.devnull).attach(bus)
    bus.subscribe(TenantTelemetry(TelemetryAggregator(window_ms=1000.0, keep_windows=64)))
    tracemalloc.start()
    try:
        emit_socket_commits(bus, 0, COST_WARMUP_COMMITS)
        gc.collect()
        traced, tracked = tracemalloc.get_traced_memory()[0], len(gc.get_objects())
        emit_socket_commits(bus, COST_WARMUP_COMMITS, commits)
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0] - traced
        tracked = len(gc.get_objects()) - tracked
    finally:
        tracemalloc.stop()
    events = commits * len(SOCKET_COMMIT)
    assert len(bus) == (COST_WARMUP_COMMITS + commits) * len(SOCKET_COMMIT)
    return traced / events, tracked / events


def test_a_recorded_event_keeps_few_bytes_and_no_tracked_object():
    bytes_per_event, tracked_per_event = recorded_event_cost()
    # 0.000: nothing per event (a collection elsewhere may free a stray few).
    assert round(tracked_per_event, 3) == 0, f"{tracked_per_event:.4f} GC-tracked objects per event"
    assert bytes_per_event <= RETAINED_BYTES_PER_EVENT_CEILING, (
        f"{bytes_per_event:.1f} traced bytes retained per recorded event; the recorded "
        f"ceiling is {RETAINED_BYTES_PER_EVENT_CEILING}"
    )


class TestRecordedEventsView:
    """``bus.events`` is a read-only view that rebuilds events on demand."""

    def record(self, n=5):
        bus = EventBus()
        bus.enable()
        for i in range(n):
            vt = VirtualTime(i + 300, i % 2) if i % 2 else None
            bus.emit("committed", i % 3, 1000.0 + i, vt, ops=i, obj=f"o{i}")
        return bus

    def test_len_builds_no_event(self, monkeypatch):
        bus = self.record()

        def refuse(self, i):
            raise AssertionError("an event was built")

        monkeypatch.setattr(RecordedEvents, "_event", refuse)
        assert len(bus.events) == len(bus) == 5

    def test_order_index_slice_and_equality(self):
        bus = self.record()
        events = list(bus.events)
        assert [e.seq for e in events] == [0, 1, 2, 3, 4]
        assert events[1] == ProtocolEvent(1, 1001.0, 1, "committed", VirtualTime(301, 1), {"ops": 1, "obj": "o1"})
        assert events[1].txn_vt.__class__ is VirtualTime and events[0].txn_vt is None
        assert list(events[3].data) == ["ops", "obj"]  # key order survives
        assert bus.events[-1] == events[4] and bus.events[2] == events[2]
        assert bus.events[1:4] == events[1:4] and bus.events[::-2] == events[::-2]
        assert bus.events == events and bus.events != events[:-1]
        assert bus.events is not events and bus.events[0] is not bus.events[0]
        with pytest.raises(IndexError):
            bus.events[5]

    def test_clear_and_disable(self):
        bus = self.record()
        view = bus.events
        bus.disable()
        bus.emit("aborted", 0, 9.0)  # not recorded: nobody listens
        assert len(view) == 5  # recorded events survive disable()
        bus.subscribe(lambda event: None)
        bus.emit("aborted", 0, 9.0)  # seq 5, seen by the subscriber only
        bus.enable()
        bus.emit("aborted", 0, 9.0, None)
        assert [e.seq for e in view] == [0, 1, 2, 3, 4, 6]
        bus.clear()
        assert view == [] and len(bus) == 0
        bus.emit("aborted", 2, 10.0, VirtualTime(7, 2), reason="x")
        assert view == [ProtocolEvent(7, 10.0, 2, "aborted", VirtualTime(7, 2), {"reason": "x"})]
