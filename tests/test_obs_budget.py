"""The telemetry plane's clock-free cost column.

``tests/test_call_budget.py`` pins what the protocol core costs with the bus
off; this file pins what the documented operator set-up adds on the same
scenario (that file's ``_build()``: 4 sites x 2 ``DInt``s, a view of each
mode on every replica, 240 blind writes, 54 retries): the bus recording, a
:class:`~repro.obs.flight.FlightRecorder` and a
:class:`~repro.obs.agg.TenantTelemetry` subscribed — what
``examples/two_process_tcp.py --trace-dir`` and the benchmark's
``tcp_turn_observed`` workload turn on.  Wall-clock readings of that price
swing by a quarter on a shared host; these three do not move at all:

* **events by kind** — an equality.  A lifecycle signal added or lost shows
  here (and as ``obs.events_per_commit`` in the benchmark) before any timing
  does; this PR deleted copies, not signals, so the table is the parent's.
* **Python calls made inside ``repro/obs/`` per commit** — a ceiling at the
  count recorded when the event became a tuple-backed record built by one
  call and the per-VT tables became one span tracker (326.3 before, with the
  staged lane and three private tables).  CPython 3.12 inlines
  comprehensions and counts fewer; the bound is one-sided.
* **state digests** — equal to the bus-off ``MAIN_DIGEST``: observing does
  not perturb the run.
"""

import os
import sys
from collections import Counter

from repro.obs import FlightRecorder, ProtocolEvent, TelemetryAggregator, TenantTelemetry
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

#: 65,438 calls = 272.7 per commit (60.5 events: ~4.5 calls per event for
#: emit, the recorder's ring, the span tracker and the windowed sketches;
#: 65,233 = 271.8 before the 41 commit notifications above, five calls
#: each; 69,557 = 289.8 when every message was its own frame).
OBS_CALLS_PER_COMMIT_CEILING = 272.7


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
