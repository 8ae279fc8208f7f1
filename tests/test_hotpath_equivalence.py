"""Property-based equivalence: indexed hot paths vs naive seed references.

The bisect-backed ``ValueHistory`` and ``IntervalSet`` (and the compacting
``Scheduler``) must be *observably identical* to the seed's naive linear
implementations, which are preserved verbatim in
:mod:`tests.reference_hotpaths`.  Hypothesis drives both sides with the same
random operation sequences — including GC with pinned snapshot floors and
purge-on-abort interleavings — and asserts every result, every exception,
and the full post-state match.
"""

import pytest
from hypothesis import given, settings, strategies as st

from tests.reference_hotpaths import NaiveIntervalSet, NaiveScheduler, NaiveValueHistory
from repro.core.history import ValueHistory
from repro.errors import ProtocolError
from repro.sim.scheduler import Scheduler
from repro.vtime import VirtualTime
from repro.vtime.intervals import IntervalSet


def vt(counter, site=0):
    return VirtualTime(counter, site)


vts = st.builds(VirtualTime, st.integers(0, 40), st.integers(0, 3))


def _apply_history_op(history, op):
    """Run one op; returns (tag, result) with exceptions folded in."""
    kind = op[0]
    try:
        if kind == "insert":
            _, v, committed = op
            entry = history.insert(v, f"val@{v}", committed=committed)
            return ("ok", (entry.vt, entry.value, entry.committed))
        if kind == "commit":
            return ("ok", history.commit(op[1]))
        if kind == "purge":
            return ("ok", history.purge(op[1]))
        if kind == "gc":
            return ("ok", history.gc(floor=op[1]))
        if kind == "set_value_at":
            return ("ok", history.set_value_at(op[1], f"over@{op[1]}"))
        if kind == "read_at":
            e = history.read_at(op[1])
            return ("ok", (e.vt, e.value, e.committed))
        if kind == "committed_read_at":
            e = history.committed_read_at(op[1])
            return ("ok", (e.vt, e.value, e.committed))
        if kind == "entry_at":
            e = history.entry_at(op[1])
            return ("ok", None if e is None else (e.vt, e.value, e.committed))
        if kind == "in_interval":
            _, lo, hi, committed_only = op
            found = history.entries_in_open_interval(lo, hi, committed_only=committed_only)
            return ("ok", [(e.vt, e.value, e.committed) for e in found])
        raise AssertionError(f"unknown op {kind}")
    except ProtocolError as exc:
        return ("ProtocolError", str(exc))


history_ops = st.one_of(
    st.tuples(st.just("insert"), vts, st.booleans()),
    st.tuples(st.just("commit"), vts),
    st.tuples(st.just("purge"), vts),
    st.tuples(st.just("gc"), st.one_of(st.none(), vts)),
    st.tuples(st.just("set_value_at"), vts),
    st.tuples(st.just("read_at"), vts),
    st.tuples(st.just("committed_read_at"), vts),
    st.tuples(st.just("entry_at"), vts),
    st.tuples(st.just("in_interval"), vts, vts, st.booleans()),
)


def _snapshot(history):
    return [(e.vt, e.value, e.committed) for e in history]


@settings(max_examples=300, deadline=None)
@given(st.lists(history_ops, max_size=60))
def test_value_history_equivalence(ops):
    naive = NaiveValueHistory("init")
    indexed = ValueHistory("init")
    for op in ops:
        # in_interval needs lo <= hi to be a sensible probe either way; both
        # implementations must agree even on inverted/empty windows, so no
        # filtering — feed the ops through verbatim.
        assert _apply_history_op(naive, op) == _apply_history_op(indexed, op)
        assert _snapshot(naive) == _snapshot(indexed)
        assert len(naive) == len(indexed)
        assert naive.current().vt == indexed.current().vt
        try:
            expected = (True, naive.committed_current().vt)
        except ProtocolError:
            expected = (False, None)
        try:
            got = (True, indexed.committed_current().vt)
        except ProtocolError:
            got = (False, None)
        assert expected == got


def _interval_args(raw):
    lo, hi, owner_counter, owner_site = raw
    if hi < lo:
        lo, hi = hi, lo
    return vt(lo), vt(hi), VirtualTime(owner_counter, owner_site)


def _apply_interval_op(iset, op):
    kind = op[0]
    if kind == "reserve":
        lo, hi, owner = _interval_args(op[1])
        interval = iset.reserve(lo, hi, owner)
        return (interval.lo, interval.hi, interval.owner)
    if kind == "release":
        return iset.release_owner(VirtualTime(op[1], op[2]))
    if kind == "prune":
        return iset.prune_before(op[1])
    if kind == "blocking":
        found = iset.blocking_reservation(op[1], exclude_owner=op[2])
        return None if found is None else (found.lo, found.hi, found.owner)
    if kind == "covering":
        return [(i.lo, i.hi, i.owner) for i in iset.covering_intervals(op[1])]
    if kind == "owners":
        return iset.owners()
    raise AssertionError(f"unknown op {kind}")


owner_raw = st.tuples(st.integers(0, 40), st.integers(0, 3), st.integers(0, 40), st.integers(0, 3))

interval_ops = st.one_of(
    st.tuples(st.just("reserve"), owner_raw),
    st.tuples(st.just("release"), st.integers(0, 40), st.integers(0, 3)),
    st.tuples(st.just("prune"), vts),
    st.tuples(st.just("blocking"), vts, st.one_of(st.none(), vts)),
    st.tuples(st.just("covering"), vts),
    st.tuples(st.just("owners"),),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(interval_ops, max_size=80))
def test_interval_set_equivalence(ops):
    naive = NaiveIntervalSet()
    indexed = IntervalSet()
    for op in ops:
        assert _apply_interval_op(naive, op) == _apply_interval_op(indexed, op)
        assert len(naive) == len(indexed)
        # Iteration order (insertion order) is part of the contract.
        assert list(naive) == list(indexed)


@settings(max_examples=150, deadline=None)
@given(st.lists(interval_ops, min_size=20, max_size=120))
def test_interval_set_equivalence_survives_compaction(ops):
    """Force the tombstone-compaction path by lowering its threshold."""
    import repro.vtime.intervals as intervals_mod

    naive = NaiveIntervalSet()
    indexed = IntervalSet()
    original = intervals_mod._COMPACT_MIN_DEAD
    intervals_mod._COMPACT_MIN_DEAD = 1
    try:
        for op in ops:
            assert _apply_interval_op(naive, op) == _apply_interval_op(indexed, op)
            assert list(naive) == list(indexed)
    finally:
        intervals_mod._COMPACT_MIN_DEAD = original


# ---------------------------------------------------------------------------
# Scheduler: identical execution traces under churn
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 100, allow_nan=False), st.booleans()),
        max_size=60,
    )
)
def test_scheduler_trace_equivalence(specs):
    """Same schedule/cancel sequence → same firing order, times, pending()."""

    def drive(sched_cls):
        sched = sched_cls()
        fired = []
        pendings = []
        events = []
        for i, (delay, cancel) in enumerate(specs):
            event = sched.call_later(delay, lambda i=i: fired.append((i, sched.now)))
            events.append(event)
            if cancel:
                event.cancel()
            pendings.append(sched.pending())
        sched.run_until_quiescent()
        return fired, pendings, sched.now, sched.events_processed

    assert drive(NaiveScheduler) == drive(Scheduler)
