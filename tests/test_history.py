"""Unit and property tests for value histories."""

import pytest
from hypothesis import given, strategies as st

from repro.core.history import ValueHistory
from repro.errors import ProtocolError
from repro.vtime import VT_ZERO, VirtualTime


def vt(counter, site=0):
    return VirtualTime(counter, site)


class TestBasics:
    def test_initial_entry_is_committed_current(self):
        history = ValueHistory(42)
        assert history.current().value == 42
        assert history.current().committed
        assert history.committed_current().vt == VT_ZERO

    def test_insert_sorted(self):
        history = ValueHistory(0)
        history.insert(vt(20), "b")
        history.insert(vt(10), "a")  # straggler
        history.insert(vt(30), "c")
        assert [e.vt.counter for e in history] == [0, 10, 20, 30]
        assert history.current().value == "c"

    def test_duplicate_vt_rejected(self):
        history = ValueHistory(0)
        history.insert(vt(10), "a")
        with pytest.raises(ProtocolError):
            history.insert(vt(10), "b")

    def test_read_at(self):
        history = ValueHistory("base")
        history.insert(vt(10), "ten")
        history.insert(vt(20), "twenty")
        assert history.read_at(vt(5)).value == "base"
        assert history.read_at(vt(10)).value == "ten"
        assert history.read_at(vt(15)).value == "ten"
        assert history.read_at(vt(99)).value == "twenty"

    def test_committed_read_at_skips_uncommitted(self):
        history = ValueHistory("base")
        history.insert(vt(10), "ten", committed=True)
        history.insert(vt(20), "twenty", committed=False)
        assert history.committed_read_at(vt(25)).value == "ten"
        history.commit(vt(20))
        assert history.committed_read_at(vt(25)).value == "twenty"

    def test_entry_at(self):
        history = ValueHistory(0)
        history.insert(vt(10), 1)
        assert history.entry_at(vt(10)).value == 1
        assert history.entry_at(vt(11)) is None

    def test_set_value_at_overwrites_same_txn(self):
        history = ValueHistory(0)
        history.insert(vt(10), 1)
        history.set_value_at(vt(10), 2)
        assert history.entry_at(vt(10)).value == 2
        with pytest.raises(ProtocolError):
            history.set_value_at(vt(11), 3)


class TestIntervalQueries:
    def test_entries_in_open_interval(self):
        history = ValueHistory(0)
        for counter in (10, 20, 30):
            history.insert(vt(counter), counter)
        found = history.entries_in_open_interval(vt(10), vt(30))
        assert [e.vt.counter for e in found] == [20]

    def test_open_interval_excludes_endpoints(self):
        history = ValueHistory(0)
        history.insert(vt(10), "x")
        assert history.entries_in_open_interval(vt(10), vt(20)) == []
        assert history.entries_in_open_interval(vt(5), vt(10)) == []
        assert len(history.entries_in_open_interval(vt(5), vt(15))) == 1

    def test_committed_only_filter(self):
        history = ValueHistory(0)
        history.insert(vt(10), "u", committed=False)
        assert history.entries_in_open_interval(vt(0), vt(99), committed_only=True) == []
        assert len(history.entries_in_open_interval(vt(0), vt(99))) == 1


class TestCommitAbortGC:
    def test_commit_marks_entry(self):
        history = ValueHistory(0)
        history.insert(vt(10), 1)
        assert history.commit(vt(10)) is True
        assert history.entry_at(vt(10)).committed
        assert history.commit(vt(11)) is False

    def test_purge_removes_aborted(self):
        history = ValueHistory(0)
        history.insert(vt(10), 1)
        assert history.purge(vt(10)) is True
        assert history.entry_at(vt(10)) is None
        assert history.current().value == 0
        assert history.purge(vt(10)) is False

    def test_cannot_purge_last_entry(self):
        history = ValueHistory(0, initial_vt=vt(5))
        with pytest.raises(ProtocolError):
            history.purge(vt(5))

    def test_gc_drops_old_committed(self):
        history = ValueHistory(0)
        history.insert(vt(10), 1, committed=True)
        history.insert(vt(20), 2, committed=True)
        dropped = history.gc()
        assert dropped == 2
        assert len(history) == 1
        assert history.current().value == 2

    def test_gc_keeps_uncommitted_suffix(self):
        history = ValueHistory(0)
        history.insert(vt(10), 1, committed=True)
        history.insert(vt(20), 2, committed=False)
        history.gc()
        assert [e.vt.counter for e in history] == [10, 20]

    def test_gc_with_floor_keeps_snapshot_base(self):
        history = ValueHistory(0)
        history.insert(vt(10), 1, committed=True)
        history.insert(vt(20), 2, committed=True)
        history.insert(vt(30), 3, committed=True)
        # A pending snapshot at vt 15 still needs the value at vt 10.
        history.gc(floor=vt(15))
        assert [e.vt.counter for e in history] == [10, 20, 30]
        assert history.read_at(vt(15)).value == 1


@given(
    st.lists(
        st.tuples(st.integers(1, 100), st.integers(0, 3), st.booleans()),
        max_size=40,
        unique_by=lambda t: (t[0], t[1]),
    )
)
def test_property_current_is_max_vt(entries):
    history = ValueHistory("init")
    inserted = [VT_ZERO]
    for counter, site, committed in entries:
        history.insert(vt(counter, site), f"v{counter}", committed=committed)
        inserted.append(vt(counter, site))
    assert history.current().vt == max(inserted)
    # History remains sorted.
    vts = [e.vt for e in history]
    assert vts == sorted(vts)


@given(
    st.lists(st.integers(1, 60), unique=True, min_size=1, max_size=20),
    st.integers(0, 70),
)
def test_property_read_at_matches_bruteforce(counters, probe):
    history = ValueHistory("init")
    for counter in counters:
        history.insert(vt(counter), counter)
    result = history.read_at(vt(probe, site=99))
    candidates = [c for c in counters if vt(c) <= vt(probe, 99)]
    if candidates:
        assert result.value == max(candidates)
    else:
        assert result.value == "init"
