"""Unit and property tests for virtual time and reservation intervals."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro import DInt, Session
from repro.vtime import VT_TOP, VT_ZERO, Interval, IntervalSet, LamportClock, VirtualTime


# ---------------------------------------------------------------------------
# VirtualTime
# ---------------------------------------------------------------------------


class TestVirtualTime:
    def test_ordering_by_counter_first(self):
        assert VirtualTime(1, 5) < VirtualTime(2, 0)
        assert VirtualTime(2, 0) > VirtualTime(1, 5)

    def test_site_breaks_ties(self):
        assert VirtualTime(3, 0) < VirtualTime(3, 1)
        assert VirtualTime(3, 1) != VirtualTime(3, 0)

    def test_equality_and_hash(self):
        assert VirtualTime(4, 2) == VirtualTime(4, 2)
        assert hash(VirtualTime(4, 2)) == hash(VirtualTime(4, 2))
        assert len({VirtualTime(4, 2), VirtualTime(4, 2), VirtualTime(4, 3)}) == 2

    def test_vt_zero_precedes_everything(self):
        assert VT_ZERO < VirtualTime(1, 0)
        assert VT_ZERO < VirtualTime(0, 0)  # site -1 sorts before site 0

    def test_next_at(self):
        nxt = VirtualTime(7, 3).next_at(9)
        assert nxt == VirtualTime(8, 9)
        assert VirtualTime(7, 3) < nxt

    def test_repr(self):
        assert repr(VirtualTime(7, 3)) == "VT(7@3)"

    @given(
        st.tuples(st.integers(0, 1000), st.integers(0, 50)),
        st.tuples(st.integers(0, 1000), st.integers(0, 50)),
        st.tuples(st.integers(0, 1000), st.integers(0, 50)),
    )
    def test_total_order_properties(self, a, b, c):
        va, vb, vc = VirtualTime(*a), VirtualTime(*b), VirtualTime(*c)
        # Totality: exactly one of <, ==, > holds.
        assert sum([va < vb, va == vb, vb < va]) == 1
        # Transitivity.
        if va < vb and vb < vc:
            assert va < vc


_PAIRS = st.tuples(st.integers(-(2**40), 2**40), st.integers(-1, 2**20))


class TestVirtualTimeTop:
    @given(st.integers(0, 2**512), st.integers(-1, 2**40))
    def test_top_sorts_above_every_vt(self, counter, site):
        assert VirtualTime(counter, site) < VT_TOP

    def test_a_leaped_clock_still_reads_below_the_top(self):
        # A peer's frame or invitation can push a site's clock arbitrarily
        # far; a committed write stamped there must still be what a read
        # "after everything" sees, at both sites.
        session = Session.simulated(latency_ms=10.0)
        a, b = session.add_sites(2)
        x = session.replicate(DInt, "x", [a, b], initial=0)
        a.transact(lambda: x[0].set(1))
        session.settle()
        b.clock.observe_counter(2**62 + 5)
        b.transact(lambda: x[1].set(2))
        session.settle()
        for site in (a, b):
            assert site.state_digest()["s0:x"] == ((2**62 + 6, 1), "2")


class TestVirtualTimeContract:
    """What the rest of the system relies on now that a VT *is* a tuple."""

    @given(_PAIRS, _PAIRS)
    def test_ordering_is_lexicographic(self, a, b):
        va, vb = VirtualTime(*a), VirtualTime(*b)
        assert (va < vb) == (a < b)
        assert (va <= vb) == (a <= b)
        assert (va == vb) == (a == b)
        assert min(va, vb) == min(a, b) and max(va, vb) == max(a, b)
        assert sorted([vb, va]) == sorted([b, a])

    @given(_PAIRS)
    def test_equal_vts_are_interchangeable_dict_keys(self, pair):
        from repro.wire import decode, encode

        vt = VirtualTime(*pair)
        decoded = decode(encode(vt))
        assert type(decoded) is VirtualTime
        assert decoded == vt and hash(decoded) == hash(vt)
        table = {vt: "status"}
        assert table[decoded] == "status" and table[VirtualTime(*pair)] == "status"

    @given(_PAIRS)
    def test_compares_equal_to_its_plain_tuple(self, pair):
        # Documented consequence of the tuple base: type dispatch must test
        # VirtualTime before tuple.
        vt = VirtualTime(*pair)
        assert vt == pair and hash(vt) == hash(pair)
        counter, site = vt
        assert (counter, site) == (vt.counter, vt.site) == pair

    @given(_PAIRS)
    def test_key_is_the_vt_itself(self, pair):
        vt = VirtualTime(*pair)
        assert vt.key is vt
        assert {vt.key: 1}[pair] == 1

    def test_immutable(self):
        vt = VirtualTime(3, 1)
        for name in ("counter", "site", "key", "anything"):
            with pytest.raises(AttributeError):
                setattr(vt, name, 9)
            with pytest.raises(AttributeError):
                delattr(vt, name)
        assert vt == VirtualTime(3, 1)

    @given(_PAIRS)
    def test_pickle_and_copy_round_trip(self, pair):
        import copy
        import pickle

        vt = VirtualTime(*pair)
        clones = [copy.copy(vt), copy.deepcopy(vt)]
        clones += [pickle.loads(pickle.dumps(vt, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones:
            assert type(clone) is VirtualTime and clone == vt

    def test_no_instance_dict(self):
        import sys

        vt = VirtualTime(1, 1)
        assert not hasattr(vt, "__dict__")
        # Exactly the two-element tuple it is — the former slotted object
        # cost that tuple (its precomputed key) plus itself.
        assert sys.getsizeof(vt) == sys.getsizeof((1, 1))

    def test_json_safe_still_renders_the_vt_form(self):
        from repro.obs.events import _json_safe

        assert _json_safe(VirtualTime(3, 1)) == "VT(3@1)"
        assert _json_safe([VirtualTime(3, 1), (3, 1)]) == ["VT(3@1)", [3, 1]]


# ---------------------------------------------------------------------------
# LamportClock
# ---------------------------------------------------------------------------


class TestLamportClock:
    def test_tick_monotone_and_unique(self):
        clock = LamportClock(3)
        vts = [clock.tick() for _ in range(10)]
        assert all(earlier < later for earlier, later in zip(vts, vts[1:]))
        assert len(set(vts)) == 10
        assert all(vt.site == 3 for vt in vts)

    def test_observe_advances(self):
        clock = LamportClock(0)
        clock.observe(VirtualTime(100, 7))
        assert clock.tick() == VirtualTime(101, 0)

    def test_observe_never_regresses(self):
        clock = LamportClock(0)
        clock.observe(VirtualTime(100, 7))
        clock.observe(VirtualTime(5, 7))
        assert clock.counter == 100

    def test_observe_none_is_noop(self):
        clock = LamportClock(0, start=4)
        clock.observe(None)
        assert clock.counter == 4

    def test_peek_does_not_tick(self):
        clock = LamportClock(2)
        assert clock.peek() == VirtualTime(1, 2)
        assert clock.counter == 0

    def test_negative_site_rejected(self):
        with pytest.raises(ValueError):
            LamportClock(-1)

    def test_causality_across_clocks(self):
        a, b = LamportClock(0), LamportClock(1)
        send = a.tick()
        b.observe(send)
        receive = b.tick()
        assert send < receive


# ---------------------------------------------------------------------------
# Interval / IntervalSet
# ---------------------------------------------------------------------------


def vt(counter, site=0):
    return VirtualTime(counter, site)


class TestInterval:
    def test_open_interval_strict_containment(self):
        interval = Interval(vt(10), vt(20), owner=vt(20))
        assert interval.contains_strictly(vt(15))
        assert not interval.contains_strictly(vt(10))
        assert not interval.contains_strictly(vt(20))

    def test_empty_interval(self):
        assert Interval(vt(5), vt(5), owner=vt(5)).is_empty()
        assert not Interval(vt(5), vt(6), owner=vt(6)).is_empty()

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(vt(20), vt(10), owner=vt(20))


class TestIntervalSet:
    def test_reserve_and_block(self):
        rs = IntervalSet()
        rs.reserve(vt(10), vt(20), owner=vt(20))
        blocking = rs.blocking_reservation(vt(15))
        assert blocking is not None and blocking.owner == vt(20)

    def test_own_reservation_never_blocks(self):
        rs = IntervalSet()
        rs.reserve(vt(10), vt(20), owner=vt(20))
        assert rs.blocking_reservation(vt(15), exclude_owner=vt(20)) is None

    def test_boundaries_do_not_block(self):
        rs = IntervalSet()
        rs.reserve(vt(10), vt(20), owner=vt(20))
        assert rs.blocking_reservation(vt(10)) is None
        assert rs.blocking_reservation(vt(20)) is None

    def test_empty_reservations_not_stored(self):
        rs = IntervalSet()
        rs.reserve(vt(5), vt(5), owner=vt(5))  # blind write
        assert len(rs) == 0

    def test_release_owner(self):
        rs = IntervalSet()
        rs.reserve(vt(1), vt(5), owner=vt(5))
        rs.reserve(vt(2), vt(9), owner=vt(9))
        assert rs.release_owner(vt(5)) == 1
        assert rs.blocking_reservation(vt(3), exclude_owner=vt(9)) is None

    def test_prune_before(self):
        rs = IntervalSet()
        rs.reserve(vt(1), vt(5), owner=vt(5))
        rs.reserve(vt(6), vt(15), owner=vt(15))
        dropped = rs.prune_before(vt(10))
        assert dropped == 1
        assert len(rs) == 1

    def test_prune_before_drops_interval_ending_exactly_at_vt(self):
        # Regression pin for the simplified predicate: the seed's
        # "not hi < vt and hi != vt" keep-condition is exactly "hi > vt",
        # so an interval with hi == vt is DROPPED (only VTs strictly inside
        # it could be blocked, and those all precede vt) while hi > vt is kept.
        rs = IntervalSet()
        rs.reserve(vt(1), vt(10), owner=vt(10))   # hi == prune point
        rs.reserve(vt(2), vt(11), owner=vt(11))   # hi > prune point
        assert rs.prune_before(vt(10)) == 1
        assert [i.hi for i in rs] == [vt(11)]
        # Pruning again at the same point drops nothing further.
        assert rs.prune_before(vt(10)) == 0

    def test_prune_before_leaves_the_owner_index_too(self):
        # An abort-free stream never calls release_owner, so pruning is the
        # only thing that can shrink the owner index: it must stay within a
        # constant of the live set instead of growing by one entry per commit.
        rs = IntervalSet()
        for i in range(1, 2001):
            rs.reserve(vt(i - 1), vt(i + 1), owner=vt(i + 1))
            rs.reserve(vt(i - 1, 1), vt(i + 1), owner=vt(i + 1))  # two per owner
            rs.prune_before(vt(i))
            assert len(rs._by_owner) <= len(rs) + 1
        assert len(rs) == 2 and list(rs._by_owner) == [vt(2001)]
        # An owner with one interval pruned and one live keeps only the live one.
        rs.reserve(vt(1990), vt(2005), owner=vt(2001))
        rs.prune_before(vt(2001))
        assert len(rs) == 1 and rs.release_owner(vt(2001)) == 1 and len(rs) == 0

    def test_owners_dedup_preserves_insertion_order(self):
        rs = IntervalSet()
        rs.reserve(vt(1), vt(9), owner=vt(9))
        rs.reserve(vt(2), vt(7), owner=vt(7))
        rs.reserve(vt(3), vt(9, 0), owner=vt(9))  # duplicate owner
        assert rs.owners() == [vt(9), vt(7)]

    def test_blocking_returns_earliest_reserved_among_candidates(self):
        # The seed scanned in insertion order; the indexed set must still
        # report the earliest-reserved blocking interval even though its
        # index is sorted by hi.
        rs = IntervalSet()
        rs.reserve(vt(1), vt(30), owner=vt(30))  # inserted first, largest hi
        rs.reserve(vt(2), vt(20), owner=vt(20))
        blocking = rs.blocking_reservation(vt(15, site=99))
        assert blocking is not None and blocking.owner == vt(30)

    def test_release_owner_heavy_churn_compacts(self):
        # Reserve/release enough to trip tombstone compaction; behavior
        # (counts, remaining intervals) must be unaffected.
        rs = IntervalSet()
        for i in range(100):
            rs.reserve(vt(i), vt(i + 5), owner=vt(i + 5, 1))
        for i in range(80):
            assert rs.release_owner(vt(i + 5, 1)) == 1
        assert len(rs) == 20
        assert rs.release_owner(vt(4, 1)) == 0  # already gone
        remaining = sorted(i.lo.counter for i in rs)
        assert remaining == list(range(80, 100))

    def test_covering_intervals_and_owners(self):
        rs = IntervalSet()
        rs.reserve(vt(1), vt(10), owner=vt(10))
        rs.reserve(vt(2), vt(8), owner=vt(8))
        assert len(rs.covering_intervals(vt(5))) == 2
        assert rs.owners() == [vt(10), vt(8)]

    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(0, 20)),
            max_size=30,
        ),
        st.integers(0, 50),
    )
    def test_blocking_matches_bruteforce(self, raw, probe):
        rs = IntervalSet()
        intervals = []
        for lo, hi, owner_site in raw:
            if lo > hi:
                lo, hi = hi, lo
            owner = VirtualTime(hi, owner_site)
            rs.reserve(vt(lo), vt(hi), owner=owner)
            if lo < hi:
                intervals.append((lo, hi, owner))
        probe_vt = vt(probe, site=99)
        expected = any(
            lo_c < probe or (lo_c == probe and 0 < 99)  # site tiebreak: vt(x,0) < vt(x,99)
            for lo_c, hi_c, _ in intervals
            if VirtualTime(lo_c, 0) < probe_vt < VirtualTime(hi_c, 0)
        )
        got = rs.blocking_reservation(probe_vt) is not None
        brute = any(
            VirtualTime(lo_c, 0) < probe_vt < VirtualTime(hi_c, 0)
            for lo_c, hi_c, _ in intervals
        )
        assert got == brute
