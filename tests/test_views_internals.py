"""Unit tests for view-notification internals: snapshots, subtree helpers,
parked checks, retention floors, and GC interaction."""

import pytest

from repro import Session, View
from repro.core.messages import SlotId, SnapshotReplyMsg
from repro.core.transaction import COMMITTED
from repro.core.views import (
    OutstandingReply,
    Snapshot,
    blocking_subtree_reservation,
    subtree_has_entry_in_interval,
    subtree_uncommitted_deps,
    subtree_uncommitted_in_interval,
)
from repro.sim.network import FixedLatency
from repro.vtime import VT_ZERO, VirtualTime
from repro import DInt, DList


def vt(counter, site=0):
    return VirtualTime(counter, site)


class Recorder(View):
    def __init__(self):
        self.values = []
        self.commit_count = 0

    def update(self, changed, snapshot):
        self.values.append([snapshot.read(c) for c in changed])

    def commit(self):
        self.commit_count += 1


@pytest.fixture()
def site():
    return Session().add_site("app")


class TestSnapshotObject:
    def test_read_scalar_at_ts(self, site):
        x = site.create_int("x", 1)
        site.transact(lambda: x.set(2))
        snap = Snapshot(ts=x.current_value_vt(), committed_only=False)
        assert snap.read(x) == 2

    def test_committed_only_read(self, site):
        x = site.create_int("x", 1)
        x.history.insert(vt(100, 9), 99, committed=False)  # fake remote value
        optimistic = Snapshot(ts=vt(200, 9), committed_only=False)
        pessimistic = Snapshot(ts=vt(200, 9), committed_only=True)
        assert optimistic.read(x) == 99
        assert pessimistic.read(x) == 1


class TestSubtreeHelpers:
    def test_scalar_interval_query(self, site):
        x = site.create_int("x", 0)
        x.history.insert(vt(10, 9), 1, committed=True)
        assert subtree_has_entry_in_interval(x, vt(5), vt(15), committed_only=True)
        assert not subtree_has_entry_in_interval(x, vt(10, 9), vt(15), committed_only=True)

    def test_composite_subtree_query(self, site):
        lst = site.create_list("l")
        holder = []
        site.transact(lambda: holder.append(lst.append("int", 1)))
        child = holder[0]
        write_vt = child.history.current().vt
        lo = VT_ZERO
        hi = vt(write_vt.counter + 10, 0)
        assert subtree_has_entry_in_interval(lst, lo, hi, committed_only=False)

    def test_uncommitted_collection(self, site):
        """A read folds the one value in effect at ``upto``, but every
        structural event at or before it."""
        x = site.create_int("x", 0)
        x.history.insert(vt(10, 9), 1, committed=False)
        x.history.insert(vt(20, 9), 2, committed=False)
        assert set(subtree_uncommitted_in_interval(x, vt(5), vt(15))) == {vt(10, 9)}
        assert x.uncommitted_deps(vt(25, 9)) == [vt(20, 9)]
        assert x.uncommitted_deps(vt(15, 9)) == [vt(10, 9)]
        assert x.uncommitted_deps(vt(5, 9)) == []
        lst = site.create_list("l")
        lst.apply_insert(SlotId(vt(10, 9), 0), None, ("int", 1))
        lst.apply_insert(SlotId(vt(20, 9), 0), None, ("int", 2))
        lst.commit_structural(vt(20, 9))
        lst.apply_remove(vt(30, 9), SlotId(vt(20, 9), 0))
        assert lst.uncommitted_deps(vt(25, 9)) == [vt(10, 9)]
        assert sorted(lst.uncommitted_deps(vt(35, 9))) == [vt(10, 9), vt(30, 9)]
        # The history's GC drops the uncommitted insert below the committed
        # one; the read still folds it.
        assert lst.history.gc(vt(35, 9)) == 2
        assert sorted(subtree_uncommitted_deps(lst, vt(35, 9))) == [vt(10, 9), vt(30, 9)]

    def test_blocking_subtree_reservation_walks_ancestors(self, site):
        lst = site.create_list("l")
        holder = []
        site.transact(lambda: holder.append(lst.append("int", 1)))
        child = holder[0]
        lst.reserve("subtree_reservations", vt(1), vt(100), ("snap", 0, 1))
        assert blocking_subtree_reservation(child, vt(50)) is not None
        assert blocking_subtree_reservation(child, vt(100)) is None


class TestRetentionFloor:
    def test_no_proxies_no_floor(self, site):
        x = site.create_int("x")
        assert site.views.retention_floor(x) is None

    def test_pessimistic_proxy_sets_floor(self):
        session = Session.simulated(latency_ms=50, delegation_enabled=False)
        alice, bob = session.add_sites(2)
        a, b = session.replicate(DInt, "x", [alice, bob], initial=0)
        session.settle()
        rec = Recorder()
        a.attach(rec, "pessimistic")
        floor_before = alice.views.retention_floor(a)
        assert floor_before is not None
        # An in-flight update creates a pending snapshot; the floor must not
        # exceed its ts so the history version it reads survives GC.
        bob.transact(lambda: b.set(5))
        session.run_for(60)  # applied at alice, not yet committed
        floor = alice.views.retention_floor(a)
        assert floor is not None
        assert floor <= a.history.current().vt

    def test_optimistic_proxy_does_not_pin_history(self, site):
        x = site.create_int("x")
        rec = Recorder()
        x.attach(rec, "optimistic")
        assert site.views.retention_floor(x) is None


class TestChangedLists:
    def test_incremental_changed_only(self):
        """Notifications list exactly the objects changed since the last
        notification (paper section 2.5)."""
        session = Session.simulated(latency_ms=10)
        alice, bob = session.add_sites(2)
        xs = session.replicate(DInt, "x", [alice, bob], initial=0)
        ys = session.replicate(DInt, "y", [alice, bob], initial=0)
        session.settle()

        class Named(View):
            def __init__(self):
                self.changed_names = []

            def update(self, changed, snapshot):
                self.changed_names.append(sorted(c.name for c in changed))

        view = Named()
        bob.views.attach(view, [xs[1], ys[1]], "optimistic")
        alice.transact(lambda: xs[0].set(1))
        session.settle()
        alice.transact(lambda: ys[0].set(1))
        session.settle()
        assert view.changed_names[-2:] == [["x"], ["y"]]

    def test_composite_event_maps_to_attached_ancestor(self):
        session = Session.simulated(latency_ms=10)
        alice, bob = session.add_sites(2)
        lists = session.replicate(DList, "l", [alice, bob])
        session.settle()
        alice.transact(lambda: lists[0].append("int", 7))
        session.settle()

        class Named(View):
            def __init__(self):
                self.changed_names = []

            def update(self, changed, snapshot):
                self.changed_names.append([c.name for c in changed])

        view = Named()
        lists[1].attach(view, "optimistic")
        # Edit the embedded child; the view attached to the ROOT must be
        # notified with the root in the changed list.
        alice.transact(lambda: lists[0].child_at(0).set(8))
        session.settle()
        assert ["l"] in view.changed_names[1:]


def _parked_check():
    """A pessimistic check from the watcher (site 2) parks at the primary
    (site 0) on a blind write ``a`` of site 1 that the primary holds
    uncommitted, and a blind write ``b`` of site 3 lands inside the check's
    interval ``(lo, ts)`` after it parked.  Returns the session, its sites,
    the view's notifications, the primary's replies and the three outcomes;
    ``b`` is still in flight."""
    session = Session.simulated(latency_ms=10.0, delegation_enabled=False)
    sites = session.add_sites(4)
    objs = session.replicate(DInt, "x", sites, initial=0)
    session.settle()
    primary, writer_a, watcher, writer_b = sites
    seen = []

    class Seen(View):
        def update(self, changed, snapshot):
            seen.append((snapshot.ts, snapshot.read(objs[2])))

    objs[2].attach(Seen(), "pessimistic")
    session.settle()
    replies = []
    send = primary.send

    def spy(dst, payload):
        if isinstance(payload, SnapshotReplyMsg):
            replies.append((payload.snap_id, payload.ok))
        send(dst, payload)

    primary.send = spy
    net = session.network
    net.set_link_latency(0, 1, FixedLatency(300.0))  # a's confirmation is slow
    net.set_link_latency(1, 2, FixedLatency(400.0))  # the watcher hears of a late
    net.set_link_latency(3, 2, FixedLatency(400.0))  # ... and of b
    net.set_link_latency(3, 0, FixedLatency(25.0))  # b reaches the primary after the check
    base = max(site.clock.counter for site in sites)
    a = writer_a.transact(lambda: objs[1].set(1))
    session.run_for(15.0)  # a is applied at the primary, undecided
    primary.clock.observe_counter(base + 20)
    ts = primary.transact(lambda: objs[0].set(3))
    session.run_for(5.0)
    writer_b.clock.observe_counter(base + 10)  # b has not heard of ts
    b = writer_b.transact(lambda: objs[3].set(2))
    session.run_for(20.0)  # the watcher's check reaches the primary and parks
    assert primary.metrics.value("view.checks_parked") == 1
    assert a.vt < b.vt < ts.vt
    return session, sites, seen, replies, (a, b, ts)


class TestDeferredChecks:
    def test_pessimistic_check_defers_on_uncommitted_interval(self):
        """A pessimistic RL check whose interval contains an uncommitted
        value waits for it to resolve instead of answering."""
        session = Session.simulated(latency_ms=50, delegation_enabled=False)
        s0, s1, s2 = session.add_sites(3)
        objs = session.replicate(DInt, "x", [s0, s1, s2], initial=0)
        session.settle()
        rec = Recorder()
        objs[2].attach(rec, "pessimistic")
        values_before = len(rec.values)
        # Two updates in quick succession: the second snapshot's interval
        # contains the first (uncommitted) update at the primary.
        s1.transact(lambda: objs[1].set(1))
        s1.transact(lambda: objs[1].set(2))
        session.settle()
        seen = [v[0] for v in rec.values[values_before:]]
        assert seen == [1, 2]  # lossless, in order, committed only

    def test_straggler_committing_first_is_denied_when_the_wait_resolves(self):
        """The check waits on ``a`` only: ``b`` commits first, and the deny
        it implies is reached when ``a`` resolves.  The view still delivers
        a, b, ts in VT order, each once, as when ``b``'s commit denied the
        check at once."""
        session, sites, seen, replies, (a, b, ts) = _parked_check()
        primary = sites[0]
        session.run_for(50.0)
        assert primary.engine.status.get(b.vt) is COMMITTED
        assert primary.engine.status.get(a.vt) is None
        assert replies == [] and primary.engine.deps.pending_vts() == {a.vt}
        session.settle()
        assert replies[0] == ((2, 1), False)
        assert seen == [(VT_ZERO, 0), (a.vt, 1), (b.vt, 2), (ts.vt, 3)]
        for site in sites:
            assert site.protocol_residue() == {}

    def test_crashed_origin_leaves_no_waiter_and_gets_no_reply(self):
        session, sites, _seen, replies, (a, _b, _ts) = _parked_check()
        primary = sites[0]
        session.network.fail_site(2)
        session.run_for(5.0)
        assert not [t for t in primary.engine.deps.targets() if isinstance(t, OutstandingReply)]
        session.settle()
        assert a.committed and replies == []
        assert primary.protocol_residue() == {}

    def test_residue_names_a_parked_check(self):
        _session, sites, _seen, _replies, (a, _b, _ts) = _parked_check()
        residue = sites[0].protocol_residue()
        assert residue["parked-primary-checks"] == [f"snap(2, 1) awaiting {[str(a.vt)]}"]


class TestOptimisticSupersede:
    def test_only_latest_snapshot_outstanding(self):
        session = Session.simulated(latency_ms=80, delegation_enabled=False)
        alice, bob = session.add_sites(2)
        a, b = session.replicate(DInt, "x", [alice, bob], initial=0)
        session.settle()
        rec = Recorder()
        b.attach(rec, "optimistic")
        commits_before = rec.commit_count
        bob.transact(lambda: b.set(1))
        bob.transact(lambda: b.set(2))
        bob.transact(lambda: b.set(3))
        # Three rapid updates: at most one uncommitted snapshot is kept, so
        # intermediate snapshots never produce commit notifications.
        session.settle()
        new_commits = rec.commit_count - commits_before
        assert new_commits == 1
        assert rec.values[-1] == [3]


class TestDetach:
    def test_detach_is_final(self):
        """Detaching while a shown write is still undecided: neither view
        hears of it again, and nothing of theirs is left waiting — not in
        the dependency index (the one way a resolution reaches a view), not
        in the manager's records."""
        session = Session.simulated(latency_ms=20)
        s0, s1, s2 = session.add_sites(3)
        objs = session.replicate(DInt, "x", [s0, s1, s2], initial=0)
        session.settle()
        calls = []

        class Tagged(View):
            def __init__(self, tag):
                self.tag = tag

            def update(self, changed, snapshot):
                calls.append((self.tag, "update"))

            def commit(self):
                calls.append((self.tag, "commit"))

        proxies = [objs[2].attach(Tagged("opt"), "optimistic"),
                   objs[2].attach(Tagged("pess"), "pessimistic")]
        for value in (1, 2):  # the primary learns it is watched, then vouches
            s1.transact(lambda: objs[1].set(value))
            session.settle()
        assert objs[2].vouch_expected
        outcome = s1.transact(lambda: objs[1].set(3))
        scheduler = session.scheduler
        while objs[2].history.entry_at(outcome.vt) is None:
            assert scheduler.step()
        assert s2.engine.status.get(outcome.vt) is None  # applied, undecided
        assert proxies[1].pending[outcome.vt].awaiting
        assert s2.engine.deps.pending_vts() == {outcome.vt}

        del calls[:]
        for proxy in proxies:
            s2.views.detach(proxy)
        still_waiting = s2.engine.deps.pending_vts()
        session.settle()
        assert calls == []
        assert still_waiting == set() and s2.views.records == {}
        assert objs[2].get() == 3 and outcome.committed
        for site in (s0, s1, s2):
            assert site.protocol_residue() == {}
