"""Edge-case tests for the failure protocols: cascading failures,
coordinator loss, failures during joins, and stability-bound GC."""

import pytest

from repro import Session
from repro.core.messages import SnapshotConfirmMsg
from repro.core.views import View
from repro.sim.network import FixedLatency
from repro.vtime import VirtualTime
from repro import DInt
from repro.core.transaction import TxnState


def quad(latency=20.0, **kwargs):
    session = Session.simulated(latency_ms=latency, **kwargs)
    sites = session.add_sites(4)
    objs = session.replicate(DInt, "x", sites, initial=0)
    session.settle()
    return session, sites, objs


class TestCoordinatorFailure:
    def test_coordinator_dies_after_peer(self):
        """The minimum surviving site coordinates; if IT then fails, the
        next minimum takes over on the second notification."""
        session, sites, objs = quad()
        session.network.fail_site(3)  # plain replica first
        session.settle()
        # Site 0 coordinated the resolution/repair.  Now site 0 dies too.
        session.network.fail_site(0)
        session.settle()
        assert objs[1].graph().sites() == [1, 2]
        out = sites[2].transact(lambda: objs[2].set(9))
        session.settle()
        assert out.committed
        assert objs[1].get() == 9

    def test_rapid_double_failure(self):
        """Two failures in quick succession (second during the first's
        protocol) still converge."""
        session, sites, objs = quad()
        session.network.fail_site(0, notify_after_ms=0.0)
        session.network.fail_site(1, notify_after_ms=5.0)
        session.settle()
        assert objs[2].graph().sites() == [2, 3]
        sites[3].transact(lambda: objs[3].set(4))
        session.settle()
        assert objs[2].get() == 4


class TestFailureDuringJoin:
    def test_join_target_fails_before_reply(self):
        """B crashes after the join request is sent; the joiner's blocked
        transaction must not commit a half-joined state."""
        session = Session.simulated(latency_ms=50)
        alice, bob = session.add_sites(2)
        a_obj = alice.create_int("x", 5)
        assoc = alice.create_association("x.assoc")
        alice.transact(lambda: assoc.create_relationship("x.rel"))
        session.settle()
        alice.join(assoc, "x.rel", a_obj)
        session.settle()
        assoc_b = bob.import_invitation(assoc.make_invitation(), "x.assoc")
        session.settle()
        b_obj = bob.create_int("x", 0)
        out = bob.join(assoc_b, "x.rel", b_obj)
        # Crash alice before the reply can arrive.
        session.network.fail_site(0)
        session.settle()
        # The join cannot have succeeded; bob's object stays standalone and
        # usable.
        assert not out.committed
        assert b_obj.graph().is_singleton()
        bob.transact(lambda: b_obj.set(1))
        session.settle()
        assert b_obj.get() == 1


class TestStabilityBound:
    def test_bound_is_min_over_sites(self):
        session, sites, objs = quad()
        site = sites[0]
        bound = site.stability_bound([0, 1, 2, 3])
        expected = min(
            [site.clock.counter]
            + [site.last_heard.get(s, 0) for s in (1, 2, 3)]
        )
        assert bound == VirtualTime(expected, -1)

    def test_own_site_uses_clock(self):
        session = Session.simulated(latency_ms=10)
        site = session.add_site()
        site.create_int("x")
        site.transact(lambda: site.objects["s0:x"].set(1))
        assert site.stability_bound([0]).counter == site.clock.counter

    def test_unheard_site_pins_bound_at_zero(self):
        session = Session.simulated(latency_ms=10)
        a = session.add_site()
        b = session.add_site()
        assert a.stability_bound([0, 1]).counter == 0

    def test_gc_respects_slow_silent_site(self):
        """A replica site that has not spoken recently pins history: its
        in-flight (stale-VT) transactions must stay checkable."""
        session = Session.simulated(latency_ms=10)
        s0, s1, s2 = session.add_sites(3)
        objs = session.replicate(DInt, "x", [s0, s1, s2], initial=0)
        session.settle()
        # Cut s2 off (very slow outgoing links): it goes silent.
        session.network.set_link_latency(2, 0, FixedLatency(100000.0))
        session.network.set_link_latency(2, 1, FixedLatency(100000.0))
        heard_before = dict(s0.last_heard)
        for v in range(1, 6):
            s0.transact(lambda vv=v: objs[0].set(vv))
            session.run_for(50)
        # History at the primary retains everything since s2 went silent.
        silent_counter = heard_before.get(2, 0)
        retained = [e.vt for e in objs[0].history]
        assert retained[0].counter <= silent_counter + 1

    def test_reservations_survive_until_stability(self):
        """The regression scenario behind the stability-bound fix: a
        read-modify-write from a stale-clocked site must still be caught."""
        session = Session.simulated(latency_ms=10)
        s0, s1, s2 = session.add_sites(3)
        objs = session.replicate(DInt, "x", [s0, s1, s2], initial=0)
        session.settle()
        # s2 reads x=0 now, then is partitioned off while s0 churns.
        session.network.set_link_latency(0, 2, FixedLatency(100000.0))
        session.network.set_link_latency(1, 2, FixedLatency(100000.0))
        for _ in range(3):
            s0.transact(lambda: objs[0].set(objs[0].get() + 1))
            session.run_for(50)
        assert objs[0].get() == 3
        # s2's clock is stale; it issues an increment against its old view.
        out = s2.transact(lambda: objs[2].set(objs[2].get() + 1))
        # Reconnect: the stale transaction reaches the primary.
        session.network.set_link_latency(0, 2, FixedLatency(10.0))
        session.network.set_link_latency(1, 2, FixedLatency(10.0))
        session.network.set_link_latency(2, 0, FixedLatency(10.0))
        session.network.set_link_latency(2, 1, FixedLatency(10.0))
        session.settle()
        # The increment must not be lost OR double-applied: final = 4.
        assert out.committed
        assert [o.get() for o in objs] == [4, 4, 4]


class _Recorder(View):
    def __init__(self):
        self.seen = []
        self.commits = 0

    def update(self, changed, snapshot):
        self.seen.append((snapshot.ts, [snapshot.read(c) for c in changed]))

    def commit(self):
        self.commits += 1


def _spy_on_checks(site):
    """Record ``(destination, snapshot id, hi of the first check)`` of every
    CONFIRM-READ ``site`` sends."""
    asked = []
    send = site.send

    def spy(dst, payload):
        if isinstance(payload, SnapshotConfirmMsg):
            asked.append((dst, payload.snap_id, payload.checks[0].hi_vt))
        send(dst, payload)

    site.send = spy
    return asked


class TestOrphanedSnapshotCheck:
    def test_check_to_a_crashed_primary_is_re_sent_after_repair(self):
        """A pessimistic view away from the primary asks it to confirm a
        blind write's snapshot (an object's first blind writes still ask);
        the primary crashes fail-stop before the request arrives.  The
        snapshot waits on the failure manager's post-repair list and, once
        repair has named a live primary, is revised: its check is re-sent
        there once, under a fresh snapshot id."""
        session, sites, objs = quad(latency=30.0)
        watcher = sites[2]
        view = _Recorder()
        objs[2].attach(view, "pessimistic")
        session.settle()
        asked = _spy_on_checks(watcher)
        session.network.set_link_latency(2, 0, FixedLatency(500.0))  # the request is slow
        outcome = sites[1].transact(lambda: objs[1].set(5))
        session.run_for(100.0)
        assert outcome.committed and watcher.engine.status[outcome.vt] is TxnState.COMMITTED
        ((primary, orphan, hi),) = asked
        assert primary == 0 and hi == outcome.vt
        assert [sorted(r.pending_sites) for r in watcher.views.records.values()] == [[0]]
        sent_before = watcher.metrics.value("view.confirm_requests_sent")

        session.network.fail_site(0)  # the request is lost with it
        session.settle()

        assert objs[2].primary_site() == 1
        after = asked[1:]
        assert [dst for dst, _snap_id, hi in after if hi == outcome.vt] == [1]
        assert orphan not in [snap_id for _dst, snap_id, _hi in after]
        # The rest is the snapshot the repair's own graph write raised.
        assert all(dst == 1 for dst, _snap_id, _hi in after) and len(after) == 2
        assert watcher.metrics.value("view.confirm_requests_sent") - sent_before == len(after)
        assert [ts for ts, _values in view.seen].count(outcome.vt) == 1
        assert [values for _ts, values in view.seen] == [[0], [5], [5]]
        for site in sites[1:]:
            assert site.protocol_residue() == {}

    def test_repaired_primary_dies_too(self):
        """The check re-sent after the first repair goes to a primary that
        crashes in turn: the snapshot is revised again after the second
        repair, so its check is sent once per repair, to 0, 1 and 2."""
        session, sites, objs = quad(latency=30.0)
        watcher = sites[3]
        view = _Recorder()
        objs[3].attach(view, "pessimistic")
        session.settle()
        asked = _spy_on_checks(watcher)
        session.network.set_link_latency(3, 0, FixedLatency(500.0))
        session.network.set_link_latency(3, 1, FixedLatency(500.0))
        outcome = sites[2].transact(lambda: objs[2].set(5))
        session.run_for(100.0)
        assert outcome.committed and [dst for dst, _id, _hi in asked] == [0]

        session.network.fail_site(0)
        while not any(dst == 1 and hi == outcome.vt for dst, _id, hi in asked):
            assert session.scheduler.step()
        session.network.fail_site(1)  # the re-sent request is lost with it
        session.settle()

        assert objs[3].primary_site() == 2
        assert [dst for dst, _snap_id, hi in asked if hi == outcome.vt] == [0, 1, 2]
        assert len({snap_id for _dst, snap_id, _hi in asked}) == len(asked)
        assert [ts for ts, _values in view.seen].count(outcome.vt) == 1
        assert view.seen[-1][1] == [5]
        for site in sites[2:]:
            assert site.protocol_residue() == {}

    def test_revision_the_commit_covers_is_delivered_at_once(self):
        """The primary is watched, so the blind write's COMMIT vouches for
        the interval its CONFIRM-READ asks about; the primary crashes before
        answering.  The revision after repair finds the guess covered, asks
        nothing, and the snapshot is delivered then, once."""
        session, sites, objs = quad(latency=30.0)
        watcher = sites[2]
        view = _Recorder()
        objs[2].attach(view, "pessimistic")
        session.settle()
        sites[1].transact(lambda: objs[1].set(4))  # the primary learns it is watched
        session.settle()
        asked = _spy_on_checks(watcher)
        session.network.set_link_latency(2, 0, FixedLatency(500.0))
        outcome = sites[1].transact(lambda: objs[1].set(5))
        session.run_for(100.0)
        assert outcome.committed and [(dst, hi) for dst, _id, hi in asked] == [(0, outcome.vt)]
        (record,) = [r for r in watcher.views.records.values() if r.ts == outcome.vt]
        assert record.pending_sites == {0} and objs[2] in record.write_reads

        session.network.fail_site(0)
        session.settle()

        assert [hi for _dst, _id, hi in asked].count(outcome.vt) == 1
        assert [ts for ts, _values in view.seen].count(outcome.vt) == 1
        for site in sites[1:]:
            assert site.protocol_residue() == {}

    def test_optimistic_view_hears_the_commit_once(self):
        """An optimistic view of two objects asks the primary of the one not
        written whether its interval is write-free; the primary crashes
        before answering.  A second crash, of a site outside both graphs,
        needs no repair consensus and runs the post-repair list early: the
        snapshot is revised under a fresh id, but the graph still names the
        dead primary, so nothing is sent and the revision waits again.  The
        view still hears that its state committed, and hears it once."""
        session = Session.simulated(latency_ms=30.0)
        sites = session.add_sites(5)
        xs = session.replicate(DInt, "x", sites[:4], initial=0)
        ys = session.replicate(DInt, "y", sites[:4], initial=0)
        session.settle()
        watcher = sites[2]
        view = _Recorder()
        watcher.views.attach(view, [xs[2], ys[2]], "optimistic")
        session.settle()
        asked = _spy_on_checks(watcher)
        session.network.set_link_latency(2, 0, FixedLatency(500.0))
        outcome = sites[1].transact(lambda: xs[1].set(5))
        session.run_for(100.0)
        assert outcome.committed and [dst for dst, _id, _hi in asked] == [0]
        commits_before, records_before = view.commits, watcher.views._snap_seq

        session.network.fail_site(0)
        session.network.fail_site(4)
        session.settle()

        # The early revision, and the notification the repair's graph write raised.
        assert watcher.views._snap_seq - records_before == 2
        assert view.commits - commits_before == 1
        assert view.seen[-1][1] == [5, 0]
        assert [dst for dst, _id, _hi in asked[1:]] == [1]
        for site in sites[1:4]:
            assert site.protocol_residue() == {}


class TestClockMerging:
    def test_clocks_converge_through_traffic(self):
        session = Session.simulated(latency_ms=10)
        alice, bob = session.add_sites(2)
        objs = session.replicate(DInt, "x", [alice, bob], initial=0)
        session.settle()
        alice.transact(lambda: objs[0].set(1))
        session.settle()
        assert abs(alice.clock.counter - bob.clock.counter) <= 2

    def test_last_heard_monotone(self):
        session = Session.simulated(latency_ms=10)
        alice, bob = session.add_sites(2)
        objs = session.replicate(DInt, "x", [alice, bob], initial=0)
        session.settle()
        h1 = bob.last_heard.get(0, 0)
        alice.transact(lambda: objs[0].set(1))
        session.settle()
        h2 = bob.last_heard.get(0, 0)
        assert h2 >= h1
