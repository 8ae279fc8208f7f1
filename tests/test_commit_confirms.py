"""The summary COMMIT is the snapshot confirmation (sections 4.2 / 5.1.2).

A pessimistic snapshot's RL guess "(lo, ts) is write-free" needs no
CONFIRM-READ when the transaction at ``ts`` wrote the attached object
non-blind with ``read_vt <= lo``: the primary validated and reserved
``(read_vt, ts)`` before that transaction could commit, and the snapshot
waits for the commit anyway.  Everything else — blind writes, composites,
objects the transaction did not write, ``read_vt > lo`` — still asks.
"""

import pytest

from repro import DInt, DList, Session, View
from repro.core.messages import SnapshotConfirmMsg
from repro.sim.network import FixedLatency

T = 50.0


class Probe(View):
    """Records (arrival time, snapshot VT, values of the changed objects)."""

    def __init__(self, site):
        self.site = site
        self.updates = []

    def update(self, changed, snapshot):
        self.updates.append(
            (self.site.transport.now(), snapshot.ts, [snapshot.read(c) for c in changed])
        )

    def first_seen(self, value):
        for when, _ts, values in self.updates:
            if value in values:
                return when
        return None

    def values(self):
        return [values[0] for _when, _ts, values in self.updates]

    def timestamps(self):
        return [ts for _when, ts, _values in self.updates]


def replicated_int(n_sites=3, latency=T):
    """Site 0 holds the primary copy; with 3 sites, 2 writes and 1 watches."""
    session = Session.simulated(latency_ms=latency)
    sites = session.add_sites(n_sites)
    objs = session.replicate(DInt, "x", sites, initial=0)
    session.settle()
    return session, sites, objs


class Window:
    """Messages per type and elapsed simulated time since construction."""

    def __init__(self, session):
        self.session = session
        self.t0 = session.scheduler.now
        self.before = dict(session.network.stats.per_type_sent)

    def sent(self):
        now = self.session.network.stats.per_type_sent
        return {
            name: count - self.before.get(name, 0)
            for name, count in now.items()
            if count != self.before.get(name, 0)
        }


def confirm_requests(sites):
    """Spy on every site's CONFIRM-READ handler; returns the shared log of
    (receiving site, message)."""
    log = []
    for site in sites:
        handler = site.views.on_confirm_request

        def spy(src, msg, site=site, handler=handler):
            log.append((site.site_id, msg))
            handler(src, msg)

        site._routes[SnapshotConfirmMsg] = spy
    return log


class TestWhoConfirms:
    def test_rmw_third_party_view_is_confirmed_by_commit_at_2t(self):
        session, sites, objs = replicated_int()
        probe = Probe(sites[1])  # neither origin (2) nor primary (0)
        objs[1].attach(probe, "pessimistic")
        window = Window(session)
        sites[2].transact(lambda: objs[2].set(objs[2].get() + 41))
        session.settle()
        assert probe.first_seen(41) - window.t0 == pytest.approx(2 * T)
        assert window.sent() == {"TxnPropagateMsg": 2, "CommitMsg": 2}
        assert "SnapshotConfirmMsg" not in session.network.stats.per_type_sent
        assert sites[1].metrics.value("view.rl_confirmed_by_commit") == 1
        assert sites[1].metrics.value("view.confirm_requests_sent") == 0

    def test_blind_write_still_asks_the_primary_at_3t(self):
        """t_R = t_T: the write's own check covers no interval, so nothing
        but the primary vouches for the snapshot's."""
        session, sites, objs = replicated_int()
        probe = Probe(sites[1])
        objs[1].attach(probe, "pessimistic")
        window = Window(session)
        sites[2].transact(lambda: objs[2].set(77))
        session.settle()
        assert probe.first_seen(77) - window.t0 == pytest.approx(3 * T)
        assert window.sent() == {
            "TxnPropagateMsg": 2, "CommitMsg": 2,
            "SnapshotConfirmMsg": 1, "SnapshotReplyMsg": 1,
        }
        assert sites[1].metrics.value("view.rl_confirmed_by_commit") == 0
        assert sites[1].metrics.value("view.confirm_requests_sent") == 1

    def test_composite_view_still_asks_when_a_child_is_rmw_written(self):
        """The view's check covers the list's whole subtree; the child's
        write validated the child's history only."""
        session = Session.simulated(latency_ms=T)
        sites = session.add_sites(3)
        lists = session.replicate(DList, "doc", sites)
        session.settle()
        sites[0].transact(lambda: lists[0].append("int", 1))
        session.settle()
        probe = Probe(sites[1])
        lists[1].attach(probe, "pessimistic")
        window = Window(session)

        def bump():
            child = lists[2].child_at(0)
            child.set(child.get() + 1)

        sites[2].transact(bump)
        session.settle()
        assert probe.updates[-1][2] == [[2]]
        assert probe.updates[-1][0] - window.t0 == pytest.approx(3 * T)
        assert window.sent()["SnapshotConfirmMsg"] == 1
        assert sites[1].metrics.value("view.rl_confirmed_by_commit") == 0

    def test_two_object_view_asks_only_about_the_object_not_written(self):
        session = Session.simulated(latency_ms=T)
        sites = session.add_sites(3)
        xs = session.replicate(DInt, "x", sites, initial=0)
        ys = session.replicate(DInt, "y", sites, initial=0)
        session.settle()
        probe = Probe(sites[1])
        sites[1].views.attach(probe, [xs[1], ys[1]], "pessimistic")
        requests = confirm_requests(sites)
        sites[2].transact(lambda: xs[2].set(xs[2].get() + 5))
        session.settle()
        assert probe.updates[-1][2] == [5]
        assert [(at, [c.object_uid for c in msg.checks]) for at, msg in requests] == [
            (0, ["s0:y"])
        ]
        assert sites[1].metrics.value("view.rl_confirmed_by_commit") == 1
        assert sites[1].metrics.value("view.confirm_requests_sent") == 1


class TestRevision:
    def test_predecessor_aborts_after_successor_committed(self):
        """Sites 2 and 3 increment concurrently; the primary sees 3's write
        first and commits it, so 2's (lower VT, inside the interval 3
        reserved) is NC-denied.  The watcher holds both snapshots, learns of
        3's commit first, and must re-derive 3's interval when 2's abort
        removes the predecessor — after the engine already dropped its
        per-transaction bookkeeping for 3."""
        session, sites, objs = replicated_int(n_sites=4, latency=10.0)
        watcher = sites[1]
        probe = Probe(watcher)
        objs[1].attach(probe, "pessimistic")
        session.network.set_link_latency(2, 0, FixedLatency(100.0))
        requests = confirm_requests(sites)

        first = sites[2].transact(lambda: objs[2].set(objs[2].get() + 1))
        second = sites[3].transact(lambda: objs[3].set(objs[3].get() + 1))
        loser_vt, winner_vt = first.vt, second.vt
        assert loser_vt < winner_vt

        session.run_for(60.0)  # 3 committed everywhere; 2 still on its way to the primary
        proxy = objs[1].proxies[0]
        assert watcher.engine.status.get(winner_vt) == "committed"
        assert winner_vt not in watcher.engine.write_reads
        assert sorted(proxy.pending) == [loser_vt, winner_vt]
        assert probe.values() == [0]  # blocked behind the unresolved predecessor

        session.settle()
        assert first.committed and first.attempts == 2 and second.committed
        assert probe.values() == [0, 1, 2]  # lossless
        assert probe.timestamps() == sorted(probe.timestamps())  # monotonic
        assert probe.timestamps()[1] == winner_vt
        assert [o.get() for o in objs] == [2, 2, 2, 2]
        assert requests == []
        for site in sites:
            assert site.protocol_residue() == {}

    def test_lossless_monotone_when_the_read_value_arrives_last(self):
        """Writers alternate between site 2 (slow link to the watcher) and
        the primary: each primary write reaches the watcher before the value
        it read, so read_vt > lo, the check goes out as before and is denied;
        the late write's arrival revises the interval to one its successor's
        COMMIT covers."""
        session, sites, objs = replicated_int(latency=10.0)
        watcher = sites[1]
        probe = Probe(watcher)
        objs[1].attach(probe, "pessimistic")
        session.network.set_link_latency(2, 1, FixedLatency(100.0))
        for writer in (2, 0, 2):
            obj = objs[writer]
            sites[writer].transact(lambda obj=obj: obj.set(obj.get() + 1))
            session.run_for(30.0)
        session.settle()
        assert probe.values() == [0, 1, 2, 3]
        assert probe.timestamps() == sorted(probe.timestamps())
        assert watcher.metrics.value("view.confirm_requests_sent") >= 1
        assert watcher.metrics.value("view.rl_confirmed_by_commit") >= 3
        for site in sites:
            assert site.protocol_residue() == {}


class TestCommitOvertakesPropagate:
    def test_late_propagate_of_a_committed_transaction_is_cleaned_up(self):
        """The delegate's COMMIT reaches site 1 over two fast links before
        the origin's propagate crosses the slow one.  The commit-time
        cleanup has run by then; the writes applied afterwards must be
        collected too."""
        session, sites, objs = replicated_int(latency=10.0)
        session.network.set_link_latency(2, 1, FixedLatency(100.0))
        for _ in range(5):
            sites[2].transact(lambda: objs[2].set(objs[2].get() + 1))
            session.settle()
        assert [o.get() for o in objs] == [5, 5, 5]
        late = sites[1]
        assert late.engine.applied == {}
        assert late.engine.write_reads == {}
        assert late.protocol_residue() == {}
        # History GC ran for the late-applied writes as well.
        assert len(objs[1].history) < 5

    def test_residue_reports_bookkeeping_recorded_after_resolution(self):
        session, sites, objs = replicated_int()
        outcome = sites[0].transact(lambda: objs[0].set(1))
        session.settle()
        sites[1].note_applied(outcome.vt, objs[1], None)
        assert sites[1].protocol_residue() == {
            "applied-after-resolution": [f"{outcome.vt} committed"]
        }
