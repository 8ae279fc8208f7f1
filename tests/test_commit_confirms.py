"""The summary COMMIT is the snapshot confirmation (sections 4.2 / 5.1.2).

A pessimistic snapshot's RL guess "(lo, ts) is write-free" needs no
CONFIRM-READ when the primary reserved an interval ``(v, ts)`` with
``v <= lo`` for the transaction at ``ts``: the snapshot waits for the
commit anyway.  For a non-blind write ``v`` is the time it read; for a
blind write it is the entry below ``ts`` in the primary's history, which a
watched primary reserves and vouches for on the COMMIT — withholding the
CONFIRM-READ on that expectation decides when the guess is checked, never
whether.  Everything else — the first blind writes of an object,
composites, objects the transaction did not write, ``v > lo``, a COMMIT
without a vouch — still asks.
"""

import pytest

from repro import DInt, DList, Session, View
from repro.sim.network import FixedLatency
from repro.vtime import VirtualTime
from repro.core.transaction import TxnState

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
    (receiving site, message) for the requests that arrived as messages.
    The route table resolves the handler on the site's view manager per
    message, so the spy shadows it there; a local primary's own checks call
    the same handler directly (``src`` is the site itself) and are not
    messages."""
    log = []
    for site in sites:
        handler = site.views.on_confirm_request

        def spy(src, msg, site=site, handler=handler):
            if src != site.site_id:
                log.append((site.site_id, msg))
            handler(src, msg)

        site.views.on_confirm_request = spy
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
        assert watcher.engine.status.get(winner_vt) is TxnState.COMMITTED
        assert winner_vt not in watcher.engine.txns
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
        assert late.engine.txns == {}
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


# ---------------------------------------------------------------------------
# Blind writes: the primary reserves and vouches (prev, t_T) on the COMMIT
# ---------------------------------------------------------------------------

BLIND_ROUND = {"TxnPropagateMsg": 2, "CommitMsg": 2}
ASKED_ROUND = dict(BLIND_ROUND, SnapshotConfirmMsg=1, SnapshotReplyMsg=1)


def blind_rounds(session, site, obj, values):
    """Blind-write each value from ``site``, settling in between; returns
    per write (window start, messages sent)."""
    rounds = []
    for value in values:
        window = Window(session)
        site.transact(lambda value=value: obj.set(value))
        session.settle()
        rounds.append((window.t0, window.sent()))
    return rounds


def commits_received(sites):
    """Spy on every site's COMMIT handler; returns the shared message log.
    The route table resolves the handler on the site's engine per message,
    so the spy shadows it there."""
    log = []
    for site in sites:
        handler = site.engine.on_commit

        def spy(src, msg, handler=handler):
            log.append(msg)
            handler(src, msg)

        site.engine.on_commit = spy
    return log


def counter(site, name):
    return site.metrics.value(name)


class TestPrimaryVouchesForBlindWrites:
    def test_third_party_view_is_confirmed_by_commit_from_the_third_write(self):
        """View at the third site only.  Its first CONFIRM-READ reaches the
        primary after the first write validated, so the second write's
        COMMIT is the first to carry a vouch, and the third write is the
        first whose CONFIRM-READ is withheld.  Both warm-up writes are
        pinned: the bit rides on the first CONFIRM-READ, there is no
        attach-time message."""
        session, sites, objs = replicated_int()
        probe = Probe(sites[1])
        objs[1].attach(probe, "pessimistic")
        commits = commits_received(sites)
        rounds = blind_rounds(session, sites[2], objs[2], [10, 20, 30, 40, 50])
        lags = [probe.first_seen(v) - t0 for v, (t0, _sent) in zip([10, 20, 30, 40, 50], rounds)]
        assert lags == pytest.approx([3 * T, 3 * T, 2 * T, 2 * T, 2 * T])
        assert [sent for _t0, sent in rounds] == [ASKED_ROUND] * 2 + [BLIND_ROUND] * 3
        assert objs[0].watched and not objs[1].watched and not objs[2].watched
        assert [bool(msg.vouched) for msg in commits[::2]] == [False, True, True, True, True]
        assert commits[-1].vouched == (("s0:x", probe.timestamps()[-2]),)
        assert counter(sites[0], "txn.intervals_vouched") == 4
        assert counter(sites[1], "view.confirm_requests_sent") == 2
        assert counter(sites[1], "view.rl_confirmed_by_commit") == 3
        assert counter(sites[1], "view.vouch_missed") == 0
        assert probe.values() == [0, 10, 20, 30, 40, 50]
        for site in sites:
            assert site.protocol_residue() == {}

    def test_origin_side_view_teaches_the_primary_one_write_earlier(self):
        """With a view at the writer too, the writer's own CONFIRM-READ
        travels ahead of its propagate, so the first write is already
        vouched for and the second is 2t / 4 messages at both views."""
        session, sites, objs = replicated_int()
        third, own = Probe(sites[1]), Probe(sites[2])
        objs[1].attach(third, "pessimistic")
        objs[2].attach(own, "pessimistic")
        rounds = blind_rounds(session, sites[2], objs[2], [10, 20, 30])
        assert rounds[0][1] == dict(BLIND_ROUND, SnapshotConfirmMsg=2, SnapshotReplyMsg=2)
        assert [sent for _t0, sent in rounds[1:]] == [BLIND_ROUND] * 2
        for probe, first in ((third, 3 * T), (own, 2 * T)):
            lags = [probe.first_seen(v) - t0 for v, (t0, _sent) in zip([10, 20, 30], rounds)]
            assert lags == pytest.approx([first, 2 * T, 2 * T])

    def test_origin_side_view_waits_for_its_delegates_commit(self):
        """A view at a non-primary writer: the reply to its CONFIRM-READ and
        the delegate's COMMIT arrive together at 2t, so waiting for the
        COMMIT alone costs no time and saves the round trip."""
        session, sites, objs = replicated_int()
        probe = Probe(sites[2])
        objs[2].attach(probe, "pessimistic")
        rounds = blind_rounds(session, sites[2], objs[2], [10, 20])
        assert [sent for _t0, sent in rounds] == [ASKED_ROUND, BLIND_ROUND]
        lags = [probe.first_seen(v) - t0 for v, (t0, _sent) in zip([10, 20], rounds)]
        assert lags == pytest.approx([2 * T, 2 * T])
        assert counter(sites[2], "view.rl_confirmed_by_commit") == 1

    def test_writes_at_the_primary_are_vouched_for_by_its_own_commit(self):
        """The origin is the primary: propagate and COMMIT leave together,
        so a third-party view is notified at 1t instead of 3t."""
        session, sites, objs = replicated_int()
        probe = Probe(sites[1])
        objs[1].attach(probe, "pessimistic")
        rounds = blind_rounds(session, sites[0], objs[0], [10, 20, 30])
        assert [sent for _t0, sent in rounds] == [ASKED_ROUND] * 2 + [BLIND_ROUND]
        lags = [probe.first_seen(v) - t0 for v, (t0, _sent) in zip([10, 20, 30], rounds)]
        assert lags == pytest.approx([3 * T, 3 * T, T])

    def test_origin_forwards_what_its_primaries_vouched(self):
        """Without delegation the primary's vouch rides on its CONFIRM and
        the origin's COMMIT repeats it."""
        session = Session.simulated(latency_ms=T, delegation_enabled=False)
        sites = session.add_sites(3)
        objs = session.replicate(DInt, "x", sites, initial=0)
        session.settle()
        probe = Probe(sites[1])
        objs[1].attach(probe, "pessimistic")
        commits = commits_received(sites)
        rounds = blind_rounds(session, sites[2], objs[2], [10, 20, 30])
        assert rounds[2][1] == {"TxnPropagateMsg": 2, "ConfirmMsg": 1, "CommitMsg": 2}
        assert commits[-1].vouched == (("s0:x", probe.timestamps()[-2]),)
        assert probe.first_seen(30) - rounds[2][0] == pytest.approx(3 * T)  # 1t + 1t + 1t
        assert counter(sites[1], "view.rl_confirmed_by_commit") == 1
        for site in sites:
            assert site.engine.txns == {} and site.protocol_residue() == {}

    def test_no_pessimistic_view_anywhere_reserves_and_vouches_nothing(self):
        session, sites, objs = replicated_int()
        objs[1].attach(Probe(sites[1]), "optimistic")
        commits = commits_received(sites)
        reserved = list(objs[0].value_reservations)  # left by the join protocol
        blind_rounds(session, sites[2], objs[2], [10, 20, 30])
        blind_rounds(session, sites[0], objs[0], [40])
        assert len(commits) == 8 and all(msg.vouched == () for msg in commits)
        assert not any(obj.watched for obj in objs)
        assert list(objs[0].value_reservations) == reserved
        assert counter(sites[0], "txn.intervals_vouched") == 0

    def test_views_at_the_primary_only_teach_it_nothing(self):
        session, sites, objs = replicated_int()
        objs[0].attach(Probe(sites[0]), "pessimistic")
        commits = commits_received(sites)
        reserved = list(objs[0].value_reservations)
        blind_rounds(session, sites[2], objs[2], [10, 20, 30])
        assert all(msg.vouched == () for msg in commits)
        assert not objs[0].watched and list(objs[0].value_reservations) == reserved

    def test_list_attached_view_keeps_asking(self):
        """The primary vouches for roots without children only: a view of a
        list checks the whole subtree, whichever child was written."""
        session = Session.simulated(latency_ms=T)
        sites = session.add_sites(3)
        lists = session.replicate(DList, "doc", sites)
        session.settle()
        sites[0].transact(lambda: lists[0].append("int", 1))
        session.settle()
        probe = Probe(sites[1])
        lists[1].attach(probe, "pessimistic")
        child = lists[2].child_at(0)
        rounds = blind_rounds(session, sites[2], child, [10, 20, 30, 40])
        assert [sent for _t0, sent in rounds] == [ASKED_ROUND] * 4
        assert probe.updates[-1][2] == [[40]]
        assert probe.updates[-1][0] - rounds[-1][0] == pytest.approx(3 * T)
        assert lists[0].watched  # asked, but there is nothing it may vouch for
        assert counter(sites[0], "txn.intervals_vouched") == 0
        assert counter(sites[1], "view.rl_confirmed_by_commit") == 0

    def test_two_object_view_keeps_the_check_the_vouch_does_not_cover(self):
        session = Session.simulated(latency_ms=T)
        sites = session.add_sites(3)
        xs = session.replicate(DInt, "x", sites, initial=0)
        ys = session.replicate(DInt, "y", sites, initial=0)
        session.settle()
        probe = Probe(sites[1])
        sites[1].views.attach(probe, [xs[1], ys[1]], "pessimistic")
        requests = confirm_requests(sites)
        blind_rounds(session, sites[2], xs[2], [10, 20, 30, 40])
        assert [[c.object_uid for c in msg.checks] for _at, msg in requests] == [
            ["s0:x", "s0:y"], ["s0:x", "s0:y"], ["s0:y"], ["s0:y"],
        ]
        assert probe.values() == [0, 10, 20, 30, 40]
        assert counter(sites[1], "view.rl_confirmed_by_commit") == 2
        assert counter(sites[1], "view.vouch_missed") == 0


class TestVouchedIntervalIsReserved:
    def test_straggler_below_a_vouched_write_is_denied_and_retried(self):
        """Site 2 writes twice; site 1's write, concurrent with the second
        and below it in VT, crosses slow links and reaches the primary after
        the second write validated.  The primary has no view: what denies
        the straggler is the interval it reserved when it vouched."""
        session, sites, objs = replicated_int(latency=10.0)
        writer, straggler = Probe(sites[2]), Probe(sites[1])
        objs[2].attach(writer, "pessimistic")
        objs[1].attach(straggler, "pessimistic")
        first = sites[2].transact(lambda: objs[2].set(1))
        session.settle()
        assert objs[2].vouch_expected
        session.network.set_link_latency(1, 0, FixedLatency(100.0))
        session.network.set_link_latency(1, 2, FixedLatency(100.0))
        late = sites[1].transact(lambda: objs[1].set(7))
        late_vt = late.vt
        second = sites[2].transact(lambda: objs[2].set(2))
        assert first.vt < late_vt < second.vt

        session.run_for(50.0)  # the second write committed everywhere
        assert writer.values() == [0, 1, 2]
        reserved = [(i.lo, i.hi, i.owner) for i in objs[0].value_reservations]
        assert (first.vt, second.vt, second.vt) in reserved
        assert len(objs[0].subtree_reservations.covering_intervals(late_vt)) <= 1  # site 1's own

        session.settle()
        assert late.committed and late.attempts == 2 and late.vt > second.vt
        assert sites[0].engine.status[late_vt] is TxnState.ABORTED
        assert [o.get() for o in objs] == [7, 7, 7]
        for probe in (writer, straggler):
            assert probe.values() == [0, 1, 2, 7]  # lossless
            assert probe.timestamps() == sorted(probe.timestamps())  # monotone
        for site in sites:
            assert site.protocol_residue() == {}

    def test_the_canary_shows_what_the_reservation_is_for(self):
        """Same schedule, primary vouching without reserving: the straggler
        commits below a snapshot the writer's view already showed."""
        session, sites, objs = replicated_int(latency=10.0)
        for site in sites:
            site.engine.mutations = frozenset({"vouch_without_reserve"})
        writer = Probe(sites[2])
        objs[2].attach(writer, "pessimistic")
        sites[2].transact(lambda: objs[2].set(1))
        session.settle()
        session.network.set_link_latency(1, 0, FixedLatency(100.0))
        session.network.set_link_latency(1, 2, FixedLatency(100.0))
        late = sites[1].transact(lambda: objs[1].set(7))
        sites[2].transact(lambda: objs[2].set(2))
        session.settle()
        assert late.committed and late.attempts == 1
        assert writer.values() == [0, 1, 2]  # 7 committed, never shown


class TestVouchDoesNotCover:
    def test_prev_above_lo_sends_the_late_check_then_is_revised_to_covered(self):
        """Site 2's write crosses a slow link to the watcher; the primary's
        own next write arrives first.  Its COMMIT vouches from site 2's
        write, which the watcher has not seen: the withheld CONFIRM-READ
        goes out after all (and is denied), and the late arrival revises the
        interval to the vouched one."""
        session, sites, objs = replicated_int(latency=10.0)
        watcher = sites[1]
        probe = Probe(watcher)
        objs[1].attach(probe, "pessimistic")
        blind_rounds(session, sites[2], objs[2], [1, 2])
        blind_rounds(session, sites[0], objs[0], [3])
        assert objs[1].vouch_expected
        session.network.set_link_latency(2, 1, FixedLatency(100.0))
        requests = confirm_requests(sites)
        asked, by_commit = (
            counter(watcher, "view.confirm_requests_sent"),
            counter(watcher, "view.rl_confirmed_by_commit"),
        )
        slow = sites[2].transact(lambda: objs[2].set(10))
        session.run_for(30.0)
        fast = sites[0].transact(lambda: objs[0].set(11))
        session.run_for(25.0)
        assert counter(watcher, "view.vouch_missed") == 1
        [(at, late_check)] = requests
        assert at == 0 and late_check.checks[0].hi_vt == fast.vt
        assert late_check.checks[0].lo_vt < slow.vt  # the vouch starts above it
        session.settle()
        assert probe.values() == [0, 1, 2, 3, 10, 11]
        assert probe.timestamps() == sorted(probe.timestamps())
        assert counter(watcher, "view.rl_confirmed_by_commit") == by_commit + 1  # after revision
        # The slow write's COMMIT came through the primary ahead of its
        # propagate: decided on arrival, so it asked at once.
        assert counter(watcher, "view.confirm_requests_sent") == asked + 2
        for site in sites:
            assert site.protocol_residue() == {}

    def test_prev_uncommitted_and_later_aborted_is_rechecked(self):
        """The entry below the blind write in the primary's history belongs
        to a transaction whose other primary denies it.  The watcher holds
        both snapshots; the blind write's COMMIT covers ``(loser, ts)``, and
        when the loser aborts the revision finds the vouch too short for the
        widened interval and asks."""
        session = Session.simulated(latency_ms=10.0)
        sites = session.add_sites(4)
        xs = session.replicate(DInt, "x", sites, initial=0)  # primary: site 0
        ys = session.replicate(DInt, "y", sites[1:3], initial=0)  # primary: site 1
        session.settle()
        watcher = sites[1]
        probe = Probe(watcher)
        xs[1].attach(probe, "pessimistic")
        blind_rounds(session, sites[3], xs[3], [1, 2])
        assert xs[1].vouch_expected
        session.network.set_link_latency(3, 2, FixedLatency(100.0))  # site 2 reads a stale x
        session.network.set_link_latency(2, 1, FixedLatency(20.0))  # its ABORT reaches the watcher last
        requests = confirm_requests(sites)
        hidden = sites[3].transact(lambda: xs[3].set(50))
        session.run_for(25.0)

        def stale_increment():
            xs[2].set(xs[2].get() + 1)  # RL-denied at site 0: ``hidden`` is in between
            ys[1].set(1)  # second primary: no delegation, so the denial takes a round trip

        loser = sites[2].transact(stale_increment)
        loser_vt = loser.vt
        session.run_for(13.0)
        blind = sites[3].transact(lambda: xs[3].set(60))
        assert hidden.vt < loser_vt < blind.vt

        session.run_for(22.0)  # the blind write committed at the watcher; the loser is undecided
        proxy = xs[1].proxies[0]
        assert watcher.engine.status.get(blind.vt) is TxnState.COMMITTED
        assert watcher.engine.status.get(loser_vt) is None
        assert sorted(proxy.pending) == [loser_vt, blind.vt]
        record = proxy.pending[blind.vt]
        assert record.write_reads == {xs[1]: loser_vt} and record.ready()
        assert requests == []

        session.run_for(20.0)  # the loser's ABORT arrived, and the check it set off
        assert watcher.engine.status.get(loser_vt) is TxnState.ABORTED
        assert [(c.lo_vt, c.hi_vt) for _at, msg in requests for c in msg.checks] == [
            (hidden.vt, blind.vt)
        ]
        session.settle()
        assert loser.committed and loser.attempts > 1
        assert probe.values()[:5] == [0, 1, 2, 50, 60]
        assert probe.values()[-1] == 61 == xs[0].get()
        assert probe.timestamps() == sorted(probe.timestamps())
        for site in sites:
            assert site.protocol_residue() == {}


class TestCommitWithoutVouch:
    """The COMMIT settles a withheld guess whichever path delivers it."""

    def test_failure_resolution_commit_sends_the_check(self):
        """The origin fails while the delegate's COMMIT to the watcher is
        still in flight; the survivors' resolution commits the write at the
        watcher without a vouch."""
        session, sites, objs = replicated_int(latency=20.0)
        watcher = sites[2]
        probe = Probe(watcher)
        objs[2].attach(probe, "pessimistic")
        blind_rounds(session, sites[1], objs[1], [1, 2])
        assert objs[2].vouch_expected
        session.network.set_link_latency(0, 2, FixedLatency(500.0))
        outcome = sites[1].transact(lambda: objs[1].set(9))
        session.run_for(60.0)
        assert outcome.committed
        record = objs[2].proxies[0].pending[outcome.vt]
        assert record.awaiting and not record.ready()
        session.network.fail_site(1)
        session.settle()
        # (The graph repair that follows notifies once more, of the same value.)
        assert probe.values()[:4] == [0, 1, 2, 9] and set(probe.values()[4:]) <= {9}
        assert probe.timestamps()[3] == outcome.vt
        assert counter(watcher, "view.vouch_missed") == 1
        assert counter(watcher, "fail.resolutions_committed") >= 1
        assert not objs[2].vouch_expected
        for site in (sites[0], watcher):
            assert site.protocol_residue() == {}

    def test_primary_hand_over_is_relearned_through_the_safety_net(self):
        """The delegate — the primary — dies after committing; the origin
        learns the outcome by polling and commits without a vouch.  Its late
        CONFIRM-READ is orphaned, re-dispatched to the new primary after
        graph repair, and is what tells the new primary it is watched."""
        session = Session.simulated(latency_ms=30.0)
        sites = session.add_sites(4)
        objs = session.replicate(DInt, "x", sites, initial=0)
        session.settle()
        origin = sites[3]
        probe = Probe(origin)
        objs[3].attach(probe, "pessimistic")
        blind_rounds(session, origin, objs[3], [1])
        assert objs[3].vouch_expected and objs[0].watched
        session.network.set_link_latency(0, 3, FixedLatency(500.0))
        outcome = origin.transact(lambda: objs[3].set(9))
        session.run_for(70.0)
        assert sites[1].engine.status.get(outcome.vt) is TxnState.COMMITTED and not outcome.committed
        session.network.fail_site(0)
        session.settle()
        assert outcome.committed and probe.values() == [0, 1, 9, 9]  # the write, the repair
        assert probe.timestamps()[2] == outcome.vt
        assert counter(origin, "view.vouch_missed") == 1
        assert objs[3].primary_site() == 1
        assert objs[1].watched and not objs[3].vouch_expected
        # The new primary vouches from its first write on; the origin
        # expects it again from the second.
        rounds = blind_rounds(session, origin, objs[3], [10, 20])
        assert [sent.get("SnapshotConfirmMsg", 0) for _t0, sent in rounds] == [1, 0]
        assert probe.values() == [0, 1, 9, 9, 10, 20]
        for site in sites[1:]:
            assert site.protocol_residue() == {}

    def test_graph_repair_transaction_is_settled_like_any_commit(self):
        """Trial 20 of ``explore --seed 7``: site 2 crashes and the primary's
        repair transaction VT(43@0) applies a ``graph`` op to ``board``.
        That raises an ``apply`` event, so sites 1 and 3 create a snapshot
        that looks like a blind write's and withhold its check; the repair's
        COMMIT carries no vouch (the primary vouches for value writes only)
        and must still settle it — keyed on the record, not on the op."""
        from repro.explore.oracles import check_trial
        from repro.explore.plan import sample_config
        from repro.explore.trial import run_trial

        config = sample_config(7, 20)
        assert [(f.kind, f.args["site"]) for f in config.faults] == [("crash", 2)]
        result = run_trial(config)
        assert check_trial(result) == []
        repair_vt = VirtualTime(43, 0)
        for site in result.live_sites():
            assert site.engine.status[repair_vt] is TxnState.COMMITTED
            assert site.protocol_residue() == {}
        assert [counter(result.sites[i], "view.vouch_missed") for i in (0, 1, 3)] == [0, 1, 1]

    def test_commit_overtaking_its_propagate_never_waits(self):
        session, sites, objs = replicated_int(latency=10.0)
        watcher = sites[1]
        probe = Probe(watcher)
        objs[1].attach(probe, "pessimistic")
        blind_rounds(session, sites[0], objs[0], [1, 2])
        assert objs[1].vouch_expected
        session.network.set_link_latency(2, 1, FixedLatency(100.0))
        asked = counter(watcher, "view.confirm_requests_sent")
        outcome = sites[2].transact(lambda: objs[2].set(3))
        session.run_for(50.0)
        assert watcher.engine.status.get(outcome.vt) is TxnState.COMMITTED
        assert objs[1].history.entry_at(outcome.vt) is None  # propagate still on its way
        session.run_for(60.0)
        record = objs[1].proxies[0].pending[outcome.vt]
        assert not record.awaiting and record.pending_sites == {0}
        assert not watcher.engine.deps.pending_vts()  # the COMMIT is past: nothing waits for it
        session.settle()
        assert probe.values() == [0, 1, 2, 3]
        assert counter(watcher, "view.confirm_requests_sent") == asked + 1
        assert counter(watcher, "view.vouch_missed") == 0
        assert watcher.protocol_residue() == {}

    def test_delegating_origin_drops_what_it_vouched_itself(self):
        """The origin is primary for one of two objects it writes and
        delegates the commit to the other's primary, whose COMMIT cannot
        carry the origin's vouch: the watcher asks after all, and the
        origin's bookkeeping goes with the commit."""
        session = Session.simulated(latency_ms=10.0)
        sites = session.add_sites(3)
        xs = session.replicate(DInt, "x", sites, initial=0)  # primary: site 0
        ys = session.replicate(DInt, "y", sites[1:], initial=0)  # primary: site 1
        session.settle()
        probe = Probe(sites[2])
        ys[1].attach(probe, "pessimistic")
        blind_rounds(session, sites[1], ys[0], [1, 2])
        assert ys[0].watched and ys[1].vouch_expected

        def both():
            xs[1].set(5)
            ys[0].set(3)

        outcome = sites[1].transact(both)
        session.settle()
        assert outcome.committed and probe.values() == [0, 1, 2, 3]
        assert counter(sites[1], "txn.intervals_vouched") == 2  # the second write, and this one
        assert counter(sites[2], "view.vouch_missed") == 1
        for site in sites:
            assert site.engine.txns == {} and site.protocol_residue() == {}


class TestEveryPrimaryIsAsked:
    def test_a_local_verdict_waits_for_the_remote_primary(self):
        """A pessimistic view on two objects whose primaries sit on both
        sides of the viewing site: ``y``'s here (site 0), ``x``'s at site 1.
        ``x`` is written at site 2 and its delegated COMMIT overtakes the
        propagate, so the snapshot is decided on arrival and both guesses
        are checked at once.  The local verdict on ``y`` must not deliver it
        before ``x``'s primary has been asked and has answered."""

        def selector(graph):
            nodes = sorted(graph.nodes)
            if any(uid.endswith(":x") for uid in graph.uids()):
                return nodes[min(1, len(nodes) - 1)]
            return nodes[0]

        session = Session.simulated(latency_ms=T, primary_selector=selector)
        sites = session.add_sites(3)
        xs = session.replicate(DInt, "x", sites, initial=0)
        ys = session.replicate(DInt, "y", sites, initial=0)
        session.settle()
        assert (xs[0].primary_site(), ys[0].primary_site()) == (1, 0)
        probe = Probe(sites[0])
        sites[0].views.attach(probe, [xs[0], ys[0]], "pessimistic")
        session.settle()
        requests = confirm_requests(sites)
        session.network.set_link_latency(2, 0, FixedLatency(4 * T))
        t0 = session.scheduler.now
        sites[2].transact(lambda: xs[2].set(5))
        session.settle()
        when, _ts, values = probe.updates[-1]
        assert values == [5]
        assert [(at, [c.object_uid for c in msg.checks]) for at, msg in requests] == [
            (1, ["s1:x"])
        ]
        # The propagate lands at 4t; the CONFIRM-READ's round trip ends at 6t.
        assert when - t0 == pytest.approx(6 * T)
        for site in sites:
            assert site.protocol_residue() == {}
