"""Tests for client failure handling (paper section 3.4)."""

import pytest

from repro import Session
from repro.core.transaction import TxnState
from repro.sim.network import FixedLatency
from repro.sim.trace import MessageTrace
from repro import DInt


def triple(latency=20.0, **kwargs):
    session = Session.simulated(latency_ms=latency, **kwargs)
    sites = session.add_sites(3)
    objs = session.replicate(DInt, "x", sites, initial=0)
    session.settle()
    return session, sites, objs


class TestGraphRepair:
    def test_replica_site_failure_repairs_graphs(self):
        session, sites, objs = triple()
        s0, s1, s2 = sites
        # s2 (a plain replica; primary is s0) fails.
        session.network.fail_site(2)
        session.settle()
        assert 2 not in objs[0].graph().sites()
        assert 2 not in objs[1].graph().sites()
        # Updates continue among survivors.
        s1.transact(lambda: objs[1].set(5))
        session.settle()
        assert objs[0].get() == 5

    def test_primary_site_failure_uses_consensus(self):
        """The circularity case: the failed site was the primary, so the
        graph update cannot use the primary-based protocol."""
        session, sites, objs = triple()
        s0, s1, s2 = sites
        assert objs[1].primary_site() == 0
        session.network.fail_site(0)
        session.settle()
        # Survivors repaired the graph by consensus at a common VT.
        assert objs[1].graph().sites() == [1, 2]
        assert objs[2].graph().sites() == [1, 2]
        assert objs[1].graph_history().current().committed
        # A new primary is implied by the repaired graph.
        assert objs[1].primary_site() == 1
        total_repaired = sum(s.failures.graphs_repaired for s in (s1, s2))
        assert total_repaired >= 2

    def test_updates_work_after_primary_failover(self):
        session, sites, objs = triple()
        s0, s1, s2 = sites
        session.network.fail_site(0)
        session.settle()
        out = s2.transact(lambda: objs[2].set(77))
        session.settle()
        assert out.committed
        assert objs[1].get() == 77


class TestInflightResolution:
    @pytest.mark.parametrize("later_writes", [False, True], ids=["at-once", "past-the-bound"])
    def test_committed_inflight_transaction_is_committed_everywhere(self, later_writes):
        """If any survivor logged the COMMIT, all survivors commit.

        ``past-the-bound``: the survivors write on until s0's stability
        bound passes ``v``, which s0 committed and s2 still holds pending.
        Below the bound no new transaction can land, yet s0 must still
        report ``v`` committed to the repair: a site that forgot it there
        would let a repair that reaches s2 before the COMMIT abort what s0
        committed (a committed effect lost)."""
        session, sites, objs = triple(latency=20.0)
        s0, s1, s2 = sites
        if later_writes:
            ys = session.replicate(DInt, "y", sites, initial=0)
            session.settle()
        # s1 originates a txn; primary is s0 (delegate), which will commit
        # and broadcast.  Make the commit to s2 slow so at failure time s2
        # has the WRITE but not the COMMIT, while s1 has the COMMIT.
        session.network.set_link_latency(0, 2, FixedLatency(500.0))
        out = s1.transact(lambda: objs[1].set(9))
        session.run_for(60)  # commit reached s1 (via delegate) but not s2
        assert out.committed
        assert not objs[2].history.current().committed
        if later_writes:
            for i in (1, 2):
                sites[i].transact(lambda i=i: ys[i].set(i))
                session.run_for(60)
            # v = VT(13@1) is below s0's bound VT(14@-1); s0 has it
            # committed, s2 still pending.
            assert out.vt < s0.stability_bound([0, 1, 2])
            assert s0.engine.status.get(out.vt) is TxnState.COMMITTED
            assert out.vt in s2.engine.txns and out.vt not in s2.engine.status
        trace = MessageTrace(session.network)
        session.network.fail_site(1)  # the ORIGIN fails
        session.settle()
        # Resolution: s0 logged the commit, so s2 commits too.
        assert objs[2].history.current().committed
        assert objs[2].get() == 9
        assert s0.protocol_residue() == {} and s2.protocol_residue() == {}
        # s0 reported v committed: nothing had told it that s2 resolved v.
        resolutions = trace.filter(msg_type="FailResolutionMsg", src=0, dst=2)
        assert resolutions and all(out.vt in e.payload.commit_vts for e in resolutions)

    def test_unknown_inflight_transaction_is_aborted(self):
        """If no survivor saw a COMMIT, the failed origin's txn aborts."""
        session, sites, objs = triple(latency=20.0, delegation_enabled=False)
        s0, s1, s2 = sites
        # Slow down everything from s1's confirms so that the txn cannot
        # commit before the failure: block s0 -> s1 (confirm channel).
        session.network.set_link_latency(0, 1, FixedLatency(10_000.0))
        out = s1.transact(lambda: objs[1].set(9))
        session.run_for(100)  # writes delivered; confirm still in flight
        assert not out.committed
        assert objs[0].get() == 9  # applied optimistically at survivors
        session.network.fail_site(1)
        session.settle()
        # No survivor logged a commit: rolled back everywhere.
        assert objs[0].get() == 0
        assert objs[2].get() == 0

    def test_blocked_local_transaction_retries_after_repair(self):
        """A transaction waiting on a failed primary aborts and re-executes
        once the graph update commits and a new primary is implied."""
        session, sites, objs = triple(latency=20.0, delegation_enabled=False)
        s0, s1, s2 = sites
        # Block confirms from the primary s0 to origin s2, then fail s0.
        session.network.set_link_latency(0, 2, FixedLatency(10_000.0))
        out = s2.transact(lambda: objs[2].set(33))
        session.run_for(100)
        assert not out.committed
        session.network.fail_site(0)
        session.settle()
        assert out.committed  # re-executed under the new primary
        assert objs[1].get() == 33
        assert out.attempts >= 2


class TestFailureEdgeCases:
    def test_two_party_peer_failure(self):
        session = Session.simulated(latency_ms=20)
        alice, bob = session.add_sites(2)
        a, b = session.replicate(DInt, "x", [alice, bob], initial=0)
        session.settle()
        session.network.fail_site(1)
        session.settle()
        assert a.graph().is_singleton()
        out = alice.transact(lambda: a.set(5))
        session.settle()
        assert out.committed
        assert out.commit_latency_ms == 0.0  # local primary now

    def test_failure_of_uninvolved_site_is_harmless(self):
        session = Session.simulated(latency_ms=20)
        sites = session.add_sites(4)
        objs = session.replicate(DInt, "x", sites[:2], initial=0)
        session.settle()
        session.network.fail_site(3)  # not in any relationship
        session.settle()
        sites[0].transact(lambda: objs[0].set(1))
        session.settle()
        assert objs[1].get() == 1

    def test_sequential_failures(self):
        session = Session.simulated(latency_ms=20)
        sites = session.add_sites(4)
        objs = session.replicate(DInt, "x", sites, initial=0)
        session.settle()
        session.network.fail_site(0)
        session.settle()
        session.network.fail_site(1)
        session.settle()
        assert objs[2].graph().sites() == [2, 3]
        sites[3].transact(lambda: objs[3].set(8))
        session.settle()
        assert objs[2].get() == 8


class TestDeadPrimaryRepair:
    """The coordinator's resolution also orders the repair of every graph
    whose primary failed, whether or not the coordinator holds a replica."""

    @pytest.mark.parametrize(
        "n_sites,replicas,crashes,rounds",
        [
            (4, (0, 2, 3), (0,), (2, 2, 2)),
            (4, (1, 2, 3), (1,), (2, 2, 2)),
            # The crashed coordinator s1 asks nobody about s0 once it is
            # dead itself (10 queries while it still ran s1's round).
            (5, (0, 2, 3, 4), (0, 1), (7, 7, 4)),
        ],
        ids=["coordinator-1-holds-none", "coordinator-0-holds-none", "coordinator-crashes-mid-round"],
    )
    def test_partial_replication_failover(self, n_sites, replicas, crashes, rounds):
        session = Session.simulated(latency_ms=20.0)
        sites = session.add_sites(n_sites)
        objs = dict(zip(replicas, session.replicate(DInt, "x", [sites[i] for i in replicas])))
        session.settle()
        trace = MessageTrace(session.network)
        primary, *coordinator = crashes
        session.network.fail_site(primary)
        if coordinator:
            # The coordinator (no replica) has asked the survivors and
            # crashes before it can resolve; the next one re-runs the round.
            session.run_for(30)
            assert sites[coordinator[0]].failures.queries
            session.network.fail_site(coordinator[0])
        session.settle()
        assert trace.counts_by_type() == dict(
            zip(("FailQueryMsg", "FailQueryReplyMsg", "FailResolutionMsg"), rounds)
        )
        live = [i for i in replicas if i not in crashes]
        for i in live:
            assert objs[i].graph().sites() == live
        out = sites[live[-1]].transact(lambda: objs[live[-1]].set(7))
        session.settle()
        assert out.committed
        assert all(objs[i].get() == 7 for i in live)
        survivors = [s for s in sites if s.site_id not in crashes]
        assert all(s.protocol_residue() == {} for s in survivors)

    @pytest.mark.parametrize("n_sites,expected", [(3, 1), (5, 3)])
    def test_primary_failover_is_one_round(self, n_sites, expected):
        """One query, one reply and one resolution per non-coordinator
        survivor: 3 messages at 3 sites, 9 at 5."""
        session = Session.simulated(latency_ms=20.0)
        sites = session.add_sites(n_sites)
        objs = session.replicate(DInt, "x", sites)
        session.settle()
        trace = MessageTrace(session.network)
        session.network.fail_site(0)
        session.settle()
        assert trace.counts_by_type() == {
            "FailQueryMsg": expected, "FailQueryReplyMsg": expected, "FailResolutionMsg": expected,
        }
        assert all(obj.graph().sites() == list(range(1, n_sites)) for obj in objs[1:])

    def test_residue_names_a_retry_stranded_by_an_open_round(self):
        session, sites, objs = triple(latency=20.0, delegation_enabled=False)
        s0, s1, s2 = sites
        # s2's write waits for the primary s0's confirmation, which never
        # arrives; then s0 fails while the coordinator s1 cannot reach s2.
        session.network.set_link_latency(0, 2, FixedLatency(1_000_000.0))
        out = s2.transact(lambda: objs[2].set(33))
        session.run_for(100)
        session.network.set_link_latency(1, 2, FixedLatency(1_000_000.0))
        session.network.fail_site(0)
        session.run_for(2_000)
        assert not out.committed
        assert s2.protocol_residue() == {
            "deferred-retries": ["FailureManager.rerun_after_repair.<locals>.<lambda>"],
        }
        (round_,) = s1.protocol_residue()["open-failure-rounds"]
        assert "failed_site=0 awaiting=[2]" in round_
