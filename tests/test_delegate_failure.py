"""Regression tests: failure of the commit DELEGATE (paper section 3.4).

With delegated commit, the single remote primary holds the commit
decision.  If it crashes, the originating site must NOT abort unilaterally
— the delegate may have broadcast COMMIT to some sites before dying.  The
origin polls the survivors ("determine if any of them received a commit
message"): commit everywhere if anyone logged it, abort-and-retry
otherwise.  Discovered by the randomized WAN soak test.
"""

import pytest

from repro import Session
from repro.sim.network import FixedLatency
from repro import DInt
from repro.core.transaction import TxnState


def build(latency=30.0):
    session = Session.simulated(latency_ms=latency)
    sites = session.add_sites(4)
    objs = session.replicate(DInt, "x", sites, initial=0)
    session.settle()
    # Primary (and hence delegate for remote origins) is site 0.
    assert objs[1].primary_site() == 0
    return session, sites, objs


class TestDelegateCommittedBeforeFailure:
    def test_commit_wins_if_any_survivor_logged_it(self):
        """The delegate commits and broadcasts, reaches some survivors, then
        an unrelated replica failure triggers the origin's failure handling
        while the origin's own COMMIT is still in flight."""
        session, sites, objs = build()
        # Slow the delegate->origin commit so the origin is still DELEGATED
        # when the failure notification lands.
        session.network.set_link_latency(0, 3, FixedLatency(500.0))
        out = sites[3].transact(lambda: objs[3].set(9))
        session.run_for(70)  # delegate (site 0) committed and broadcast
        assert sites[1].engine.status.get(out.vt) is TxnState.COMMITTED
        assert not out.committed  # origin hasn't heard yet
        # Now the DELEGATE fails before the origin's commit arrives.
        session.network.fail_site(0)
        session.settle()
        # Resolution: survivors 1/2 logged the commit -> committed.
        assert out.committed
        assert [objs[i].get() for i in (1, 2, 3)] == [9, 9, 9]
        assert all(
            sites[i].engine.status.get(out.vt) is TxnState.COMMITTED for i in (1, 2, 3)
        )

    def test_unrelated_replica_failure_does_not_abort_delegated_txn(self):
        """The soak-test race: a plain replica (not the delegate) fails
        while a delegated transaction is in flight; the transaction must
        commit exactly once, never abort-after-commit."""
        session, sites, objs = build()
        session.network.set_link_latency(0, 3, FixedLatency(120.0))
        out = sites[3].transact(lambda: objs[3].set(7))
        session.run_for(40)  # delegate has committed; commit msg in flight
        session.network.fail_site(2)  # unrelated replica
        session.settle()
        assert out.committed
        assert out.attempts == 1  # no spurious retry
        assert objs[1].get() == objs[3].get() == 7


class TestDelegateDiedBeforeDeciding:
    def test_abort_and_retry_when_no_commit_logged(self):
        """The delegate crashes before its decision reaches anyone: every
        survivor rolls back and the origin re-executes after graph repair."""
        session, sites, objs = build()
        # The delegate's outgoing links are dead: its decision (if any)
        # never leaves.
        for dst in (1, 2, 3):
            session.network.set_link_latency(0, dst, FixedLatency(1_000_000.0))
        out = sites[3].transact(lambda: objs[3].set(5))
        session.run_for(80)  # writes delivered; no commits anywhere
        assert not out.committed
        session.network.fail_site(0)
        session.settle()
        assert out.committed  # re-executed under the new primary
        assert out.attempts >= 2
        assert objs[1].get() == objs[2].get() == objs[3].get() == 5

    def test_retry_runs_when_the_poll_ends_after_repair(self):
        """The origin's poll of the survivors outlasts the coordinator's
        round: the graph is already repaired, and its retries already ran,
        when the poll decides to abort.  The re-run must still happen."""
        session, sites, objs = build()
        for dst in (1, 2, 3):
            session.network.set_link_latency(0, dst, FixedLatency(1_000_000.0))
        session.network.set_link_latency(2, 3, FixedLatency(300.0))  # s2's poll reply
        out = sites[3].transact(lambda: objs[3].set(5))
        session.run_for(80)
        session.network.fail_site(0)
        session.run_for(150)
        assert objs[3].graph().sites() == [1, 2, 3] and not out.committed
        session.settle()
        assert out.committed
        assert objs[1].get() == objs[2].get() == objs[3].get() == 5
        assert all(sites[i].protocol_residue() == {} for i in (1, 2, 3))

    def test_value_applied_exactly_once_after_retry(self):
        """The retried transaction must not double-apply on sites that had
        the aborted optimistic write."""
        session, sites, objs = build()
        for dst in (1, 2, 3):
            session.network.set_link_latency(0, dst, FixedLatency(1_000_000.0))
        out = sites[3].transact(lambda: objs[3].set(objs[3].get() + 10))
        session.run_for(80)
        session.network.fail_site(0)
        session.settle()
        assert out.committed
        assert [objs[i].get() for i in (1, 2, 3)] == [10, 10, 10]
