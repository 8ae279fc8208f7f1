"""Miscellaneous transaction-engine behaviours: counters, record GC,
read-only transactions, and late-message handling."""

import pytest

from repro import Session
from repro.core.messages import AbortMsg, CommitMsg, ConfirmMsg
from repro.sim.network import FixedLatency
from repro.vtime import VirtualTime
from repro import DInt
from repro.core.transaction import TxnState


def pair(latency=30.0, **kwargs):
    session = Session.simulated(latency_ms=latency, **kwargs)
    alice, bob = session.add_sites(2)
    objs = session.replicate(DInt, "x", [alice, bob], initial=0)
    session.settle()
    return session, alice, bob, objs


class TestReadOnlyTransactions:
    def test_read_only_txn_commits(self):
        session, alice, bob, objs = pair()
        seen = []
        out = bob.transact(lambda: seen.append(objs[1].get()))
        session.settle()
        assert out.committed
        assert seen == [0]

    def test_remote_read_only_requires_primary_confirm(self):
        """A read-only transaction at a non-primary site still sends a
        CONFIRM-READ and waits for the confirmation (paper section 3.1)."""
        session, alice, bob, objs = pair(latency=50.0, delegation_enabled=False)
        out = bob.transact(lambda: objs[1].get())
        assert not out.committed  # needs the round trip
        session.settle()
        assert out.committed
        assert out.commit_latency_ms == 100.0

    def test_stale_read_only_txn_aborts_and_retries(self):
        session, alice, bob, objs = pair(latency=50.0)
        alice.transact(lambda: objs[0].set(5))  # in flight toward bob
        out = bob.transact(lambda: objs[1].get())  # reads stale 0
        session.settle()
        assert out.committed  # retried against the fresh value


class TestRecordHygiene:
    def test_committed_records_are_collected(self):
        session, alice, bob, objs = pair()
        for i in range(5):
            alice.transact(lambda v=i: objs[0].set(v))
            session.settle()
        assert not alice.engine.txns  # all finalized and dropped

    def test_applied_log_dropped_after_commit(self):
        session, alice, bob, objs = pair()
        out = alice.transact(lambda: objs[0].set(1))
        session.settle()
        assert out.vt not in alice.engine.txns
        assert out.vt not in bob.engine.txns

    def test_counters_shape(self):
        session, alice, bob, objs = pair()
        alice.transact(lambda: objs[0].set(1))
        session.settle()
        counters = alice.counters()
        for key in ("commits", "aborts_conflict", "aborts_user", "retries"):
            assert key in counters
        assert counters["commits"] >= 1


class TestLateMessages:
    def test_unknown_confirm_is_ignored(self):
        session, alice, bob, objs = pair()
        ghost = VirtualTime(999, 1)
        alice.dispatch(1, ConfirmMsg(txn_vt=ghost, ok=True, clock=1000))
        session.settle()  # no crash, no effect
        assert alice.engine.status.get(ghost) is None

    def test_duplicate_commit_is_idempotent(self):
        session, alice, bob, objs = pair()
        out = alice.transact(lambda: objs[0].set(3))
        session.settle()
        commits_before = bob.engine.commits
        bob.dispatch(0, CommitMsg(txn_vt=out.vt, clock=2000))
        assert bob.engine.status[out.vt] is TxnState.COMMITTED
        assert bob.engine.commits == commits_before  # no double count

    def test_abort_for_unknown_txn_recorded(self):
        """An ABORT arriving before its WRITE: the site remembers the fact
        so the late WRITE is ignored (paper section 3.1)."""
        session, alice, bob, objs = pair()
        ghost = VirtualTime(500, 0)
        bob.dispatch(0, AbortMsg(txn_vt=ghost, clock=600, reason="test"))
        assert bob.engine.status[ghost] is TxnState.ABORTED
        # Craft the late WRITE and deliver it: must be ignored.
        from repro.core.messages import OpPayload, TxnPropagateMsg, WriteOp

        write = WriteOp(
            object_uid=objs[1].uid,
            op=OpPayload(kind="set", args=(777,)),
            read_vt=ghost,
            graph_vt=objs[1].graph_vt(),
        )
        bob.dispatch(
            0,
            TxnPropagateMsg(
                txn_vt=ghost, origin=0, writes=(write,), read_checks=(), clock=601
            ),
        )
        assert objs[1].get() == 0  # ignored


class TestDispatchErrors:
    def test_unroutable_payload_raises(self):
        from repro.errors import ProtocolError

        session, alice, bob, objs = pair()
        with pytest.raises(ProtocolError):
            alice.dispatch(1, object())


class TestBackoffConfig:
    def test_backoff_grows_quadratically(self):
        session, alice, bob, objs = pair()
        engine = alice.engine
        assert engine.retry_backoff_ms > 0
        # delay = min(b * n^2, b * 200)
        delays = [
            min(engine.retry_backoff_ms * n * n, engine.retry_backoff_ms * 200)
            for n in (1, 2, 5, 30)
        ]
        assert delays[0] < delays[1] < delays[2]
        assert delays[3] == engine.retry_backoff_ms * 200  # capped
