"""Tests for message tracing and metric aggregation."""

import pytest

from repro import Session
from repro.bench.metrics import ConflictStats, DeviationTotals, LatencyStats
from repro.core.transaction import TransactionOutcome
from repro.sim.trace import MessageTrace
from repro import DInt


class TestMessageTrace:
    def _traced_pair(self):
        session = Session.simulated(latency_ms=20)
        trace = MessageTrace(session.network)
        alice, bob = session.add_sites(2)
        objs = session.replicate(DInt, "x", [alice, bob], initial=0)
        session.settle()
        trace.clear()  # drop setup traffic
        return session, trace, alice, bob, objs

    def test_records_sends(self):
        session, trace, alice, bob, objs = self._traced_pair()
        alice.transact(lambda: objs[0].set(1))
        session.settle()
        assert len(trace) >= 2
        types = trace.counts_by_type()
        assert "TxnPropagateMsg" in types
        assert "CommitMsg" in types

    def test_transaction_story(self):
        session, trace, alice, bob, objs = self._traced_pair()
        out = alice.transact(lambda: objs[0].set(1))
        session.settle()
        story = trace.transaction_story(out.vt)
        assert story
        assert all(entry.txn_vt == out.vt for entry in story)
        # Story is in send order: propagate precedes commit.
        assert story[0].msg_type == "TxnPropagateMsg"
        assert story[-1].msg_type == "CommitMsg"

    def test_counts_protocol_messages_not_frames(self):
        session = Session.simulated(latency_ms=20)
        trace = MessageTrace(session.network)
        sites = session.add_sites(3)
        objs = session.replicate(DInt, "x", sites, initial=0)
        sites[2].transact(lambda: objs[2].set(1))
        session.settle()
        assert session.network.stats.envelopes_sent > 0  # some frames carried several
        assert trace.counts_by_type() == session.network.stats.per_type_sent

    def test_filters(self):
        session, trace, alice, bob, objs = self._traced_pair()
        alice.transact(lambda: objs[0].set(1))
        bob.transact(lambda: objs[1].set(2))
        session.settle()
        from_alice = trace.filter(src=0)
        assert from_alice and all(e.src == 0 for e in from_alice)
        only_commits = trace.filter(msg_type="CommitMsg")
        assert only_commits and all(e.msg_type == "CommitMsg" for e in only_commits)

    def test_render(self):
        session, trace, alice, bob, objs = self._traced_pair()
        alice.transact(lambda: objs[0].set(1))
        session.settle()
        text = trace.render(limit=3)
        assert "->" in text and "ms" in text

    def test_uninstall_stops_recording(self):
        session, trace, alice, bob, objs = self._traced_pair()
        trace.uninstall()
        alice.transact(lambda: objs[0].set(1))
        session.settle()
        assert len(trace) == 0
        # ...and the protocol still works.
        assert objs[1].get() == 1

    def test_concurrent_traces_stack(self):
        """Two traces on one network record independently; uninstalling in
        any order leaves the survivor recording (the monkeypatch-stacking
        bug the bus-subscriber implementation fixed)."""
        session, first, alice, bob, objs = self._traced_pair()
        second = MessageTrace(session.network)
        alice.transact(lambda: objs[0].set(1))
        session.settle()
        assert len(first) > 0
        assert [e.msg_type for e in first.entries] == [e.msg_type for e in second.entries]

        # Uninstall the FIRST-installed trace first (the order the old
        # monkeypatch chain could not survive) — the second keeps working.
        first.uninstall()
        before = len(second)
        alice.transact(lambda: objs[0].set(2))
        session.settle()
        assert len(first.entries) and len(first) < len(second)
        assert len(second) > before
        second.uninstall()
        alice.transact(lambda: objs[0].set(3))
        session.settle()
        assert len(second) == len(second.entries)
        assert objs[1].get() == 3

    def test_uninstall_idempotent_and_bus_independent(self):
        session, trace, alice, bob, objs = self._traced_pair()
        trace.uninstall()
        trace.uninstall()  # double uninstall is a no-op
        # A trace must not disturb the bus's own recording lifecycle.
        bus = session.observe()
        alice.transact(lambda: objs[0].set(1))
        session.settle()
        assert len(trace) == 0
        assert bus.filter(kind="message_sent")


class TestLatencyStats:
    def _outcome(self, latency):
        out = TransactionOutcome(start_time_ms=0.0)
        out.commit_time_ms = latency
        out.committed = True
        return out

    def test_stats(self):
        outcomes = [self._outcome(v) for v in (10.0, 20.0, 30.0, 40.0)]
        stats = LatencyStats.from_outcomes(outcomes)
        assert stats.count == 4
        assert stats.mean == 25.0
        assert stats.minimum == 10.0 and stats.maximum == 40.0
        assert stats.p50 in (20.0, 30.0)

    def test_empty(self):
        assert LatencyStats.from_outcomes([]) is None
        assert LatencyStats.from_outcomes([TransactionOutcome()]) is None


class TestConflictStats:
    def test_rollback_rate(self):
        outs = []
        for attempts, committed in ((1, True), (3, True), (2, True)):
            o = TransactionOutcome()
            o.attempts = attempts
            o.committed = committed
            outs.append(o)
        stats = ConflictStats.from_outcomes(outs)
        assert stats.transactions == 3
        assert stats.attempts == 6
        assert stats.conflict_retries == 3
        assert stats.rollback_rate == 0.5

    def test_zero_division_guard(self):
        assert ConflictStats.from_outcomes([]).rollback_rate == 0.0


class TestDeviationTotals:
    def test_from_session(self):
        from repro import View

        class Null(View):
            def update(self, changed, snapshot):
                pass

        session = Session.simulated(latency_ms=20)
        alice, bob = session.add_sites(2)
        objs = session.replicate(DInt, "x", [alice, bob], initial=0)
        session.settle()
        objs[1].attach(Null(), "optimistic")
        alice.transact(lambda: objs[0].set(1))
        session.settle()
        totals = DeviationTotals.from_session(session)
        assert totals.notifications >= 2  # bootstrap + update
        rates = totals.rate_per_notification()
        assert set(rates) == {"lost_updates", "update_inconsistencies", "read_inconsistencies"}
