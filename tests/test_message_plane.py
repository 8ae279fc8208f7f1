"""Tests for the batched message plane and the redesigned Transport/Session API.

Covers: per-destination envelope coalescing (metrics, FIFO, convergence
digests identical with and without batching), Envelope accounting in the
simulated network's stats, the explicit ``session.batched()`` window, the
``Transport.pending``/``quiesce`` drain contract, and the class-keyed
replicate registry.
"""

import contextlib

import pytest

from repro import DInt, DList, Session
from repro.core.messages import CommitMsg, Envelope
from repro.core.scalars import DString
from repro.core.session import register_replicable
from repro.errors import ReproError
from repro.transport.memory import MemoryTransport
from repro.vtime import VirtualTime


def run_commit_fanout(batching: bool, n_sites: int = 4, txns: int = 6, burst: bool = False):
    """The standard commit-fanout workload: K increments from a non-primary
    origin against one fully replicated counter (``burst``: submitted inside
    one explicit ``session.batched()`` window)."""
    session = Session.simulated(latency_ms=20.0, seed=7, batching=batching)
    sites = session.add_sites(n_sites)
    objs = session.replicate(DInt, "ctr", sites, initial=0)
    session.settle()
    origin = sites[-1]
    obj = objs[-1]
    with session.batched() if burst else contextlib.nullcontext():
        for _ in range(txns):
            origin.transact(lambda: obj.set(obj.get() + 1))
    session.settle()
    digests = [s.state_digest() for s in sites]
    wire = {
        "messages": sum(s.outbox.messages_sent for s in sites),
        "envelopes": sum(s.outbox.envelopes_sent for s in sites),
        "batched": sum(s.outbox.messages_batched for s in sites),
    }
    return digests, wire, session


class TestBatching:
    def test_disabled_is_default_and_counts_frames_one_to_one(self):
        digests, wire, session = run_commit_fanout(batching=False)
        assert wire["messages"] == wire["envelopes"]
        assert wire["batched"] == 0
        assert session.network.stats.envelopes_sent == 0

    def test_batching_reduces_envelopes_with_identical_digests(self):
        digests_off, wire_off, _ = run_commit_fanout(batching=False)
        digests_on, wire_on, session = run_commit_fanout(batching=True)
        # Same protocol content crossed the wire...
        assert digests_on == digests_off
        assert all(d == digests_on[0] for d in digests_on)
        # ...in strictly fewer frames (acceptance floor is 3x on the bench
        # workload; here we only require a real reduction).
        assert wire_on["envelopes"] < wire_off["envelopes"]
        assert wire_on["batched"] > 0
        assert session.network.stats.envelopes_sent > 0

    def test_burst_window_cuts_envelopes_at_least_3x(self):
        # The message-plane contract on the commit-fanout workload: a burst
        # window changes framing only (same messages, same digests) and
        # cuts the frames on the wire at least threefold.
        digests_off, wire_off, _ = run_commit_fanout(batching=False, txns=60)
        digests_on, wire_on, _ = run_commit_fanout(batching=True, txns=60, burst=True)
        assert digests_on == digests_off
        assert wire_on["messages"] == wire_off["messages"]
        assert wire_on["batched"] > 0
        assert wire_off["envelopes"] >= 3 * wire_on["envelopes"]

    def test_batching_preserves_commit_counters(self):
        _, _, off = run_commit_fanout(batching=False)
        _, _, on = run_commit_fanout(batching=True)
        assert on.counters()["commits"] == off.counters()["commits"]

    def test_network_stats_reconcile_with_envelopes(self):
        _, _, session = run_commit_fanout(batching=True)
        stats = session.network.stats
        assert stats.reconcile()
        assert "Envelope" not in stats.per_type_sent  # inner types counted
        assert stats.per_type_sent.get("TxnPropagateMsg", 0) > 0

    def test_explicit_batched_window_without_session_flag(self):
        session = Session.simulated(latency_ms=10.0, seed=3, batching=False)
        sites = session.add_sites(3)
        objs = session.replicate(DInt, "x", sites, initial=0)
        session.settle()
        baseline = sum(s.outbox.messages_batched for s in sites)
        with session.batched():
            for k in range(4):
                sites[0].transact(lambda k=k: objs[0].set(k))
        session.settle()
        assert sum(s.outbox.messages_batched for s in sites) > baseline
        assert all(o.get() == 3 for o in objs)

    def test_envelope_sent_event_emitted(self):
        session = Session.simulated(latency_ms=10.0, seed=5, batching=True)
        bus = session.observe()
        events = []
        bus.subscribe(lambda e: events.append(e) if e.kind == "envelope_sent" else None)
        sites = session.add_sites(3)
        objs = session.replicate(DInt, "x", sites, initial=0)
        sites[0].transact(lambda: objs[0].set(9))
        session.settle()
        assert events, "batched fan-out should emit envelope_sent"
        assert all(e.data["count"] >= 2 for e in events)

    def test_envelope_dataclass(self):
        env = Envelope((CommitMsg(VirtualTime(1, 0), 1),))
        assert len(env) == 1


class TestOutbox:
    def test_singleton_flush_sends_bare_payload(self):
        transport = MemoryTransport(auto_drain=False)
        session = Session(transport=transport, batching=True)
        a = session.add_site("a")
        b = session.add_site("b")
        with a.outbox.turn():
            a.send(b.site_id, CommitMsg(VirtualTime(1, 0), 1))
        _tenant, src, dst, payload = transport._queue[-1]
        assert not isinstance(payload, Envelope)
        assert a.outbox.envelopes_sent == 1
        assert a.outbox.messages_batched == 0

    def test_multi_message_flush_wraps_in_envelope_in_fifo_order(self):
        transport = MemoryTransport(auto_drain=False)
        session = Session(transport=transport, batching=True)
        a = session.add_site("a")
        b = session.add_site("b")
        msgs = [CommitMsg(VirtualTime(i, 0), i) for i in range(3)]
        with a.outbox.turn():
            for m in msgs:
                a.send(b.site_id, m)
        _tenant, src, dst, payload = transport._queue[-1]
        assert isinstance(payload, Envelope)
        assert list(payload.messages) == msgs
        assert a.outbox.envelopes_sent == 1
        assert a.outbox.messages_sent == 3

    def test_nested_turns_flush_once_at_outermost(self):
        transport = MemoryTransport(auto_drain=False)
        session = Session(transport=transport, batching=True)
        a = session.add_site("a")
        b = session.add_site("b")
        with a.outbox.turn():
            with a.outbox.turn():
                a.send(b.site_id, CommitMsg(VirtualTime(1, 0), 1))
            assert transport.pending() == 0  # still buffered
            a.send(b.site_id, CommitMsg(VirtualTime(2, 0), 2))
        assert transport.pending() == 1  # one envelope frame

    def test_end_turn_without_begin_raises(self):
        session = Session(transport=MemoryTransport())
        a = session.add_site("a")
        with pytest.raises(RuntimeError):
            a.outbox.end_turn()


class TestTransportContract:
    def test_memory_pending_and_quiesce(self):
        transport = MemoryTransport(auto_drain=False)
        inbox = []
        transport.register(0, lambda src, p: None)
        transport.register(1, lambda src, p: inbox.append(p))
        transport.send(0, 1, "x")
        transport.send(0, 1, "y")
        assert transport.pending() == 2
        assert transport.quiesce() == 2
        assert transport.pending() == 0
        assert inbox == ["x", "y"]

    def test_sim_pending_and_quiesce(self):
        session = Session.simulated(latency_ms=10.0, seed=1)
        sites = session.add_sites(2)
        objs = session.replicate(DInt, "x", sites, initial=0)
        session.settle()
        sites[0].transact(lambda: objs[0].set(1))
        assert session.transport.pending() > 0
        delivered = session.transport.quiesce()
        assert delivered > 0
        assert session.transport.pending() == 0

    def test_session_settle_uses_transport_quiesce(self):
        class Recording(MemoryTransport):
            def __init__(self):
                super().__init__()
                self.quiesce_calls = 0

            def quiesce(self, max_events=None):
                self.quiesce_calls += 1
                return super().quiesce(max_events)

        transport = Recording()
        session = Session(transport=transport)
        session.add_site("a")
        session.settle()
        assert transport.quiesce_calls == 1


class TestReplicateRegistry:
    def test_class_keyed_replicate(self):
        session = Session.simulated(latency_ms=10.0, seed=2)
        sites = session.add_sites(2)
        objs = session.replicate(DList, "doc", sites)
        session.settle()
        assert all(type(o) is DList for o in objs)

    def test_string_kind_is_an_unregistered_kind(self):
        # The historical "int"/"list"/... spellings are gone: a string is
        # refused exactly like any other unregistered kind.
        session = Session.simulated()
        site = session.add_site("a")
        with pytest.raises(ReproError) as by_name:
            session.replicate("int", "x", [site])
        with pytest.raises(ReproError) as by_type:
            session.replicate(int, "x", [site])
        assert str(by_name.value).replace("'int'", "<class 'int'>") == str(by_type.value)

    def test_unknown_kinds_raise(self):
        session = Session.simulated()
        site = session.add_site("a")
        for kind in ("blob", dict):
            with pytest.raises(ReproError, match="register_replicable"):
                session.replicate(kind, "x", [site])

    def test_register_replicable_extension(self):
        class DTag(DString):
            pass

        register_replicable(
            DTag, lambda s, name, initial: DTag(s, name, initial or "")
        )
        session = Session.simulated(latency_ms=10.0, seed=6)
        sites = session.add_sites(2)
        objs = session.replicate(DTag, "tag", sites, initial="hello")
        session.settle()
        assert all(type(o) is DTag for o in objs)
        assert objs[1].get() == "hello"


class TestSessionRoster:
    def test_explicit_site_ids_and_base_roster(self):
        session = Session(transport=MemoryTransport(), roster=[0, 1, 2, 3])
        a = session.add_site("a", site_id=2)
        b = session.add_site("b", site_id=3)
        assert a.site_id == 2 and b.site_id == 3
        assert a.roster == {0, 1, 2, 3}
        assert b.roster == {0, 1, 2, 3}

    def test_duplicate_site_id_rejected(self):
        session = Session(transport=MemoryTransport())
        session.add_site("a", site_id=5)
        with pytest.raises(ReproError, match="already exists"):
            session.add_site("b", site_id=5)
