"""Tests for the batched message plane and the redesigned Transport/Session API.

Covers: per-destination envelope coalescing on the one send path (metrics,
per-pair FIFO, digests and counters equal to the one-frame-per-message
plane's), Envelope accounting in the simulated network's stats, the
outbox's turn contract, the ``Transport.pending``/``quiesce`` drain
contract, and the class-keyed replicate registry.
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

#: What the commit-fanout workload produced when every message was its own
#: frame (e220fc5): the same state, counters and protocol messages now
#: travel in fewer frames.
FANOUT_DIGEST = {
    "s0:ctr": ((14, 3), "6"),
    "s0:ctr.assoc": (
        (8, 3),
        "(('ctr.rel', (('s0:ctr', 0), ('s1:ctr', 1), ('s2:ctr', 2), ('s3:ctr', 3))),)",
    ),
}
#: No join is denied as a stale join VT: an invitation carries the inviter's
#: clock (each of the three imports was retried once, 3 / 3 and 9 / 9 / 3
#: more join messages, before).
FANOUT_COUNTERS = {"commits": 14, "aborts_conflict": 0, "retries": 0}
FANOUT_MESSAGES = {
    "JoinRequestMsg": 6,
    "JoinReplyMsg": 6,
    "ConfirmMsg": 14,
    "CommitMsg": 30,
    "TxnPropagateMsg": 30,
}


def run_commit_fanout(n_sites: int = 4, txns: int = 6):
    """The standard commit-fanout workload: K increments from a non-primary
    origin against one fully replicated counter."""
    session = Session.simulated(latency_ms=20.0, seed=7)
    sites = session.add_sites(n_sites)
    objs = session.replicate(DInt, "ctr", sites, initial=0)
    session.settle()
    origin = sites[-1]
    obj = objs[-1]
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


@contextlib.contextmanager
def turn(site):
    """One protocol turn, opened and closed the way the site runtime does."""
    outbox = site.outbox
    outbox.depth += 1
    try:
        yield
    finally:
        outbox.depth -= 1
        if not outbox.depth and outbox.buffer:
            outbox.flush()


class TestBatching:
    def test_default_fanout_sends_fewer_frames_than_messages(self):
        _digests, wire, session = run_commit_fanout()
        assert wire["envelopes"] < wire["messages"]
        assert wire["batched"] > 0
        assert wire["messages"] == session.network.stats.messages_sent
        assert session.network.stats.envelopes_sent > 0

    def test_batching_reduces_envelopes_with_identical_digests(self):
        digests, wire, _session = run_commit_fanout()
        # Same protocol content crossed the wire...
        assert all(d == FANOUT_DIGEST for d in digests)
        # ...in 74 frames where one frame per message took 86.
        assert (wire["messages"], wire["envelopes"], wire["batched"]) == (86, 74, 21)

    def test_batching_preserves_commit_counters(self):
        _, _, session = run_commit_fanout()
        counters = session.counters()
        assert {key: counters[key] for key in FANOUT_COUNTERS} == FANOUT_COUNTERS
        assert session.network.stats.per_type_sent == FANOUT_MESSAGES

    def test_per_pair_fifo_holds(self):
        session = Session.simulated(latency_ms=20.0, seed=7)
        bus = session.observe()
        sites = session.add_sites(4)
        objs = session.replicate(DInt, "ctr", sites, initial=0)
        for i in range(6):
            sites[i % 4].transact(lambda i=i: objs[i % 4].set(objs[i % 4].get() + 1))
        session.settle()
        sent, delivered = {}, {}
        for event in bus.filter(kind="message_sent"):
            sent.setdefault((event.site, event.data["dst"]), []).append(event.data["msg_id"])
        for event in bus.filter(kind="message_delivered"):
            delivered.setdefault((event.data["src"], event.site), []).append(event.data["msg_id"])
        assert delivered == sent
        assert any(isinstance(e.data["payload"], Envelope) for e in bus.filter(kind="message_sent"))

    def test_network_stats_reconcile_with_envelopes(self):
        _, _, session = run_commit_fanout()
        stats = session.network.stats
        assert stats.reconcile()
        assert "Envelope" not in stats.per_type_sent  # inner types counted
        assert stats.per_type_sent.get("TxnPropagateMsg", 0) > 0

    def test_envelope_sent_event_emitted(self):
        session = Session.simulated(latency_ms=10.0, seed=5)
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
    def _pair(self):
        transport = MemoryTransport(auto_drain=False)
        session = Session(transport=transport)
        return transport, session.add_site("a"), session.add_site("b")

    def test_singleton_flush_sends_bare_payload(self):
        transport, a, b = self._pair()
        with turn(a):
            a.send(b.site_id, CommitMsg(VirtualTime(1, 0), 1))
        _tenant, src, dst, payload = transport._queue[-1]
        assert not isinstance(payload, Envelope)
        assert a.outbox.envelopes_sent == 1
        assert a.outbox.messages_batched == 0

    def test_multi_message_flush_wraps_in_envelope_in_fifo_order(self):
        transport, a, b = self._pair()
        msgs = [CommitMsg(VirtualTime(i, 0), i) for i in range(3)]
        with turn(a):
            for m in msgs:
                a.send(b.site_id, m)
        _tenant, src, dst, payload = transport._queue[-1]
        assert isinstance(payload, Envelope)
        assert list(payload.messages) == msgs
        assert a.outbox.envelopes_sent == 1
        assert a.outbox.messages_sent == 3

    def test_nested_turns_flush_once_at_outermost(self):
        transport, a, b = self._pair()
        with turn(a):
            with turn(a):
                a.send(b.site_id, CommitMsg(VirtualTime(1, 0), 1))
            assert transport.pending() == 0  # still buffered
            a.send(b.site_id, CommitMsg(VirtualTime(2, 0), 2))
        assert transport.pending() == 1  # one envelope frame

    def test_send_outside_a_turn_leaves_at_once(self):
        transport, a, b = self._pair()
        a.send(b.site_id, CommitMsg(VirtualTime(1, 0), 1))
        assert transport.pending() == 1
        assert a.outbox.buffer == ()
        assert (a.outbox.messages_sent, a.outbox.envelopes_sent) == (1, 1)


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
