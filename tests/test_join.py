"""Tests for dynamic collaboration establishment (paper sections 2.6 / 3.3)."""

import pytest

from repro import Session
from repro.errors import NotAuthorized
from repro import DInt


class TestInvitationFlow:
    """The full section 2.6 establishment sequence, step by step."""

    def test_manual_establishment(self):
        session = Session.simulated(latency_ms=20)
        alice, bob = session.add_sites(2, prefix="user")

        # A creates the object and a relationship, joins it, publishes an
        # invitation.
        balance_a = alice.create_int("balance", 100)
        assoc_a = alice.create_association("fin")
        alice.transact(lambda: assoc_a.create_relationship("balance-rel"))
        session.settle()
        alice.join(assoc_a, "balance-rel", balance_a)
        session.settle()
        invitation = assoc_a.make_invitation(note="insurance collaboration")
        assert invitation.inviter_site == alice.site_id

        # B imports the invitation and joins its own object.
        assoc_b = bob.import_invitation(invitation, "fin")
        session.settle()
        # The association value replicated: B discovers the relationship.
        assert assoc_b.relationships() == ["balance-rel"]
        balance_b = bob.create_int("balance", 0)
        outcome = bob.join(assoc_b, "balance-rel", balance_b)
        session.settle()
        assert outcome.committed
        # B adopted A's value.
        assert balance_b.get() == 100
        # Membership is visible on both sides.
        members_a = {uid for uid, _ in assoc_a.members("balance-rel")}
        members_b = {uid for uid, _ in assoc_b.members("balance-rel")}
        assert members_a == members_b == {balance_a.uid, balance_b.uid}

    def test_updates_flow_after_join(self):
        session = Session.simulated(latency_ms=20)
        alice, bob = session.add_sites(2)
        a, b = session.replicate(DInt, "x", [alice, bob], initial=1)
        bob.transact(lambda: b.set(5))
        session.settle()
        assert a.get() == 5

    def test_join_nonexistent_relationship_aborts(self):
        session = Session.simulated(latency_ms=20)
        alice = session.add_site()
        obj = alice.create_int("x")
        assoc = alice.create_association("assoc")
        outcome = alice.join(assoc, "no-such-rel", obj)
        session.settle()
        assert outcome.aborted_no_retry

    def test_three_party_chain(self):
        """Replica relations are transitive: C joins via the same relationship
        and sees values from A."""
        session = Session.simulated(latency_ms=20)
        sites = session.add_sites(3)
        objs = session.replicate(DInt, "x", sites, initial=7)
        assert [o.get() for o in objs] == [7, 7, 7]
        sites[2].transact(lambda: objs[2].set(9))
        session.settle()
        assert [o.get() for o in objs] == [9, 9, 9]

    def test_late_joiner_adopts_current_state(self):
        session = Session.simulated(latency_ms=20)
        alice, bob, carol = session.add_sites(3)
        a, b = session.replicate(DInt, "x", [alice, bob], initial=0)
        alice.transact(lambda: a.set(41))
        session.settle()
        # Carol joins after activity.
        assoc_a = alice.objects["s0:x.assoc"]
        invitation = assoc_a.make_invitation()
        assoc_c = carol.import_invitation(invitation, "x.assoc")
        session.settle()
        c = carol.create_int("x", 0)
        carol.join(assoc_c, "x.rel", c)
        session.settle()
        assert c.get() == 41
        # And the newcomer can write.
        carol.transact(lambda: c.set(42))
        session.settle()
        assert [a.get(), b.get(), c.get()] == [42, 42, 42]

    def test_join_composite_with_state(self):
        """A late joiner of a list relationship receives the slots with their
        original identities, so subsequent child updates resolve."""
        session = Session.simulated(latency_ms=20)
        alice, bob = session.add_sites(2)
        la = alice.create_list("doc")
        assoc = alice.create_association("doc.assoc")
        alice.transact(lambda: assoc.create_relationship("doc.rel"))
        session.settle()
        alice.join(assoc, "doc.rel", la)
        session.settle()
        alice.transact(lambda: [la.append("string", w) for w in ("hello", "world")])
        session.settle()
        # Bob joins late.
        assoc_b = bob.import_invitation(assoc.make_invitation(), "doc.assoc")
        session.settle()
        lb = bob.create_list("doc")
        bob.join(assoc_b, "doc.rel", lb)
        session.settle()
        assert lb.value_at(lb.current_value_vt()) == ["hello", "world"]
        # Child updates initiated at alice resolve at bob via the imported
        # slot identities.
        def edit():
            la.child_at(1).set("decaf")

        alice.transact(edit)
        session.settle()
        assert lb.value_at(lb.current_value_vt()) == ["hello", "decaf"]
        # And bob can edit too.
        bob.transact(lambda: lb.child_at(0).set("hi"))
        session.settle()
        assert la.value_at(la.current_value_vt()) == ["hi", "decaf"]


class TestLeave:
    def test_leave_stops_propagation(self):
        session = Session.simulated(latency_ms=20)
        alice, bob = session.add_sites(2)
        a, b = session.replicate(DInt, "x", [alice, bob], initial=0)
        assoc_b = bob.objects["s1:x.assoc"]
        outcome = bob.leave(assoc_b, "x.rel", b)
        session.settle()
        assert outcome.committed
        alice.transact(lambda: a.set(99))
        session.settle()
        assert a.get() == 99
        assert b.get() == 0  # no longer mirrored

    def test_leaver_can_write_independently(self):
        session = Session.simulated(latency_ms=20)
        alice, bob = session.add_sites(2)
        a, b = session.replicate(DInt, "x", [alice, bob], initial=0)
        assoc_b = bob.objects["s1:x.assoc"]
        bob.leave(assoc_b, "x.rel", b)
        session.settle()
        bob.transact(lambda: b.set(123))
        session.settle()
        assert b.get() == 123
        assert a.get() == 0

    def test_membership_updated_after_leave(self):
        session = Session.simulated(latency_ms=20)
        alice, bob = session.add_sites(2)
        a, b = session.replicate(DInt, "x", [alice, bob], initial=0)
        assoc_a = alice.objects["s0:x.assoc"]
        assoc_b = bob.objects["s1:x.assoc"]
        bob.leave(assoc_b, "x.rel", b)
        session.settle()
        members = {uid for uid, _ in assoc_a.members("x.rel")}
        assert members == {a.uid}


class TestConcurrentJoins:
    def test_two_simultaneous_joiners_serialize(self):
        """Concurrent joins to the same relationship conflict at the graph
        primary; retries serialize them and all three replicas converge."""
        session = Session.simulated(latency_ms=20)
        alice, bob, carol = session.add_sites(3)
        a_obj = alice.create_int("x", 5)
        assoc = alice.create_association("x.assoc")
        alice.transact(lambda: assoc.create_relationship("x.rel"))
        session.settle()
        alice.join(assoc, "x.rel", a_obj)
        session.settle()
        invitation = assoc.make_invitation()
        assoc_b = bob.import_invitation(invitation, "x.assoc")
        assoc_c = carol.import_invitation(invitation, "x.assoc")
        session.settle()
        b_obj = bob.create_int("x", 0)
        c_obj = carol.create_int("x", 0)
        out_b = bob.join(assoc_b, "x.rel", b_obj)
        out_c = carol.join(assoc_c, "x.rel", c_obj)  # concurrent!
        session.settle()
        assert out_b.committed and out_c.committed
        assert b_obj.get() == 5 and c_obj.get() == 5
        # All three graphs agree.
        assert a_obj.graph().sites() == b_obj.graph().sites() == c_obj.graph().sites()
        assert len(a_obj.graph()) == 3
        # Updates reach everyone.
        carol.transact(lambda: c_obj.set(6))
        session.settle()
        assert [a_obj.get(), b_obj.get(), c_obj.get()] == [6, 6, 6]


class TestEmbeddedJoin:
    def test_embedded_object_switches_to_direct_propagation(self):
        """The Fig. 7 case: a node embedded in a composite joins its own
        collaboration; it gets its own replication graph."""
        session = Session.simulated(latency_ms=20)
        alice, bob = session.add_sites(2)
        doc = alice.create_list("doc")
        holder = []
        alice.transact(lambda: holder.append(doc.append("int", 10)))
        session.settle()
        cell = holder[0]
        assert not cell.has_own_graph()

        # The embedded cell joins a collaboration with bob's standalone obj.
        assoc = alice.create_association("cell.assoc")
        alice.transact(lambda: assoc.create_relationship("cell.rel"))
        session.settle()
        alice.join(assoc, "cell.rel", cell)
        session.settle()
        assert cell.has_own_graph()

        assoc_b = bob.import_invitation(assoc.make_invitation(), "cell.assoc")
        session.settle()
        b_obj = bob.create_int("cell", 0)
        outcome = bob.join(assoc_b, "cell.rel", b_obj)
        session.settle()
        assert outcome.committed
        assert b_obj.get() == 10

        # Updates to the embedded cell now propagate directly to bob's
        # standalone object (which is NOT part of doc's tree).
        alice.transact(lambda: cell.set(11))
        session.settle()
        assert b_obj.get() == 11
        # And the reverse direction updates the cell inside the doc.
        bob.transact(lambda: b_obj.set(12))
        session.settle()
        assert doc.value_at(doc.current_value_vt()) == [12]


class TestJoinAuthorization:
    def test_join_denied_by_monitor(self):
        from repro.core.auth import PredicateMonitor

        session = Session.simulated(latency_ms=20)
        alice, bob = session.add_sites(2)
        a_obj = alice.create_int("x", 5)
        assoc = alice.create_association("x.assoc")
        alice.transact(lambda: assoc.create_relationship("x.rel"))
        session.settle()
        alice.join(assoc, "x.rel", a_obj)
        session.settle()
        a_obj.set_authorization(PredicateMonitor(join=lambda principal, obj: False))
        assoc_b = bob.import_invitation(assoc.make_invitation(), "x.assoc")
        session.settle()
        b_obj = bob.create_int("x", 0)
        outcome = bob.join(assoc_b, "x.rel", b_obj)
        session.settle()
        assert not outcome.committed
        assert b_obj.get() == 0
        assert b_obj.graph().is_singleton()


class TestInvitationClock:
    """An invitation carries the inviter's Lamport clock (section 3.3: a
    message carries its sender's clock), so the join VT drawn after
    importing it is already later than the member's state."""

    def test_replicate_joins_every_site_on_its_first_attempt(self):
        session = Session.simulated(latency_ms=20)
        sites = session.add_sites(8)
        for i in range(8):
            session.replicate(DInt, f"obj{i}", sites)
        counters = session.counters()
        assert counters["retries"] == counters["aborts_conflict"] == 0
        # 1,568 messages and 9,240 simulated ms when every import was denied
        # once as a stale join VT and retried.
        assert session.network.stats.messages_sent == 1400
        assert session.network.scheduler().now == 6720.0
        assert all(not site.protocol_residue() for site in sites)

    def test_a_token_older_than_the_member_state_is_denied_once(self):
        session = Session.simulated(latency_ms=20)
        bus = session.observe()
        alice, bob = session.add_sites(2)
        a_obj = alice.create_int("x", 5)
        assoc = alice.create_association("x.assoc")
        alice.transact(lambda: assoc.create_relationship("x.rel"))
        session.settle()
        alice.join(assoc, "x.rel", a_obj)
        session.settle()
        invitation = assoc.make_invitation()
        assert invitation.clock == alice.clock.counter > 0
        # Two commits, not one: the join VT is the token's clock plus one,
        # which ties one later commit's counter and wins on the site id.
        for rel_id in ("y.rel", "z.rel"):
            alice.transact(lambda rel_id=rel_id: assoc.create_relationship(rel_id))
            session.settle()
        assoc_b = bob.import_invitation(invitation, "x.assoc")
        session.settle()
        aborts = bus.filter(kind="aborted", site=bob.site_id)
        assert len(aborts) == 1 and "stale join VT" in aborts[0].data["reason"]
        assert bob.counters()["retries"] == 1
        assert assoc_b.relationships() == ["x.rel", "y.rel", "z.rel"]
        b_obj = bob.create_int("x", 0)
        outcome = bob.join(assoc_b, "x.rel", b_obj)
        session.settle()
        assert outcome.committed and b_obj.get() == 5
        assert bob.counters()["retries"] == 1
        assert not alice.protocol_residue() and not bob.protocol_residue()
