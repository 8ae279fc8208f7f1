"""Tests for the persistence store and recovery (paper §5.3 roadmap)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session
from repro import DInt, DList, DMap
from repro.core.messages import SlotId
from repro.persist import CheckpointError, checkpoint_site, restore_site
from repro.persist.store import FORMAT_VERSION
from repro.vtime import VirtualTime
from repro.wire import decode, encode


def value(obj):
    return obj.value_at(obj.current_value_vt())


def make_populated_site():
    session = Session.simulated(latency_ms=10)
    site = session.add_site("app")

    site.create_int("count", 0)
    site.create_string("title", "")
    doc = site.create_list("doc")
    board = site.create_map("board")

    def fill():
        site.objects["s0:count"].set(42)
        site.objects["s0:title"].set("hello")
        doc.append("string", "a")
        inner = doc.append("list", [("int", 1), ("int", 2)])
        board.put("k1", "float", 1.5)
        board.put("k2", "map", {"nested": ("string", "deep")})

    site.transact(fill)
    session.settle()
    return session, site


def fresh_site(name="app"):
    return Session.simulated(latency_ms=10).add_site(name)


#: ``checkpoint_site(make_populated_site())``: the format is the codec's, so
#: a change here is a change of the wire format or of the sync export.
GOLDEN_POPULATED = bytes.fromhex(
    "01070303040302070407020505636f756e7407020503696e74070107030b0200035401070205"
    "057469746c6507020506737472696e67070107030b0200050568656c6c6f0107020503646f63"
    "070305046c697374070107030b0200050e696e7365727440565428314030290107020704200b"
    "0200030001070007020506737472696e67070107030b0200050161010704200b020003020107"
    "00070305046c697374070107030b0200050e696e736572744056542831403029010702070420"
    "0b0200030101070007020503696e74070107030b02000302010704200b020003030107000702"
    "0503696e74070107030b020003040107020505626f617264070305036d6170070107030b0200"
    "050b7075744056542831403029010702070205026b31070107030b02000107020505666c6f61"
    "74070107030b0200043ff800000000000001070205026b32070107030b020001070305036d61"
    "70070107030b0200050b7075744056542831403029010701070205066e657374656407010703"
    "0b02000107020506737472696e67070107030b020005046465657001"
)


class TestCheckpoint:
    def test_checkpoint_structure(self):
        _, site = make_populated_site()
        restored = restore_site(fresh_site(), checkpoint_site(site))
        assert set(restored) == {"count", "title", "doc", "board"}
        assert restored["count"].get() == 42
        assert all(obj.parent is None for obj in restored.values())

    def test_checkpoint_bytes_are_golden_and_canonical(self):
        _, site = make_populated_site()
        data = checkpoint_site(site)
        assert data == GOLDEN_POPULATED
        assert len(data) < 1048  # the JSON document it replaced
        fresh = fresh_site()
        restore_site(fresh, data)
        assert checkpoint_site(fresh) == data
        assert encode(decode(data)) == data

    def test_uncommitted_state_excluded(self):
        # Disable delegation so alice (the primary) does not commit at t.
        session = Session.simulated(latency_ms=50, delegation_enabled=False)
        alice, bob = session.add_sites(2)
        objs = session.replicate(DInt, "x", [alice, bob], initial=1)
        session.settle()
        bob.transact(lambda: objs[1].set(99))  # uncommitted at alice for 3t
        session.run_for(60)  # applied at alice, commit not yet arrived
        assert objs[0].get() == 99  # the optimistic value is there...
        restored = restore_site(fresh_site(), checkpoint_site(alice))
        assert restored["x"].get() == 1  # ...and committed state only is kept
        session.settle()
        restored = restore_site(fresh_site(), checkpoint_site(alice))
        assert restored["x"].get() == 99

    def test_uncommitted_structure_excluded(self):
        session = Session.simulated(latency_ms=50, delegation_enabled=False)
        alice, bob = session.add_sites(2)
        lists = session.replicate(DList, "doc", [alice, bob])
        maps = session.replicate(DMap, "board", [alice, bob])

        def committed():
            lists[1].append("string", "kept")
            lists[1].append("string", "doomed")
            maps[1].put("k", "int", 1)

        def optimistic():
            lists[1].append("string", "new")
            lists[1].remove(1)
            maps[1].put("k", "int", 2)
            maps[1].put("fresh", "int", 3)

        bob.transact(committed)
        session.settle()
        bob.transact(optimistic)
        session.run_for(60)  # applied at alice, commit not yet arrived
        assert value(lists[0]) == ["kept", "new"]
        restored = restore_site(fresh_site(), checkpoint_site(alice))
        assert value(restored["doc"]) == ["kept", "doomed"]
        assert value(restored["board"]) == {"k": 1}
        for live in (lists[0], maps[0]):  # exactly the pessimistic reader's state
            committed_now = live.value_at(live.current_value_vt(), committed_only=True)
            assert value(restored[live.name]) == committed_now
        session.settle()
        restored = restore_site(fresh_site(), checkpoint_site(alice))
        assert value(restored["doc"]) == ["kept", "new"]
        assert value(restored["board"]) == {"k": 2, "fresh": 3}


class TestRestore:
    def test_roundtrip_values(self):
        _, site = make_populated_site()
        restored = restore_site(fresh_site(), checkpoint_site(site))
        assert restored["count"].get() == 42
        assert restored["title"].get() == "hello"
        assert value(restored["doc"]) == ["a", [1, 2]]
        assert value(restored["board"]) == {"k1": 1.5, "k2": {"nested": "deep"}}

    def test_restored_objects_are_usable(self):
        _, site = make_populated_site()
        fresh_session = Session.simulated(latency_ms=10)
        fresh = fresh_session.add_site("app")
        restored = restore_site(fresh, checkpoint_site(site))
        out = fresh.transact(lambda: restored["count"].set(43))
        fresh_session.settle()
        assert out.committed
        assert restored["count"].get() == 43

    def test_clock_advances_past_checkpoint(self):
        _, site = make_populated_site()
        fresh = fresh_site()
        restore_site(fresh, checkpoint_site(site))
        assert fresh.clock.counter >= site.clock.counter > 0

    def test_slot_identities_preserved(self):
        _, site = make_populated_site()
        original = site.objects["s0:doc"]._slots[0].slot_id
        restored = restore_site(fresh_site(), checkpoint_site(site))
        assert restored["doc"]._slots[0].slot_id == original

    def test_restore_over_existing_name_rejected(self):
        """A collision must not swap the registry entry under a live handle."""
        _, site = make_populated_site()
        data = checkpoint_site(site)
        fresh_session = Session.simulated(latency_ms=10)
        fresh = fresh_session.add_site("app")
        live = fresh.create_int("count", 9)
        with pytest.raises(CheckpointError, match="count"):
            restore_site(fresh, data)
        assert fresh.objects["s0:count"] is live and live.get() == 9
        assert set(fresh.objects) == {"s0:count"}  # nothing half-restored

    def test_bad_format_rejected(self):
        with pytest.raises(CheckpointError, match="format 99"):
            restore_site(fresh_site(), encode((99, 0, ())))

    def test_undecodable_bytes_rejected(self):
        """What the codec refuses (WireError) surfaces as CheckpointError."""
        empty = encode((FORMAT_VERSION, 0, ()))
        assert restore_site(fresh_site(), empty) == {}
        for payload in (b"", b"{not json", empty[:-1], empty + b"\x00", b"\x7f" + empty[1:]):
            with pytest.raises(CheckpointError, match="WireError"):
                restore_site(fresh_site(), payload)

    @pytest.mark.parametrize(
        "payload",
        [
            encode("not a tuple"),
            encode((FORMAT_VERSION, 0)),
            encode((FORMAT_VERSION, -1, ())),
            encode((FORMAT_VERSION, 0, (("x", ("blob", ())),))),  # unknown kind
            encode((FORMAT_VERSION, 0, (("x", ["int", ()]),))),  # non-tuple spec
            # a history must start with (here: consist of) a committed entry
            encode((FORMAT_VERSION, 0, (("x", ("int", ((VirtualTime(1, 0), 5, False),))),))),
            encode((FORMAT_VERSION, 0, (("x", ("int", ())),))),
            # well-shaped, wrong leaf types: a bare pair is not a VirtualTime
            encode((FORMAT_VERSION, 0, (("x", ("int", (((1, 0), 5, True),))),))),
            encode((FORMAT_VERSION, 0, (("x", ("int", ((VirtualTime(1, 0), "5", True),))),))),
            # the same name twice; the same slot twice
            encode((FORMAT_VERSION, 0, (("x", ("int", ((VirtualTime(1, 0), 5, True),))),) * 2)),
            encode(
                (
                    FORMAT_VERSION,
                    0,
                    (
                        (
                            "l",
                            (
                                "list",
                                ((VirtualTime(0, -1), "init", True),),
                                (
                                    (
                                        SlotId(VirtualTime(1, 0), 0),
                                        True,
                                        (),
                                        ("int", ((VirtualTime(1, 0), 5, True),)),
                                    ),
                                )
                                * 2,
                            ),
                        ),
                    ),
                )
            ),
        ],
    )
    def test_wrong_shape_rejected(self, payload):
        fresh = fresh_site()
        with pytest.raises(CheckpointError):
            restore_site(fresh, payload)
        assert not fresh.objects

    @settings(max_examples=300)
    @given(st.data())
    def test_mutated_and_truncated_checkpoints_fail_cleanly(self, data):
        """Checkpoint bytes are outside input: a damaged one restores or
        raises CheckpointError, never anything else, and never half-way."""
        good = GOLDEN_POPULATED
        cut = data.draw(st.integers(0, len(good)))
        edits = data.draw(
            st.lists(st.tuples(st.integers(0, len(good) - 1), st.integers(0, 255)), max_size=3)
        )
        damaged = bytearray(good)
        for pos, byte in edits:
            damaged[pos] = byte
        fresh = fresh_site()
        try:
            restored = restore_site(fresh, bytes(damaged[:cut]))
        except CheckpointError:
            assert not fresh.objects
        else:
            for obj in restored.values():
                value(obj)  # what was accepted is a readable object


class TestRecoveryScenario:
    def test_restart_and_rejoin(self):
        """A site crashes, restarts from its checkpoint, and rejoins the
        collaboration; state reconciles through the join sync."""
        session = Session.simulated(latency_ms=20)
        alice, bob = session.add_sites(2)
        objs = session.replicate(DInt, "x", [alice, bob], initial=5)
        session.settle()
        # Bob checkpoints, then crashes.
        payload = checkpoint_site(bob)
        session.network.fail_site(1)
        session.settle()
        # Alice keeps working while bob is down.
        alice.transact(lambda: objs[0].set(7))
        session.settle()
        # Bob restarts as a NEW site runtime, restores, and rejoins.
        bob2 = session.add_site("bob-restarted")
        restored = restore_site(bob2, payload)
        assert restored["x"].get() == 5  # last committed before the crash
        assoc_a = alice.objects["s0:x.assoc"]
        assoc_b2 = bob2.import_invitation(assoc_a.make_invitation(), "x.assoc")
        session.settle()
        out = bob2.join(assoc_b2, "x.rel", restored["x"])
        session.settle()
        assert out.committed
        # The join sync reconciled the missed update.
        assert restored["x"].get() == 7
        # And the recovered site collaborates normally.
        bob2.transact(lambda: restored["x"].set(8))
        session.settle()
        assert objs[0].get() == 8

    def test_full_cluster_restart(self):
        """All sites checkpoint, go down, and a new cluster restores and
        re-establishes the relationship — values survive."""
        session = Session.simulated(latency_ms=20)
        alice, bob = session.add_sites(2)
        objs = session.replicate(DInt, "x", [alice, bob], initial=0)
        alice.transact(lambda: objs[0].set(123))
        session.settle()
        checkpoint_a = checkpoint_site(alice)

        session2 = Session.simulated(latency_ms=20)
        new_a, new_b = session2.add_sites(2)
        restored_a = restore_site(new_a, checkpoint_a)
        assert restored_a["x"].get() == 123
        # Re-establish collaboration from the restored association... the
        # association's membership references dead uids, so create fresh.
        assoc = new_a.create_association("x.assoc2")
        new_a.transact(lambda: assoc.create_relationship("x.rel"))
        session2.settle()
        new_a.join(assoc, "x.rel", restored_a["x"])
        session2.settle()
        b_obj = new_b.create_int("x", 0)
        assoc_b = new_b.import_invitation(assoc.make_invitation(), "x.assoc2")
        session2.settle()
        new_b.join(assoc_b, "x.rel", b_obj)
        session2.settle()
        assert b_obj.get() == 123
