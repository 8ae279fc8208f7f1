"""Tests for subtree state export/import (the join protocol's value sync)."""

import pytest

from repro import Session
from repro.core import sync as syncmod
from repro.core.messages import OpPayload
from repro.errors import ProtocolError


@pytest.fixture()
def site():
    return Session().add_site("a")


@pytest.fixture()
def other():
    return Session().add_site("b")


def value(obj):
    return obj.value_at(obj.current_value_vt())


class TestExport:
    def test_scalar_export(self, site):
        x = site.create_int("x", 3)
        site.transact(lambda: x.set(4))
        spec, sync_vt, pending = syncmod.export_state(x)
        assert spec[0] == "int"
        assert pending == []
        assert sync_vt == x.current_value_vt()

    def test_export_includes_uncommitted_suffix(self, site):
        # Fabricate an uncommitted entry (as a remote write would).
        x = site.create_int("x", 3)
        from repro.vtime import VirtualTime

        x.history.insert(VirtualTime(10, 9), 99, committed=False)
        spec, sync_vt, pending = syncmod.export_state(x)
        assert pending == [VirtualTime(10, 9)]
        entries = spec[1]
        assert entries[-1] == (VirtualTime(10, 9), 99, False)

    def test_list_export_preserves_slot_ids(self, site):
        lst = site.create_list("l")
        site.transact(lambda: [lst.append("int", i) for i in range(3)])
        spec, _, _ = syncmod.export_state(lst)
        kind, entries, slots = spec
        assert kind == "list"
        assert len(slots) == 3
        slot_ids = [s[0] for s in slots]
        assert len(set(slot_ids)) == 3

    def test_map_export(self, site):
        m = site.create_map("m")
        site.transact(lambda: (m.put("a", "int", 1), m.put("b", "string", "x")))
        spec, _, _ = syncmod.export_state(m)
        assert spec[0] == "map"
        assert {k for k, _ in spec[2]} == {"a", "b"}


class TestImport:
    def test_scalar_roundtrip(self, site, other):
        x = site.create_int("x", 3)
        site.transact(lambda: x.set(42))
        spec, _, _ = syncmod.export_state(x)
        y = other.create_int("x", 0)
        join_vt = other.clock.tick()
        syncmod.import_state(y, spec, join_vt)
        assert y.get() == 42

    def test_list_roundtrip_with_children(self, site, other):
        lst = site.create_list("l")
        site.transact(
            lambda: (
                lst.append("int", 1),
                lst.append("list", [("string", "s")]),
                lst.append("map", {"k": ("float", 2.5)}),
            )
        )
        spec, _, _ = syncmod.export_state(lst)
        target = other.create_list("l")
        syncmod.import_state(target, spec, other.clock.tick())
        assert value(target) == [1, ["s"], {"k": 2.5}]

    def test_tombstones_survive_roundtrip(self, site, other):
        lst = site.create_list("l")
        site.transact(lambda: [lst.append("int", i) for i in range(3)])
        site.transact(lambda: lst.remove(1))
        spec, _, _ = syncmod.export_state(lst)
        target = other.create_list("l")
        syncmod.import_state(target, spec, other.clock.tick())
        assert value(target) == [0, 2]

    def test_restore_after_abort(self, site, other):
        x = site.create_int("x", 3)
        spec, _, _ = syncmod.export_state(x)
        y = other.create_int("x", 7)
        other.transact(lambda: y.set(8))
        join_vt = other.clock.tick()
        syncmod.import_state(y, spec, join_vt)
        assert y.get() == 3
        syncmod.restore_state(y, join_vt)
        assert y.get() == 8

    def test_restore_without_stash_raises(self, site):
        x = site.create_int("x", 3)
        with pytest.raises(ProtocolError):
            syncmod.restore_state(x, site.clock.tick())

    def test_kind_mismatch_rejected(self, site, other):
        x = site.create_int("x", 3)
        spec, _, _ = syncmod.export_state(x)
        s = other.create_string("x", "")
        with pytest.raises(ProtocolError):
            syncmod.import_state(s, spec, other.clock.tick())

    def test_imported_children_registered_with_site(self, site, other):
        lst = site.create_list("l")
        site.transact(lambda: lst.append("int", 1))
        spec, _, _ = syncmod.export_state(lst)
        target = other.create_list("l")
        count_before = len(other.objects)
        syncmod.import_state(target, spec, other.clock.tick())
        assert len(other.objects) == count_before + 1  # the imported child

    def test_uncommitted_import_registers_applied_ops(self, site, other):
        from repro.vtime import VirtualTime

        x = site.create_int("x", 3)
        uncommitted_vt = VirtualTime(10, 9)
        x.history.insert(uncommitted_vt, 99, committed=False)
        spec, _, pending = syncmod.export_state(x)
        y = other.create_int("x", 0)
        syncmod.import_state(y, spec, other.clock.tick())
        assert y.get() == 99  # optimistic current
        assert y.committed_value() == 3
        # The applied-op log lets a forwarded ABORT purge the entry.
        assert other.engine.txns[uncommitted_vt].applied
        other.engine._apply_abort_locally(uncommitted_vt)
        assert y.get() == 3


class TestFalsyChildren:
    """Regression: empty composites are falsy (len == 0); identity checks,
    not truthiness, must decide whether a map key holds a child.  Found by
    hypothesis through the sync roundtrip."""

    def test_empty_list_as_map_value_survives_join(self):
        session = Session.simulated(latency_ms=20)
        alice, bob = session.add_sites(2)
        board = alice.create_map("board")
        assoc = alice.create_association("board.assoc")
        alice.transact(lambda: assoc.create_relationship("board.rel"))
        session.settle()
        alice.join(assoc, "board.rel", board)
        session.settle()
        # A key whose value is an EMPTY list (falsy!).
        alice.transact(lambda: board.put("todo", "list", []))
        session.settle()
        assoc_b = bob.import_invitation(assoc.make_invitation(), "board.assoc")
        session.settle()
        b_board = bob.create_map("board")
        out = bob.join(assoc_b, "board.rel", b_board)
        session.settle()
        assert out.committed
        assert value(b_board) == {"todo": []}
        # And the late joiner can fill the empty list in place.
        bob.transact(lambda: b_board.child("todo").append("string", "item"))
        session.settle()
        assert value(board) == {"todo": ["item"]}

    def test_empty_map_checkpoint_roundtrip(self):
        from repro.persist import checkpoint_site, restore_site

        session = Session.simulated(latency_ms=10)
        site = session.add_site("app")
        m = site.create_map("m")
        site.transact(lambda: m.put("empty", "map", {}))
        session.settle()
        fresh = Session.simulated(latency_ms=10).add_site("app")
        restored = restore_site(fresh, checkpoint_site(site))
        assert value(restored["m"]) == {"empty": {}}
