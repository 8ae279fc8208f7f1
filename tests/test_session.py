"""Tests for session wiring and helpers."""

import pytest

from repro import Session
from repro.core.repgraph import GraphNode
from repro.errors import ReproError
from repro.transport import MemoryTransport, Network
from repro import DFloat, DInt, DList, DMap, DString


class TestConstruction:
    def test_default_memory_transport(self):
        session = Session()
        assert isinstance(session.transport, MemoryTransport)
        assert session.scheduler is None

    def test_simulated_factory(self):
        session = Session.simulated(latency_ms=10.0, seed=3)
        assert isinstance(session.transport, Network)
        assert session.scheduler is not None
        assert session.network is not None

    def test_site_ids_sequential(self):
        session = Session()
        sites = session.add_sites(3)
        assert [s.site_id for s in sites] == [0, 1, 2]

    def test_site_names(self):
        session = Session()
        sites = session.add_sites(3, prefix="user")
        assert [s.name for s in sites] == ["user0", "user1", "user2"]
        more = session.add_sites(2, prefix="user")
        assert [s.name for s in more] == ["user3", "user4"]

    def test_roster_updated_on_all_sites(self):
        session = Session()
        a = session.add_site()
        b = session.add_site()
        assert a.roster == b.roster == {0, 1}

    def test_custom_primary_selector(self):
        # Select the maximum node instead of the minimum: primaries land on
        # the highest site.
        session = Session.simulated(
            latency_ms=10.0, primary_selector=lambda g: max(g.nodes)
        )
        alice, bob = session.add_sites(2)
        objs = session.replicate(DInt, "x", [alice, bob], initial=0)
        assert objs[0].primary_site() == 1

    def test_counters_aggregate(self):
        session = Session.simulated(latency_ms=10.0)
        alice, bob = session.add_sites(2)
        objs = session.replicate(DInt, "x", [alice, bob], initial=0)
        alice.transact(lambda: objs[0].set(1))
        session.settle()
        counters = session.counters()
        assert counters["commits"] >= 1
        assert "lost_updates" in counters


class TestReplicateHelper:
    @pytest.mark.parametrize(
        "kind,initial,expected",
        [
            (DInt, 7, 7),
            (DFloat, 2.5, 2.5),
            (DString, "hi", "hi"),
        ],
    )
    def test_scalar_kinds(self, kind, initial, expected):
        session = Session.simulated(latency_ms=10.0)
        sites = session.add_sites(2)
        objs = session.replicate(kind, "obj", sites, initial=initial)
        assert [o.get() for o in objs] == [expected, expected]

    def test_composite_kinds(self):
        session = Session.simulated(latency_ms=10.0)
        sites = session.add_sites(2)
        lists = session.replicate(DList, "l", sites)
        maps = session.replicate(DMap, "m", sites)
        sites[0].transact(lambda: lists[0].append("int", 1))
        sites[1].transact(lambda: maps[1].put("k", "int", 2))
        session.settle()
        assert lists[1].value_at(lists[1].current_value_vt()) == [1]
        assert maps[0].value_at(maps[0].current_value_vt()) == {"k": 2}

    def test_replication_is_committed_on_return(self):
        session = Session.simulated(latency_ms=10.0)
        sites = session.add_sites(3)
        objs = session.replicate(DInt, "x", sites, initial=0)
        for obj in objs:
            assert obj.graph_history().current().committed
            assert len(obj.graph()) == 3

    def test_unknown_kind_rejected(self):
        session = Session()
        site = session.add_site()
        with pytest.raises(ReproError):
            session.replicate("blob", "x", [site])

    def test_empty_sites_rejected(self):
        session = Session()
        with pytest.raises(ReproError):
            session.replicate(DInt, "x", [])

    def test_run_for_requires_sim(self):
        session = Session()
        with pytest.raises(ReproError):
            session.run_for(10.0)


class TestMemoryTransportSessions:
    def test_whole_stack_on_memory_transport(self):
        """The protocol works synchronously over the zero-latency transport."""
        session = Session()
        alice, bob = session.add_sites(2)
        objs = session.replicate(DInt, "x", [alice, bob], initial=5)
        alice.transact(lambda: objs[0].set(6))
        assert objs[1].get() == 6
        assert objs[1].history.current().committed
