"""Tests for replication graphs and primary-copy selection."""

import pytest

from repro.core.repgraph import (
    GraphNode,
    ReplicationGraph,
    default_primary_selector,
    primary_site,
)
from repro.errors import ProtocolError


def singleton(uid="s0:x", site=0):
    return ReplicationGraph.singleton(uid, site)


class TestConstruction:
    def test_singleton(self):
        graph = singleton()
        assert graph.sites() == [0]
        assert graph.uids() == ["s0:x"]
        assert graph.is_singleton()

    def test_empty_graph_rejected(self):
        with pytest.raises(ProtocolError):
            ReplicationGraph(nodes=frozenset())

    def test_merge_two_singletons(self):
        merged = singleton("s0:x", 0).merge(singleton("s1:x", 1), ("s0:x", "s1:x"))
        assert merged.sites() == [0, 1]
        assert frozenset({"s0:x", "s1:x"}) in merged.edges

    def test_merge_requires_known_nodes(self):
        with pytest.raises(ProtocolError):
            singleton("s0:x", 0).merge(singleton("s1:x", 1), ("s0:x", "s9:zzz"))

    def test_merge_is_commutative_on_nodes(self):
        a, b = singleton("s0:x", 0), singleton("s1:x", 1)
        ab = a.merge(b, ("s0:x", "s1:x"))
        ba = b.merge(a, ("s1:x", "s0:x"))
        assert ab.nodes == ba.nodes

    def test_three_way_merge(self):
        graph = singleton("s0:x", 0).merge(singleton("s1:x", 1), ("s0:x", "s1:x"))
        graph = graph.merge(singleton("s2:x", 2), ("s1:x", "s2:x"))
        assert graph.sites() == [0, 1, 2]
        assert len(graph.edges) == 2


class TestRemoval:
    def _triple(self):
        graph = singleton("s0:x", 0).merge(singleton("s1:x", 1), ("s0:x", "s1:x"))
        return graph.merge(singleton("s2:x", 2), ("s1:x", "s2:x"))

    def test_without_site(self):
        remaining = self._triple().without_site(1)
        assert remaining.sites() == [0, 2]
        # Edges referencing the removed node are dropped.
        assert all("s1:x" not in e for e in remaining.edges)

    def test_without_site_all_gone(self):
        assert singleton().without_site(0) is None

    def test_without_node(self):
        remaining = self._triple().without_node("s2:x")
        assert remaining.uids() == ["s0:x", "s1:x"]

    def test_without_node_last(self):
        assert singleton().without_node("s0:x") is None


class TestQueries:
    def test_uid_at_site(self):
        graph = singleton("s0:x", 0).merge(singleton("s1:y", 1), ("s0:x", "s1:y"))
        assert graph.uid_at_site(0) == "s0:x"
        assert graph.uid_at_site(1) == "s1:y"
        assert graph.uid_at_site(5) is None

    def test_multiple_replicas_per_site_rejected(self):
        graph = ReplicationGraph(
            nodes=frozenset({GraphNode(0, "s0:x"), GraphNode(0, "s0:y")})
        )
        with pytest.raises(ProtocolError):
            graph.uid_at_site(0)

    def test_site_of(self):
        graph = singleton("s3:q", 3)
        assert graph.site_of("s3:q") == 3
        with pytest.raises(ProtocolError):
            graph.site_of("nope")

    def test_contains_uid(self):
        graph = singleton("s3:q", 3)
        assert graph.contains_uid("s3:q")
        assert not graph.contains_uid("s3:r")

    def test_len(self):
        graph = singleton().merge(singleton("s1:x", 1), ("s0:x", "s1:x"))
        assert len(graph) == 2


class TestPrimarySelection:
    def test_default_selector_min_site(self):
        graph = singleton("s2:x", 2).merge(singleton("s1:x", 1), ("s2:x", "s1:x"))
        assert default_primary_selector(graph) == GraphNode(1, "s1:x")
        assert primary_site(graph) == 1

    def test_selector_is_pure_function_of_graph(self):
        # The paper requires every site to compute the same primary with no
        # election: identical graphs must yield identical primaries.
        g1 = singleton("s0:x", 0).merge(singleton("s1:x", 1), ("s0:x", "s1:x"))
        g2 = singleton("s1:x", 1).merge(singleton("s0:x", 0), ("s1:x", "s0:x"))
        assert default_primary_selector(g1) == default_primary_selector(g2)

    def test_custom_selector(self):
        graph = singleton("s0:x", 0).merge(singleton("s1:x", 1), ("s0:x", "s1:x"))
        highest = lambda g: max(g.nodes)
        assert primary_site(graph, highest) == 1

    def test_primary_changes_after_site_removal(self):
        graph = singleton("s0:x", 0).merge(singleton("s1:x", 1), ("s0:x", "s1:x"))
        assert primary_site(graph) == 0
        assert primary_site(graph.without_site(0)) == 1


class TestGraphFactsLiveOnTheGraph:
    """Sorted sites, the site -> uid map and the default primary are computed
    once per (immutable) graph; a derived graph computes its own."""

    def _triple(self):
        graph = singleton("s0:x", 0).merge(singleton("s1:x", 1), ("s0:x", "s1:x"))
        return graph.merge(singleton("s2:x", 2), ("s1:x", "s2:x"))

    def test_sites_result_can_be_mutated(self):
        graph = self._triple()
        first = graph.sites()
        first.remove(1)
        first.append(99)
        assert graph.sites() == [0, 1, 2]
        assert graph.sites() is not graph.sites()

    def test_derived_graphs_answer_from_their_own_nodes(self):
        graph = self._triple()
        # Ask the parent first, so every fact is already remembered on it.
        assert (graph.sites(), graph.uid_at_site(0), primary_site(graph)) == ([0, 1, 2], "s0:x", 0)

        no_site = graph.without_site(0)
        assert no_site.sites() == [1, 2]
        assert no_site.uid_at_site(0) is None and no_site.uid_at_site(1) == "s1:x"
        assert default_primary_selector(no_site) == GraphNode(1, "s1:x")

        no_node = graph.without_node("s1:x")
        assert no_node.sites() == [0, 2]
        assert no_node.uid_at_site(1) is None and no_node.uid_at_site(2) == "s2:x"
        assert primary_site(no_node) == 0

        merged = no_site.merge(singleton("s-1:x", -1), ("s1:x", "s-1:x"))
        assert merged.sites() == [-1, 1, 2]
        assert merged.uid_at_site(-1) == "s-1:x"
        assert primary_site(merged) == -1
        # ... and none of that disturbed what the parent remembers.
        assert (graph.sites(), graph.uid_at_site(0), primary_site(graph)) == ([0, 1, 2], "s0:x", 0)

    def test_remembered_facts_are_invisible_to_equality_and_hash(self):
        asked, fresh = self._triple(), self._triple()
        asked.sites(), asked.uid_at_site(1), default_primary_selector(asked)
        assert asked == fresh and hash(asked) == hash(fresh)

    def test_duplicate_replica_raises_from_uid_at_site_every_time(self):
        graph = ReplicationGraph(
            nodes=frozenset({GraphNode(0, "s0:x"), GraphNode(0, "s0:y"), GraphNode(1, "s1:x")})
        )
        assert graph.sites() == [0, 1]  # constructing and other queries do not raise
        for _ in range(2):
            with pytest.raises(ProtocolError):
                graph.uid_at_site(0)
        assert graph.uid_at_site(1) == "s1:x"

    def test_custom_selector_elects_everywhere_and_never_reads_the_default(self):
        from repro import DInt, Session

        calls = []

        def highest(graph):
            calls.append(graph)
            return max(graph.nodes)

        session = Session.simulated(latency_ms=10.0, primary_selector=highest)
        sites = session.add_sites(3)
        objs = session.replicate(DInt, "x", sites, initial=0)
        for writer, obj in zip(sites, objs):
            writer.transact(lambda obj=obj: obj.set(obj.get() + 1))
            session.settle()
        assert [obj.primary_site() for obj in objs] == [2, 2, 2]
        assert [obj.get() for obj in objs] == [3, 3, 3]
        before = len(calls)
        objs[0].primary_site()
        assert len(calls) == before + 1  # asked every time, never remembered
        for obj in objs:
            assert "min_node" not in vars(obj.graph())
