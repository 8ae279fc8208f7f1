"""Replication graphs and the primary-copy selection function.

A *replication graph* is "a connected multigraph whose nodes are references
to model objects, and whose multi-edges are the replication relations built
by the users" (paper section 3).  The graph determines:

* the set of sites an update must be propagated to, and
* the *primary copy* — a deterministically selected node whose site checks
  RL/NC guesses.  The paper emphasizes that there is no election: "each
  node is able to map a given multigraph to the identity of the primary
  site" (section 3.3).  Our selection function is the minimum
  ``(site, uid)`` node; sessions may override it.

Graphs are immutable; graph changes are writes to the graph history,
concurrency-controlled exactly like value writes (with their own RL
reservations at the primary).  Because a graph never changes, the facts the
per-message path asks of it — its sorted sites, the replica uid at a site,
the default primary — are computed on first use and kept on the graph
object; ``merge`` / ``without_site`` / ``without_node`` build new graphs, so
nothing is ever invalidated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import ProtocolError


class _computed_once:
    """``functools.cached_property`` for a frozen dataclass, minus the
    instance ``__dict__`` it forces into being: the value is stored with
    ``object.__setattr__``, where the instance keeps its fields, so a graph
    held in every replica's history costs the collector no dict."""

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, graph: Any, owner: Optional[type] = None) -> Any:
        if graph is None:
            return self
        value = self.fn(graph)
        # The attribute now shadows this (non-data) descriptor: one call per
        # graph and fact, then plain attribute reads.
        object.__setattr__(graph, self.name, value)
        return value


@dataclass(frozen=True, order=True)
class GraphNode:
    """A reference to one replica: the hosting site and the object's uid."""

    site: int
    uid: str


@dataclass(frozen=True)
class ReplicationGraph:
    """An immutable replication multigraph.

    ``edges`` are unordered uid pairs recording user-built join relations;
    they are retained so that leaves can split a graph along its remaining
    connectivity, and so the multigraph structure of the paper is
    faithfully represented.
    """

    nodes: FrozenSet[GraphNode]
    edges: FrozenSet[FrozenSet[str]] = frozenset()

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ProtocolError("a replication graph must contain at least one node")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def singleton(uid: str, site: int) -> "ReplicationGraph":
        """The initial graph of a standalone (unreplicated) object."""
        return ReplicationGraph(nodes=frozenset({GraphNode(site=site, uid=uid)}))

    def merge(
        self, other: "ReplicationGraph", join_edge: Tuple[str, str]
    ) -> "ReplicationGraph":
        """Union two graphs, adding the user-built edge that joins them."""
        a, b = join_edge
        uids = {n.uid for n in self.nodes} | {n.uid for n in other.nodes}
        if a not in uids or b not in uids:
            raise ProtocolError(f"join edge ({a}, {b}) references unknown nodes")
        return ReplicationGraph(
            nodes=self.nodes | other.nodes,
            edges=self.edges | other.edges | {frozenset({a, b})},
        )

    def without_site(self, site: int) -> Optional["ReplicationGraph"]:
        """The graph with a failed site's nodes removed, or None if empty."""
        remaining = frozenset(n for n in self.nodes if n.site != site)
        if not remaining:
            return None
        keep_uids = {n.uid for n in remaining}
        edges = frozenset(e for e in self.edges if all(u in keep_uids for u in e))
        return ReplicationGraph(nodes=remaining, edges=edges)

    def without_node(self, uid: str) -> Optional["ReplicationGraph"]:
        """The graph with one replica removed (a ``leave``), or None if empty."""
        remaining = frozenset(n for n in self.nodes if n.uid != uid)
        if not remaining:
            return None
        edges = frozenset(e for e in self.edges if uid not in e)
        return ReplicationGraph(nodes=remaining, edges=edges)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    # ``==`` / ``hash`` look at fields only, so the facts stored on first
    # use change neither.

    @_computed_once
    def _sorted_sites(self) -> Tuple[int, ...]:
        return tuple(sorted({n.site for n in self.nodes}))

    @_computed_once
    def _replica_at(self) -> Dict[int, Optional[str]]:
        """``site -> uid``; None marks a site hosting more than one replica."""
        replica_at: Dict[int, Optional[str]] = {}
        for node in self.nodes:
            replica_at[node.site] = None if node.site in replica_at else node.uid
        return replica_at

    @_computed_once
    def min_node(self) -> GraphNode:
        """The minimum ``(site, uid)`` node: the default primary copy."""
        return min(self.nodes)

    def sites(self) -> List[int]:
        """All hosting sites, sorted ascending (a fresh list per call)."""
        return list(self._sorted_sites)

    def uids(self) -> List[str]:
        """All member uids, sorted."""
        return sorted(n.uid for n in self.nodes)

    def uid_at_site(self, site: int) -> Optional[str]:
        """The uid of this relationship's replica at ``site`` (None if absent).

        DECAF applications host at most one replica of a relationship per
        site runtime; the join protocol enforces this.
        """
        try:
            uid = self._replica_at[site]
        except KeyError:
            return None
        if uid is None:
            raise ProtocolError(f"multiple replicas of one relationship at site {site}")
        return uid

    def site_of(self, uid: str) -> int:
        for node in self.nodes:
            if node.uid == uid:
                return node.site
        raise ProtocolError(f"uid {uid} is not in this replication graph")

    def contains_uid(self, uid: str) -> bool:
        return any(n.uid == uid for n in self.nodes)

    def is_singleton(self) -> bool:
        return len(self.nodes) == 1

    def __len__(self) -> int:
        return len(self.nodes)


PrimarySelector = Callable[[ReplicationGraph], GraphNode]


def default_primary_selector(graph: ReplicationGraph) -> GraphNode:
    """The default constant primary-selection function: min ``(site, uid)``.

    Any pure function of the graph works (the paper only requires that
    every site computes the same answer); minimum site gives benchmarks a
    predictable primary placement.
    """
    return graph.min_node


def primary_site(graph: ReplicationGraph, selector: Optional[PrimarySelector] = None) -> int:
    """The site hosting the primary copy under ``selector``."""
    chosen = (selector or default_primary_selector)(graph)
    return chosen.site
