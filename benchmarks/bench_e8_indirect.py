"""E8 (ablation) — Indirect propagation for composites (section 3.2).

Paper: "In addition to saving space, indirect replication avoids the
problem in direct replication that small changes to the embedding structure
could end up changing a large number of objects.  For example, ... adding a
new replica A''' to the set {A, A', A''} would entail updating the
replication graph for every object embedded within A and its replicas."

Reproduction: build a composite with k embedded children, replicated at 3
sites.  Measure (a) how many replication graphs exist per site (storage),
and (b) how many graph updates a membership change implies, under the
implemented indirect scheme vs. the per-child graphs a direct scheme would
need (computed analytically from the same tree, since direct propagation
for every child is exactly "one graph per embedded object").
"""

import pytest

from repro import Session
from repro.bench.report import Table, emit, format_table
from repro import DList


def count_graphs(site) -> int:
    """Replication graphs actually materialized at a site."""
    return sum(1 for obj in site.objects.values() if obj.has_own_graph())


def count_embedded(site) -> int:
    return sum(1 for obj in site.objects.values() if obj.parent is not None)


def run_case(k_children: int):
    session = Session.simulated(latency_ms=20.0)
    sites = session.add_sites(3)
    lists = session.replicate(DList, "doc", sites)
    session.settle()

    def fill():
        for i in range(k_children):
            lists[0].append("int", i)

    sites[0].transact(fill)
    session.settle()

    graphs_per_site = count_graphs(sites[1]) - 1  # exclude the assoc object
    embedded = count_embedded(sites[1])
    # Under direct propagation, every embedded object would hold its own
    # graph, and a membership change would rewrite each of them at every
    # member site (paper's "updating the replication graph for every object
    # embedded within A and its replicas").
    direct_graphs = graphs_per_site + embedded
    indirect_membership_updates = 1  # only the root graph changes
    direct_membership_updates = 1 + embedded

    # Measure actual message cost of a child update (indirect propagation
    # carries the root uid + path, no per-child graph lookups).
    msgs_before = session.network.stats.messages_sent

    def edit():
        lists[0].child_at(0).set(999)

    sites[0].transact(edit)
    session.settle()
    child_update_msgs = session.network.stats.messages_sent - msgs_before

    return {
        "embedded": embedded,
        "indirect_graphs": graphs_per_site,
        "direct_graphs": direct_graphs,
        "indirect_membership_updates": indirect_membership_updates,
        "direct_membership_updates": direct_membership_updates,
        "child_update_msgs": child_update_msgs,
    }


def run_experiment():
    table = Table(
        title="E8: indirect vs direct propagation (3-site replicated list)",
        headers=[
            "children",
            "graphs/site indirect",
            "graphs/site direct",
            "join updates indirect",
            "join updates direct",
            "child-update msgs",
        ],
    )
    results = {}
    for k in (4, 16, 64):
        r = run_case(k)
        results[k] = r
        table.add(
            k,
            r["indirect_graphs"],
            r["direct_graphs"],
            r["indirect_membership_updates"],
            r["direct_membership_updates"],
            r["child_update_msgs"],
        )
    table.note("direct columns computed from the same tree: one graph per embedded object")
    return table, results


def test_e8_indirect(benchmark):
    table, results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit("E8", format_table(table))

    for k, r in results.items():
        # Indirect: one graph per root regardless of k.
        assert r["indirect_graphs"] == 1
        assert r["embedded"] == k
        # Direct would scale with the number of embedded objects.
        assert r["direct_graphs"] == 1 + k
        assert r["direct_membership_updates"] == 1 + k
        assert r["indirect_membership_updates"] == 1
    # Child updates cost a constant number of messages regardless of k.
    msg_counts = {r["child_update_msgs"] for r in results.values()}
    assert len(msg_counts) == 1
