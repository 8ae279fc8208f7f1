"""E6 — Scalability: per-set primaries vs. a network-wide GVT sweep.

Paper (section 5.1.3): "In a hypothetical example of a very large network
with large numbers of relatively small replica sets (e.g., replicas at
sites A, B, and C, at sites C, D, and E, at E, F, and G, etc.) the sweep to
compute a GVT can be very time-consuming, since it is proportional to the
size of the network.  But in our algorithm, each replica set will have its
own primary site, and each transaction will require confirmations from a
very small number of such primary sites."

Reproduction: build the paper's chain of overlapping 3-site replica sets
over N total sites.  Measure the commit latency of one transaction on the
*last* set under (a) DECAF (per-set primary) and (b) the GVT token-sweep
baseline where the token must traverse all N sites.  Expected shape: DECAF
flat in N; GVT linear in N.
"""

import pytest

from repro import Session
from repro.baselines import GvtSystem
from repro.bench.report import Table, emit, format_table
from repro import DInt

T = 20.0  # one-way delay (ms)
SIZES = [3, 5, 9, 17, 33]


def decaf_chain_latency(n_sites: int) -> float:
    """Chain of 3-site replica sets: sites (0,1,2), (2,3,4), (4,5,6), ...

    A transaction at the last site of the last set updates that set's
    object; commit needs confirmation from that set's primary only.
    """
    session = Session.simulated(latency_ms=T)
    sites = session.add_sites(n_sites)
    sets = []
    start = 0
    while start + 2 < n_sites:
        sets.append([sites[start], sites[start + 1], sites[start + 2]])
        start += 2
    if not sets:
        sets = [sites]
    objects = []
    for i, member_sites in enumerate(sets):
        objects.append(session.replicate(DInt, f"set{i}", member_sites, initial=0))
    session.settle()
    last_set_objs = objects[-1]
    origin_site = sets[-1][-1]
    out = origin_site.transact(lambda: last_set_objs[-1].set(1))
    session.settle()
    assert out.committed
    return out.commit_latency_ms


def gvt_chain_latency(n_sites: int) -> float:
    """Same update under the GVT baseline: the token sweeps all N sites."""
    system = GvtSystem(n_sites=n_sites, latency_ms=T)
    system.run_for(4 * n_sites * T)  # let the token reach steady circulation
    probe = system.issue_update(n_sites - 1, 1)
    system.run_for(10 * n_sites * T + 1000)
    latency = probe.commit_latency_at(n_sites - 1)
    assert latency is not None
    return latency


def run_experiment():
    table = Table(
        title=f"E6: commit latency vs network size (chained 3-site replica sets, t = {T:.0f} ms)",
        headers=["N sites", "DECAF (ms)", "GVT sweep (ms)", "GVT/DECAF"],
    )
    decaf, gvt = {}, {}
    for n in SIZES:
        decaf[n] = decaf_chain_latency(n)
        gvt[n] = gvt_chain_latency(n)
        table.add(n, decaf[n], gvt[n], gvt[n] / max(decaf[n], 1e-9))
    table.note("paper: GVT sweep cost proportional to network size; DECAF flat")
    return table, decaf, gvt


def test_e6_scalability(benchmark):
    table, decaf, gvt = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit("E6", format_table(table))

    # Shape 1: DECAF's commit latency does not grow with the network.
    assert decaf[SIZES[-1]] == decaf[SIZES[0]]
    assert decaf[SIZES[-1]] <= 2 * T
    # Shape 2: the GVT baseline grows (roughly linearly) with N.
    assert gvt[33] > gvt[9] > gvt[3]
    assert gvt[33] >= 2.0 * gvt[9] * 33 / 9 * 0.3  # clearly super-constant
    # Shape 3: at N=33 the gap is at least an order of magnitude.
    assert gvt[33] / decaf[33] >= 10.0
