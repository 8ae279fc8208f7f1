"""E13 (extension) — "Faster commit of snapshots" (sections 5.1.2 / 5.3).

The paper's latency analysis assumes that "for objects that are updated in
the transaction, confirmations are eagerly distributed by the primary copy
when the originating site requests confirmation".  We implement that
optimization (``eager_view_confirms``) and measure its effect: a
*third-party* site (neither origin nor primary) sees pessimistic update
notifications at 2t instead of 3t for read-modify-write transactions, at
the cost of one extra broadcast per confirmed write.
"""

import pytest

from repro import Session, View
from repro.bench.report import Table, emit, format_table
from repro import DInt

T = 50.0


class Probe(View):
    def __init__(self, site):
        self.site = site
        self.seen = {}

    def update(self, changed, snapshot):
        for obj in changed:
            value = snapshot.read(obj)
            self.seen.setdefault(value, self.site.transport.now())


def run_case(eager: bool):
    session = Session.simulated(latency_ms=T, eager_view_confirms=eager)
    sites = session.add_sites(3)
    objs = session.replicate(DInt, "x", sites, initial=0)
    session.settle()
    probe = Probe(sites[1])  # third party: origin is 2, primary is 0
    objs[1].attach(probe, "pessimistic")
    base_msgs = session.network.stats.messages_sent
    t0 = session.scheduler.now
    sites[2].transact(lambda: objs[2].set(objs[2].get() + 41))
    session.settle()
    return {
        "latency": probe.seen[41] - t0,
        "messages": session.network.stats.messages_sent - base_msgs,
    }


def run_experiment():
    table = Table(
        title=f"E13: eager confirmation distribution (t = {T:.0f} ms, 3 sites, RMW txn)",
        headers=["eager confirms", "pess. view @ 3rd site", "paper", "msgs/txn"],
    )
    results = {}
    for eager in (False, True):
        r = run_case(eager)
        results[eager] = r
        table.add("on" if eager else "off", r["latency"], "2t" if eager else "3t", r["messages"])
    table.note("the 5.1.2 analysis assumes this optimization; 5.3 lists it as forthcoming")
    return table, results


def test_e13_eager_confirms(benchmark):
    table, results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit("E13", format_table(table))

    assert results[False]["latency"] == pytest.approx(3 * T)
    assert results[True]["latency"] == pytest.approx(2 * T)
    assert results[True]["messages"] > results[False]["messages"]
