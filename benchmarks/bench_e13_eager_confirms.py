"""E13 — Pessimistic views away from the primary: 2t or 3t (section 5.1.2).

The paper's latency analysis assumes that "for objects that are updated in
the transaction, confirmations are eagerly distributed by the primary copy
when the originating site requests confirmation".  Here the summary COMMIT
is that distribution: the primary validated and reserved the transaction's
read interval before it could commit, so a *third-party* site (neither
origin nor primary) shows a read-modify-write at 2t with no message beyond
the transaction's own.  A blind write has t_R = t_T and confirms no
interval; its snapshot still asks the primary, at 3t and two more messages.
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


def run_case(blind: bool):
    session = Session.simulated(latency_ms=T)
    sites = session.add_sites(3)
    objs = session.replicate(DInt, "x", sites, initial=0)
    session.settle()
    probe = Probe(sites[1])  # third party: origin is 2, primary is 0
    objs[1].attach(probe, "pessimistic")
    base_msgs = session.network.stats.messages_sent
    t0 = session.scheduler.now
    if blind:
        sites[2].transact(lambda: objs[2].set(41))
    else:
        sites[2].transact(lambda: objs[2].set(objs[2].get() + 41))
    session.settle()
    return {
        "latency": probe.seen[41] - t0,
        "messages": session.network.stats.messages_sent - base_msgs,
    }


def run_experiment():
    table = Table(
        title=f"E13: pessimistic view at a third site (t = {T:.0f} ms, 3 sites)",
        headers=["transaction", "pess. view @ 3rd site", "paper", "msgs/txn", "confirmed by"],
    )
    results = {}
    for blind in (False, True):
        r = run_case(blind)
        results[blind] = r
        table.add(
            "blind write" if blind else "read-modify-write",
            r["latency"],
            "3t" if blind else "2t",
            r["messages"],
            "CONFIRM-READ" if blind else "the COMMIT",
        )
    table.note("a blind write (t_R = t_T) confirms no interval; 2t is the 5.1.2 figure")
    return table, results


def test_e13_eager_confirms(benchmark):
    table, results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit("E13", format_table(table))

    assert results[False]["latency"] == pytest.approx(2 * T)
    assert results[False]["messages"] == 4
    assert results[True]["latency"] == pytest.approx(3 * T)
    assert results[True]["messages"] == 6
