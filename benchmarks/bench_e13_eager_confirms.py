"""E13 — Pessimistic views away from the primary: 2t or 3t (section 5.1.2).

The paper's latency analysis assumes that "for objects that are updated in
the transaction, confirmations are eagerly distributed by the primary copy
when the originating site requests confirmation".  Here the summary COMMIT
is that distribution: the primary validated and reserved the transaction's
read interval before it could commit, so a *third-party* site (neither
origin nor primary) shows a read-modify-write at 2t with no message beyond
the transaction's own.  A blind write has t_R = t_T and its own guess
confirms no interval; but once some site has asked the primary to confirm a
snapshot, the primary reserves ``(prev, t_T)`` — ``prev`` the entry below
the write in its history — for every blind write and says so on the COMMIT.
The first two blind writes of an object still ask (3t, two more messages):
the first CONFIRM-READ is what tells the primary it is watched, the first
vouching COMMIT what tells the replica to wait for the next.
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


def run_case(blind: bool, earlier_writes: int = 0):
    session = Session.simulated(latency_ms=T)
    sites = session.add_sites(3)
    objs = session.replicate(DInt, "x", sites, initial=0)
    session.settle()
    probe = Probe(sites[1])  # third party: origin is 2, primary is 0
    objs[1].attach(probe, "pessimistic")
    for value in range(1, earlier_writes + 1):
        sites[2].transact(lambda value=value: objs[2].set(value))
        session.settle()
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


#: (row label, blind?, blind writes before the measured one, paper, confirmed by)
CASES = (
    ("read-modify-write", False, 0, "2t", "the COMMIT"),
    ("blind write", True, 0, "3t", "CONFIRM-READ"),
    ("blind write, 3rd onward", True, 2, "2t", "the COMMIT (primary vouches (prev, t_T))"),
)


def run_experiment():
    table = Table(
        title=f"E13: pessimistic view at a third site (t = {T:.0f} ms, 3 sites)",
        headers=["transaction", "pess. view @ 3rd site", "paper", "msgs/txn", "confirmed by"],
    )
    results = {}
    for label, blind, earlier_writes, paper, confirmed_by in CASES:
        r = run_case(blind, earlier_writes)
        results[label] = r
        table.add(label, r["latency"], paper, r["messages"], confirmed_by)
    table.note("a blind write (t_R = t_T) confirms no interval; 2t is the 5.1.2 figure")
    table.note("the 1st and 2nd blind write of an object teach primary and replica to vouch and wait")
    return table, results


def test_e13_eager_confirms(benchmark):
    table, results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit("E13", format_table(table))

    assert results["read-modify-write"]["latency"] == pytest.approx(2 * T)
    assert results["read-modify-write"]["messages"] == 4
    assert results["blind write"]["latency"] == pytest.approx(3 * T)
    assert results["blind write"]["messages"] == 6
    assert results["blind write, 3rd onward"]["latency"] == pytest.approx(2 * T)
    assert results["blind write, 3rd onward"]["messages"] == 4
