"""E9 — The optimistic-view deviation taxonomy (section 5.1.2).

The paper defines three deviations from the ideal one-notification-per-
committed-transaction sequence:

1. *lost updates* — a straggler older than an already processed update
   yields no notification;
2. *update inconsistencies* — an update delivered to a view whose
   transaction later rolls back;
3. *read inconsistencies* — a view over M1 and M2 sees M1's update, then
   M2's update arrives with an earlier VT.

And: "In an application in which all operations are blind writes, there are
no update inconsistencies, because concurrency control tests never fail.
However, lost updates and read inconsistencies may still occur."

We count all three per workload type across update rates.
"""

import pytest

from repro import Session
from repro.bench import attach_probe
from repro.bench.report import Table, emit, format_table
from repro import DInt
from repro.workloads import (
    BlindWriteWorkload,
    PoissonArrivals,
    ReadModifyWriteWorkload,
    WorkloadParty,
    run_workload,
)

LATENCY_MS = 100.0
COUNT = 80


def build(seed):
    session = Session.simulated(latency_ms=LATENCY_MS, seed=seed)
    alice, bob = session.add_sites(2)
    m1 = session.replicate(DInt, "m1", [alice, bob], initial=0)
    m2 = session.replicate(DInt, "m2", [alice, bob], initial=0)
    session.settle()
    probe_a = attach_probe(alice, [m1[0], m2[0]], "optimistic")
    probe_b = attach_probe(bob, [m1[1], m2[1]], "optimistic")
    return session, (alice, bob), (m1, m2), (probe_a, probe_b)


class AlternatingWorkload:
    """Each call targets the next of the party's objects (round robin), so
    both parties touch both shared objects: same-object stragglers (lost
    updates), cross-object stragglers (read inconsistencies), and — for
    read-modify-write — genuine conflicts (update inconsistencies) all
    occur."""

    def __init__(self, objects, kind, party_tag):
        self.objects = list(objects)
        self.kind = kind
        self.party_tag = party_tag
        self._n = 0

    def __call__(self):
        self._n += 1
        obj = self.objects[self._n % len(self.objects)]
        if self.kind == "blind":
            value = self.party_tag * 1_000_000 + self._n

            def body():
                obj.set(value)

        else:

            def body():
                obj.set(obj.get() + 1)

        return body


def run_point(workload_kind, interval_ms, seed=5):
    session, sites, objs, probes = build(seed)
    alice, bob = sites
    m1, m2 = objs
    wl_a = AlternatingWorkload([m1[0], m2[0]], workload_kind, party_tag=1)
    wl_b = AlternatingWorkload([m1[1], m2[1]], workload_kind, party_tag=2)
    parties = [
        WorkloadParty(site=alice, workload=wl_a, arrivals=PoissonArrivals(interval_ms), count=COUNT),
        WorkloadParty(site=bob, workload=wl_b, arrivals=PoissonArrivals(interval_ms), count=COUNT),
    ]
    run_workload(session, parties, seed=seed)
    totals = {"lost_updates": 0, "update_inconsistencies": 0, "read_inconsistencies": 0}
    for probe in probes:
        proxy = probe.proxy
        totals["lost_updates"] += proxy.lost_updates
        totals["update_inconsistencies"] += proxy.update_inconsistencies
        totals["read_inconsistencies"] += proxy.read_inconsistencies
    return totals


def run_experiment():
    table = Table(
        title=f"E9: optimistic-view deviations (t = {LATENCY_MS:.0f} ms, {COUNT} txns/party)",
        headers=["workload", "rate (1/s)", "lost", "update-inconsistent", "read-inconsistent"],
    )
    results = {}
    for kind in ("blind", "rmw"):
        for rate in (0.5, 2.0, 5.0):
            totals = run_point(kind, 1000.0 / rate)
            results[(kind, rate)] = totals
            table.add(
                kind,
                rate,
                totals["lost_updates"],
                totals["update_inconsistencies"],
                totals["read_inconsistencies"],
            )
    table.note("paper: all-blind-write workloads have NO update inconsistencies")
    return table, results


def test_e9_deviations(benchmark):
    table, results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit("E9", format_table(table))

    # Paper's categorical claim: blind writes never produce update
    # inconsistencies (concurrency tests never fail)...
    for rate in (0.5, 2.0, 5.0):
        assert results[("blind", rate)]["update_inconsistencies"] == 0
    # ...but lost updates and read inconsistencies may still occur.
    busy_blind = results[("blind", 5.0)]
    assert busy_blind["lost_updates"] + busy_blind["read_inconsistencies"] > 0
    # Read-modify-write workloads do roll back under load.
    assert results[("rmw", 5.0)]["update_inconsistencies"] > 0
    # Deviations grow with rate within each workload.
    assert (
        results[("blind", 5.0)]["lost_updates"]
        >= results[("blind", 0.5)]["lost_updates"]
    )
