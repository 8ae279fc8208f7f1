"""E11 (extension) — Adaptive optimism suppression (section 5.2.2 proposal).

The paper concludes its benchmark discussion with: "This suggests that it
may be desirable to suppress optimism when conflict rates exceed a certain
threshold."  We implemented that proposal
(:class:`repro.core.adaptive.AdaptiveOptimismController`) and measure the
trade it makes: under heavy two-party read-modify-write contention, the
governed site suffers fewer conflict rollbacks, at the cost of delaying its
own submissions while suppressed.
"""

import pytest

from repro import Session
from repro.core.adaptive import AdaptiveOptimismController
from repro.bench.report import Table, emit, format_table
from repro import DInt

T = 60.0
ROUNDS = 30
GAP_MS = 40.0


def run_case(governed: bool, seed: int):
    session = Session.simulated(latency_ms=T, seed=seed)
    alice, bob = session.add_sites(2)
    objs = session.replicate(DInt, "x", [alice, bob], initial=0)
    session.settle()
    controller = None
    if governed:
        controller = AdaptiveOptimismController(bob, window=6, enter_threshold=0.1)
        submit = controller.transact
    else:
        submit = bob.transact
    before = session.counters()
    outcomes = []
    for _ in range(ROUNDS):
        alice.transact(lambda: objs[0].set(objs[0].get() + 1))
        outcomes.append(submit(lambda: objs[1].set(objs[1].get() + 1)))
        session.run_for(GAP_MS)
    session.settle()
    after = session.counters()
    assert objs[0].get() == 2 * ROUNDS  # serialization intact either way
    latencies = [o.commit_latency_ms for o in outcomes if o.commit_latency_ms is not None]
    return {
        "retries": after["retries"] - before["retries"],
        "mean_commit_ms": sum(latencies) / len(latencies),
        "suppressions": controller.suppression_entries if controller else 0,
    }


def run_experiment():
    table = Table(
        title=f"E11: adaptive optimism suppression (t = {T:.0f} ms, "
        f"RMW every {GAP_MS:.0f} ms from both parties)",
        headers=["mode", "conflict retries", "mean commit (ms)", "suppression entries"],
    )
    seeds = (1, 2, 3)
    agg = {}
    for governed in (False, True):
        retries, latency, entries = 0, 0.0, 0
        for seed in seeds:
            r = run_case(governed, seed)
            retries += r["retries"]
            latency += r["mean_commit_ms"]
            entries += r["suppressions"]
        agg[governed] = {
            "retries": retries,
            "latency": latency / len(seeds),
            "entries": entries,
        }
        table.add(
            "suppressed (adaptive)" if governed else "raw optimism",
            retries,
            latency / len(seeds),
            entries,
        )
    table.note("suppression trades submission delay for fewer rollbacks")
    return table, agg


def test_e11_suppression(benchmark):
    table, agg = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit("E11", format_table(table))

    # The mechanism engages and reduces conflict retries.
    assert agg[True]["entries"] >= 1
    assert agg[True]["retries"] < agg[False]["retries"]
