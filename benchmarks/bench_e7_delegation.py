"""E7 (ablation) — The delegated-commit optimization (section 3.1).

Paper: with a single remote primary site and no RC guesses, "rather than
waiting for the single primary site to send a confirmation back to the
originating site (which would then send a summary commit), the originating
site 'delegates' the responsibility for committing the whole transaction to
the single remote primary site."

We measure messages per transaction and commit latency at every site with
the optimization on vs. off, in two-party and three-party collaborations.
"""

import pytest

from repro import Session
from repro.bench.report import Table, emit, format_table
from repro import DInt
from repro.core.transaction import TxnState

T = 50.0


def run_case(n_sites: int, delegation: bool):
    session = Session.simulated(latency_ms=T, delegation_enabled=delegation)
    sites = session.add_sites(n_sites)
    objs = session.replicate(DInt, "x", sites, initial=0)
    session.settle()
    msgs_before = session.network.stats.messages_sent
    t0 = session.scheduler.now
    origin = sites[-1]  # remote from the primary (site 0)
    out = origin.transact(lambda: objs[-1].set(1))
    # Track when every site has logged the commit.
    commit_times = {}

    def poll():
        for i, site in enumerate(sites):
            if i not in commit_times and site.engine.status.get(out.vt) is TxnState.COMMITTED:
                commit_times[i] = session.scheduler.now - t0
        if len(commit_times) < n_sites and session.scheduler.now - t0 < 20 * T:
            session.scheduler.call_later(1.0, poll)

    session.scheduler.call_later(0.0, poll)
    session.settle()
    messages = session.network.stats.messages_sent - msgs_before
    return {
        "messages": messages,
        "origin_commit": out.commit_latency_ms,
        "max_commit": max(commit_times.values()),
    }


def run_experiment():
    table = Table(
        title=f"E7: delegated commit ablation (t = {T:.0f} ms, origin remote from primary)",
        headers=["parties", "delegation", "msgs/txn", "commit@origin", "max commit anywhere"],
    )
    results = {}
    for n in (2, 3, 4):
        for delegation in (True, False):
            r = run_case(n, delegation)
            results[(n, delegation)] = r
            table.add(
                n,
                "on" if delegation else "off",
                r["messages"],
                r["origin_commit"],
                r["max_commit"],
            )
    table.note("delegation saves the confirm hop's message on the commit path")
    return table, results


def test_e7_delegation(benchmark):
    table, results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit("E7", format_table(table))

    for n in (2, 3, 4):
        on, off = results[(n, True)], results[(n, False)]
        # Fewer messages with delegation.
        assert on["messages"] < off["messages"]
        # Never slower at the origin; and the system-wide commit wave
        # completes at least as fast.
        assert on["origin_commit"] <= off["origin_commit"]
        assert on["max_commit"] <= off["max_commit"]
    # Two-party case: the delegate commits at t, origin at 2t either way.
    assert results[(2, True)]["origin_commit"] == pytest.approx(2 * T)
