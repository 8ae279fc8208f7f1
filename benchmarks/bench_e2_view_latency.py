"""E2 — View notification latency vs. the section 5.1.2 analysis.

Paper claims (one-way delay t):

* optimistic update notification: immediate at the origin, t at remote
  sites;
* pessimistic update notification: 2t at the originating site, no more
  than 3t at a non-originating site;
* "an optimistic view notification will occur 2t ms before the
  corresponding pessimistic view notification".
"""

import pytest

from repro.bench import attach_probe, two_party_scenario
from repro.bench.report import Table, emit, format_table

T = 50.0


def run_experiment():
    table = Table(
        title=f"E2: view notification latency (t = {T:.0f} ms)",
        headers=["view kind", "site", "paper", "measured_ms"],
    )

    # Origin = bob (remote from the primary at alice): the general case.
    scenario = two_party_scenario(latency_ms=T, delegation_enabled=False)
    opt_origin = attach_probe(scenario.bob, [scenario.b], "optimistic")
    opt_remote = attach_probe(scenario.alice, [scenario.a], "optimistic")
    pess_origin = attach_probe(scenario.bob, [scenario.b], "pessimistic")
    pess_remote = attach_probe(scenario.alice, [scenario.a], "pessimistic")

    t0 = scenario.session.scheduler.now
    scenario.bob.transact(lambda: scenario.b.set(42))
    scenario.session.settle()

    rows = [
        ("optimistic", "origin", "0", opt_origin.first_seen("shared", 42) - t0),
        ("optimistic", "remote", "t", opt_remote.first_seen("shared", 42) - t0),
        ("pessimistic", "origin", "2t", pess_origin.first_seen("shared", 42) - t0),
        ("pessimistic", "remote", "<=3t", pess_remote.first_seen("shared", 42) - t0),
    ]
    for row in rows:
        table.add(*row)

    gap = pess_origin.first_seen("shared", 42) - opt_origin.first_seen("shared", 42)
    table.note(f"optimistic leads pessimistic at origin by {gap:.0f} ms (paper: 2t)")
    return table, dict(((k, s), m) for k, s, _p, m in rows), gap


def test_e2_view_latency(benchmark):
    table, measured, gap = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit("E2", format_table(table))

    assert measured[("optimistic", "origin")] == 0.0
    assert measured[("optimistic", "remote")] == pytest.approx(T)
    assert measured[("pessimistic", "origin")] == pytest.approx(2 * T)
    assert measured[("pessimistic", "remote")] <= 3 * T + 1.0
    assert gap == pytest.approx(2 * T)
