"""E3 — Latency under a range of artificially induced network delays.

Paper (section 5.2.2, first benchmark): "Latency of optimistic and
pessimistic views was measured under a range of artificially induced
network delays, and the observed latencies closely matched the analytical
expectations."

We sweep the one-way delay t and verify the measured view-notification
latencies track the analytic lines (0 and t for optimistic at origin and
remote; 2t and 3t for pessimistic) across the whole range.
"""

import pytest

from repro.bench import attach_probe, two_party_scenario
from repro.bench.report import Table, emit, format_table

DELAYS_MS = [5.0, 10.0, 25.0, 50.0, 100.0, 200.0]


def run_point(t):
    scenario = two_party_scenario(latency_ms=t, delegation_enabled=False)
    opt_o = attach_probe(scenario.bob, [scenario.b], "optimistic")
    opt_r = attach_probe(scenario.alice, [scenario.a], "optimistic")
    pess_o = attach_probe(scenario.bob, [scenario.b], "pessimistic")
    pess_r = attach_probe(scenario.alice, [scenario.a], "pessimistic")
    t0 = scenario.session.scheduler.now
    scenario.bob.transact(lambda: scenario.b.set(7))
    scenario.session.settle()
    return {
        "opt_origin": opt_o.first_seen("shared", 7) - t0,
        "opt_remote": opt_r.first_seen("shared", 7) - t0,
        "pess_origin": pess_o.first_seen("shared", 7) - t0,
        "pess_remote": pess_r.first_seen("shared", 7) - t0,
    }


def run_experiment():
    table = Table(
        title="E3: view latency across network delays (measured vs analytic)",
        headers=[
            "t_ms",
            "opt@origin (0)",
            "opt@remote (t)",
            "pess@origin (2t)",
            "pess@remote (<=3t)",
        ],
    )
    points = []
    for t in DELAYS_MS:
        result = run_point(t)
        points.append((t, result))
        table.add(
            t,
            result["opt_origin"],
            result["opt_remote"],
            result["pess_origin"],
            result["pess_remote"],
        )
    table.note("analytic expectations in parentheses; exact match expected")
    return table, points


def test_e3_delay_sweep(benchmark):
    table, points = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit("E3", format_table(table))

    for t, result in points:
        assert result["opt_origin"] == 0.0
        assert result["opt_remote"] == pytest.approx(t)
        assert result["pess_origin"] == pytest.approx(2 * t)
        assert result["pess_remote"] <= 3 * t + 0.5
        # The paper's "closely matched analytical expectations": pessimistic
        # remote latency is linear in t (slope 3 here).
        assert result["pess_remote"] == pytest.approx(3 * t)
