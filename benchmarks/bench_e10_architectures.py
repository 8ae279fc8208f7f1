"""E10 — Architecture comparison: interactive responsiveness (sections 1 & 6).

The paper's motivating claim: replicated architectures with optimistic
concurrency control give single-user GUI responsiveness at the initiating
site, while pessimistic (database-style) locking and non-replicated
(shared-server) architectures pay network round trips before the user's own
display can echo.

We measure, for 2..8 parties at one-way delay t:

* local-echo latency at a non-privileged site (the user's own display),
* commit/stability latency at the origin,
* remote visibility latency (when other users see the update).
"""

import pytest

from repro import Session
from repro.baselines import CentralizedSystem, GvtSystem, LockingSystem
from repro.bench.report import Table, emit, format_table
from repro import DInt

T = 50.0


def decaf_point(n_sites):
    session = Session.simulated(latency_ms=T)
    sites = session.add_sites(n_sites)
    objs = session.replicate(DInt, "x", sites, initial=0)
    session.settle()
    origin = sites[-1]
    out = origin.transact(lambda: objs[-1].set(1))
    echo = out.local_apply_time_ms - out.start_time_ms
    session.settle()
    return {
        "echo": echo,
        "commit": out.commit_latency_ms,
        "remote_visible": T,  # one WRITE hop, by protocol (asserted in E2)
    }


def baseline_point(cls, n_sites):
    system = cls(n_sites=n_sites, latency_ms=T)
    if isinstance(system, GvtSystem):
        system.run_for(4 * n_sites * T)
    t0 = system.scheduler.now
    probe = system.issue_update(n_sites - 1, 1)
    system.run_for(20 * n_sites * T + 1000)
    visible = [
        probe.visible_ms[s] - t0 for s in range(n_sites) if s != n_sites - 1
    ]
    return {
        "echo": probe.local_echo_latency(),
        "commit": probe.commit_latency_at(n_sites - 1),
        "remote_visible": min(visible) if visible else None,
    }


def run_experiment():
    table = Table(
        title=f"E10: architecture comparison (t = {T:.0f} ms, update from a non-privileged site)",
        headers=["parties", "architecture", "local echo", "commit@origin", "first remote visible"],
    )
    results = {}
    for n in (2, 4, 8):
        rows = {
            "DECAF (replicated+optimistic)": decaf_point(n),
            "GVT-sweep groupware": baseline_point(GvtSystem, n),
            "primary-copy locking": baseline_point(LockingSystem, n),
            "centralized server": baseline_point(CentralizedSystem, n),
        }
        for name, r in rows.items():
            results[(n, name)] = r
            table.add(n, name, r["echo"], r["commit"], r["remote_visible"])
    table.note("paper: the GUI must be as responsive as a single-user GUI at sites that initiate updates")
    return table, results


def test_e10_architectures(benchmark):
    table, results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit("E10", format_table(table))

    for n in (2, 4, 8):
        decaf = results[(n, "DECAF (replicated+optimistic)")]
        gvt = results[(n, "GVT-sweep groupware")]
        locking = results[(n, "primary-copy locking")]
        central = results[(n, "centralized server")]
        # Optimistic replicated architectures echo instantly...
        assert decaf["echo"] == 0.0
        assert gvt["echo"] == 0.0
        # ...while locking and centralized pay a 2t round trip first.
        assert locking["echo"] == pytest.approx(2 * T)
        assert central["echo"] == pytest.approx(2 * T)
        # DECAF commits in 2t regardless of n; the GVT sweep's commit grows.
        assert decaf["commit"] == pytest.approx(2 * T)
        assert gvt["commit"] > decaf["commit"]
    # GVT commit grows with the network; DECAF stays flat.
    assert (
        results[(8, "GVT-sweep groupware")]["commit"]
        > results[(2, "GVT-sweep groupware")]["commit"]
    )
    assert (
        results[(8, "DECAF (replicated+optimistic)")]["commit"]
        == results[(2, "DECAF (replicated+optimistic)")]["commit"]
    )
