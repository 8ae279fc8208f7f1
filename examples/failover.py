#!/usr/bin/env python3
"""Failure handling: a client crashes mid-collaboration (paper section 3.4).

Three users share a counter.  The site hosting the PRIMARY copy crashes
while a transaction from another site is still waiting for its
confirmation.  The survivors: (1) resolve the failed site's in-flight
transactions by checking who logged a commit, (2) repair the replication
graphs at the virtual time the same coordinator round agreed on (the
failed site WAS the primary — the circularity case), and (3)
automatically re-execute the blocked transaction under the newly implied
primary.

Run:  python examples/failover.py
"""

from repro import Session
from repro.sim.network import FixedLatency
from repro import DInt


def main():
    print("== DECAF failure handling demo ==\n")
    session = Session.simulated(latency_ms=30.0, delegation_enabled=False)
    s0, s1, s2 = session.add_sites(3, prefix="user")
    counters = session.replicate(DInt, "counter", [s0, s1, s2], initial=0)
    session.settle()

    print(f"-- replication graph: sites {counters[1].graph().sites()}, "
          f"primary at site {counters[1].primary_site()} ({s0.name}) --")

    s1.transact(lambda: counters[1].set(10))
    session.settle()
    print(f"   normal update: all replicas = "
          f"{[o.get() for o in counters]}")

    print(f"\n-- {s0.name} (the primary!) goes dark while {s2.name}'s "
          f"transaction is awaiting confirmation --")
    # Confirmations from the primary to s2 are stuck in a dead link.
    session.network.set_link_latency(0, 2, FixedLatency(1_000_000.0))
    blocked = s2.transact(lambda: counters[2].set(20))
    session.run_for(100)
    print(f"   before failure: committed={blocked.committed} "
          f"(waiting on site 0)")
    session.network.fail_site(0)
    session.settle()

    print(f"   after failover: committed={blocked.committed} "
          f"(attempts={blocked.attempts}, re-executed under new primary)")
    print(f"   repaired graph: sites {counters[1].graph().sites()}, "
          f"new primary at site {counters[1].primary_site()}")
    print(f"   survivor replicas: s1={counters[1].get()} s2={counters[2].get()}")
    assert blocked.committed
    assert counters[1].get() == counters[2].get() == 20
    assert counters[1].graph().sites() == [1, 2]

    print(f"\n-- collaboration continues among the survivors --")
    out = s1.transact(lambda: counters[1].set(counters[1].get() + 1))
    session.settle()
    print(f"   increment committed={out.committed}; replicas: "
          f"s1={counters[1].get()} s2={counters[2].get()}")
    assert counters[1].get() == counters[2].get() == 21
    print("\nOK: fail-stop crash of a primary handled; no state lost.")


if __name__ == "__main__":
    main()
