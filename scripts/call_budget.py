"""Where the Python calls of a commit go, by module and by function; and,
with ``--tenants N``, what a hosted tenant costs.

Replays the two scenarios ``tests/test_call_budget.py`` pins (4 sites x 2
``DInt``s, both views on every replica, 240 transactions: blind writes, and
the read-modify-write twin) under ``sys.setprofile`` and prints calls per
commit for every ``repro`` module and for the busiest functions — the same
frames the test counts, with the test's own counter, so the totals are its
ceilings' readings.  Also prints the two counts that are not calls: import
statements executed and dataclass ``__init__``s (generated code, compiled
under ``<string>``) and, below the table, the GC-tracked objects a commit
and a user-aborted transaction leave behind on two sites (the test's
retention pins), and the traced bytes and GC-tracked objects one recorded
event keeps under the documented telemetry set-up
(``tests/test_obs_budget.py``'s socket-path stream).

With ``--tenants N`` it instead joins N tenants on two hosts over loopback
TCP through the real invitation / join protocol (the test's tenant census)
and prints the GC-tracked objects one tenant holds, charged to the nearest
``repro`` object that references each, then the split of one N-tenant
set-up: frames sent and join retries per tenant, protocol CPU, wire-codec
time, collector pauses (gen-2 apart), and what the first collection after
``await stop()`` frees and costs.

Counts are exact for a seed and do not depend on the host (the census is
within a fraction of an object); start a perf change from this table, then
measure with ``perf/run.py``.  The set-up split is a clock reading.

    PYTHONPATH=src python scripts/call_budget.py [--top 40]
    PYTHONPATH=src python scripts/call_budget.py --tenants 50 [--top 40]
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import os
import sys
import time
from collections import Counter, deque

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from repro.transport import tcp  # noqa: E402
from tests import test_call_budget as budget  # noqa: E402
from tests import test_obs_budget as obs_budget  # noqa: E402
from tests.test_host import TcpHostPair  # noqa: E402


def calls(top: int) -> None:
    per = float(budget.TXNS)
    for name, build_args in budget.SCENARIOS.items():
        session, _sites, outcomes = budget._build(**build_args)
        stats = session.network.stats
        sent = stats.messages_sent
        counts = budget._count(session.settle)
        sent = stats.messages_sent - sent
        assert len(outcomes) == budget.TXNS and all(o.committed for o in outcomes)
        by_module: Counter = Counter()
        for (module, _function), n in counts.by_function.items():
            by_module[module] += n
        print(
            f"== {name}: {counts.calls / per:.1f} Python calls per commit, "
            f"{counts.dataclass_inits / per:.1f} dataclass __init__s, "
            f"{counts.imports / per:.1f} import statements executed"
        )
        for module, n in by_module.most_common():
            print(f"  {n / per:8.1f}  {module}")
        fabric = by_module[os.path.join("sim", "network.py")] + by_module[
            os.path.join("sim", "scheduler.py")
        ]
        print(f"  {fabric / sent:8.1f}  simulated fabric calls per message ({sent} messages)")
        print(f"  -- top {top} functions")
        for (module, function), n in counts.by_function.most_common(top):
            print(f"  {n / per:8.1f}  {module}:{function}")
    per_commit, _objs = budget.retained_per_transaction(budget.RETAIN_COMMITS, budget.write)
    per_abort, _objs = budget.retained_per_transaction(
        budget.RETAIN_USER_ABORTS, budget.write_then_raise
    )
    print(
        f"== retained on two sites after warm-up: {per_commit:.4f} GC-tracked objects "
        f"per commit, {per_abort:.4f} per user-aborted transaction"
    )
    per_event, tracked = obs_budget.recorded_event_cost()
    print(
        f"== retained per recorded event (recording, flight recorder, tenant telemetry; "
        f"{len(obs_budget.SOCKET_COMMIT)} socket-path events per commit): "
        f"{per_event:.1f} traced bytes, {tracked:.3f} GC-tracked objects"
    )


def by_owner(census: budget.TenantCensus) -> Counter:
    """Charge every object of the census to the nearest ``repro`` object
    that references it, walking breadth-first from the hosts' tenant
    records and the transports' per-tenant handler tables."""
    new = {id(obj): obj for obj in census.objects}
    owner = {}
    queue: deque = deque()
    pair = census.pair
    roots = [
        (record, "SessionHost")
        for host in (pair.host_a, pair.host_b)
        for record in host._active.values()
    ]
    roots += [
        (entry, "TcpTransport")
        for transport in (pair.tcp_a, pair.tcp_b)
        for table in (transport._handlers, transport._failure_handlers)
        for entry in table.values()
    ]
    for obj, name in roots:
        if id(obj) in new and id(obj) not in owner:
            owner[id(obj)] = name
            queue.append(obj)
    while queue:
        obj = queue.popleft()
        module = getattr(type(obj), "__module__", "") or ""
        label = type(obj).__name__ if module.startswith("repro") else owner[id(obj)]
        for ref in gc.get_referents(obj):
            if id(ref) in new and id(ref) not in owner:
                owner[id(ref)] = label
                queue.append(ref)
    return Counter(
        (owner.get(id(obj), "(unreached)"), type(obj).__name__) for obj in census.objects
    )


def census(tenants: int, top: int) -> None:
    result = asyncio.run(budget.TenantCensus(tenants).run())
    per_tenant = result.per_tenant
    table = by_owner(result)
    with_dicts = result.with_dicts
    print(
        f"== census: {tenants} tenants joined on two hosts, both views on host A's "
        f"replica: {per_tenant:.1f} GC-tracked objects per tenant "
        f"(ceiling {budget.TENANT_GC_OBJECTS_CEILING}; {with_dicts:.1f} with every "
        f"instance dict, ceiling {budget.TENANT_GC_OBJECTS_WITH_DICTS_CEILING})"
    )
    owners: Counter = Counter()
    for (name, _kind), n in table.items():
        owners[name] += n
    for name, n in owners.most_common():
        print(f"  {n / tenants:8.2f}  {name}")
    print(f"  -- top {top} (owner, type)")
    for (name, kind), n in table.most_common(top):
        print(f"  {n / tenants:8.2f}  {name}: {kind}")


class _Pauses:
    """Collector pauses by generation, through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = [0.0, 0.0, 0.0]
        self.count = [0, 0, 0]
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds[info["generation"]] += time.perf_counter() - self._start
            self.count[info["generation"]] += 1


def _timed(fn, total: list, pauses: _Pauses):
    """``fn`` with its time added to ``total[0]``, less the collector
    pauses that fell inside it (an allocation in the codec can trigger a
    gen-2 pass over the whole host)."""

    def timed(*args, **kwargs):
        start, paused = time.perf_counter(), sum(pauses.seconds)
        try:
            return fn(*args, **kwargs)
        finally:
            total[0] += time.perf_counter() - start - (sum(pauses.seconds) - paused)

    return timed


def _join_counts(hosts) -> tuple:
    """Frames sent and transaction retries, summed over both hosts."""
    counters = [host.counters() for host in hosts]
    return (
        sum(c["transport.frames_sent"] for c in counters),
        sum(c.get("retries", 0) for c in counters),
    )


async def _split(tenants: int) -> dict:
    pair = TcpHostPair()
    await pair.__aenter__()
    await budget.join_tenants(pair, [0])
    codec = [0.0]
    pauses = _Pauses()
    real = tcp.encode_frame, tcp.decode_frame
    tcp.encode_frame, tcp.decode_frame = (_timed(fn, codec, pauses) for fn in real)
    hosts = pair.host_a, pair.host_b
    before = _join_counts(hosts)
    gc.collect()
    gc.callbacks.append(pauses)
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        await budget.join_tenants(pair, range(1, tenants + 1))
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    finally:
        gc.callbacks.remove(pauses)
        tcp.encode_frame, tcp.decode_frame = real
    await pair.tcp_a.aquiesce(settle_ms=20)
    await pair.tcp_b.aquiesce(settle_ms=20)
    frames, retries = (n - m for n, m in zip(_join_counts(hosts), before))
    await pair.__aexit__()
    del pair
    start = time.perf_counter()
    freed = gc.collect()
    collect_s = time.perf_counter() - start
    await asyncio.sleep(0)
    start = time.perf_counter()
    freed_late = gc.collect()
    late_s = time.perf_counter() - start
    return {
        "wall": wall, "cpu": cpu, "codec": codec[0], "pauses": pauses,
        "frames": frames, "retries": retries,
        "freed": freed, "collect": collect_s, "freed_late": freed_late, "late": late_s,
    }


def split(tenants: int) -> None:
    s = asyncio.run(_split(tenants))
    pauses = s["pauses"]
    paused = sum(pauses.seconds)
    ms = 1e3
    print(f"== set-up split: {tenants} tenants joined after a warm-up tenant")
    print(
        f"  {s['frames'] / tenants:9.2f}     frames sent per tenant, "
        f"{s['retries'] / tenants:.2f} join retries"
    )
    print(f"  {s['wall'] * ms:9.1f} ms  wall (joins poll every 10 ms)")
    print(f"  {(s['cpu'] - paused) * ms:9.1f} ms  protocol CPU (process time less the pauses)")
    print(f"  {s['codec'] * ms:9.1f} ms    of it in encode_frame / decode_frame")
    print(
        f"  {(pauses.seconds[0] + pauses.seconds[1]) * ms:9.1f} ms  gen-0/1 pauses "
        f"({pauses.count[0]} + {pauses.count[1]})"
    )
    print(f"  {pauses.seconds[2] * ms:9.1f} ms  gen-2 pauses ({pauses.count[2]})")
    print(
        f"  {s['collect'] * ms:9.1f} ms  first collect after await stop(): "
        f"{s['freed']} objects freed"
    )
    print(
        f"  {s['late'] * ms:9.1f} ms  the next one, after a loop turn: "
        f"{s['freed_late']} objects freed"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=40, help="rows to list per table")
    parser.add_argument(
        "--tenants", type=int, default=0,
        help="print the per-tenant census and set-up split for N tenants instead",
    )
    args = parser.parse_args()
    if args.tenants > 0:
        census(args.tenants, args.top)
        split(args.tenants)
    else:
        calls(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
