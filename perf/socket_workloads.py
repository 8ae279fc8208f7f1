"""The four socket workloads: two ``SessionHost``s in one process joined by
two ``TcpTransport``s over the host's loopback interface.

Host A owns site 0 of every tenant (the primary copy), host B owns site 1.
Every write is issued at the non-primary on B, so each commit is a real
guess-validation round trip over the socket pair; the optimistic and the
pessimistic view whose notification latency is measured sit at A, the
*remote* replica.  Both hosts share one event loop and one thread.
"""

from __future__ import annotations

import asyncio
import gc
import random
import shutil
import socket
import tempfile
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro import SessionHost, VirtualTime
from repro.obs import FlightRecorder, TelemetryAggregator, TenantTelemetry, TraceSampler
from repro.obs.prom import flush_periodically
from repro.transport.tcp import TcpTransport

from perf import gate
from perf.common import (
    WARMUP_S,
    GcWatch,
    Slice,
    StampView,
    end_to_end,
    notify_rows,
    percentile,
    quiet,
    rss_kb,
    undisturbed,
)
from perf.layers import TracedWindow
from perf.trace import Tracer

HORIZON = VirtualTime(2**62, 2**30)

#: Tenants joining concurrently during set-up (as benchmarks/bench_scale.py).
SETUP_CONCURRENCY = 64

#: Seconds an issued op may stay unresolved after the window before it fails.
DRAIN_DEADLINE_S = 20.0

#: Open-loop validity limits: the generator's own median lateness, and how
#: much the backlog may grow between the middle and the end of the window
#: (in seconds' worth of offered load).
MAX_GENERATOR_LATE_P50_S = 0.001
MAX_BACKLOG_GROWTH_S = 0.05


@dataclass(frozen=True)
class SocketSpec:
    tenants: int
    clients: int = 0  # closed-loop clients; 0 selects the open loop
    rate: float = 0.0  # open loop: offered writes per second
    observed: bool = False  # run with the operator telemetry plane on
    setups: int = 3  # set-ups per run; setup_s is their median


SPECS: Dict[str, SocketSpec] = {
    "tcp_turn_1client": SocketSpec(tenants=1, clients=1, setups=5),
    "tcp_turn_observed": SocketSpec(tenants=1, clients=1, observed=True, setups=5),
    "host_1k_open": SocketSpec(tenants=1000, rate=1000.0),
    "host_1k_saturated": SocketSpec(tenants=1000, clients=16),
}


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


async def poll(predicate, what: str, deadline_s: float = 60.0, interval_s: float = 0.002) -> None:
    start = perf_counter()
    while not predicate():
        if perf_counter() - start > deadline_s:
            raise TimeoutError(f"timed out waiting for {what}")
        await asyncio.sleep(interval_s)


def committed(outcome) -> bool:
    if outcome.aborted_no_retry:
        raise RuntimeError(f"transaction aborted: {outcome.abort_reason}")
    return outcome.committed


@dataclass
class Tenant:
    """One collaboration: a DInt replicated at A (primary) and B (writer)."""

    tid: int
    site_a: Any
    site_b: Any
    obj_a: Any
    obj_b: Any
    opt: StampView  # A's views of obj_a
    pess: StampView
    last_written: int = 0


class Rig:
    """Two started hosts, their transports and every joined tenant."""

    def __init__(self) -> None:
        addrs = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
        self.transports = [
            TcpTransport(addrs, local_sites={site}, fail_after_ms=60_000.0) for site in (0, 1)
        ]
        self.host_a = SessionHost(self.transports[0], local_sites=(0,), roster=(0, 1))
        self.host_b = SessionHost(self.transports[1], local_sites=(1,), roster=(0, 1))
        self.tenants: List[Tenant] = []
        self.join_wall_s = 0.0

    async def start(self, tenants: int) -> None:
        for transport in self.transports:
            await transport.start()
        sem = asyncio.Semaphore(SETUP_CONCURRENCY)
        join_start = perf_counter()
        self.tenants = list(
            await asyncio.gather(*(self.join(tid, sem) for tid in range(1, tenants + 1)))
        )
        self.join_wall_s = perf_counter() - join_start

    async def join(self, tid: int, sem: asyncio.Semaphore) -> Tenant:
        """Activate one tenant on both hosts and join its replicas through the
        real association / invitation / join protocol across the sockets."""
        async with sem:
            site_a = self.host_a.tenant(tid).sites[0]
            site_b = self.host_b.tenant(tid).sites[0]
            obj_a = site_a.create_int("doc", initial=0)
            assoc = site_a.create_association("doc.assoc")
            outcome = site_a.transact(lambda: assoc.create_relationship("doc.rel"))
            await poll(lambda: committed(outcome), f"t{tid} create_relationship")
            outcome = site_a.join(assoc, "doc.rel", obj_a)
            await poll(lambda: committed(outcome), f"t{tid} owner join")
            assoc_b = site_b.import_invitation(assoc.make_invitation(), "doc.assoc")
            await poll(
                lambda: "doc.rel" in dict(assoc_b.value_at(HORIZON, committed_only=True)),
                f"t{tid} association sync",
            )
            obj_b = site_b.create_int("doc", initial=0)
            outcome = site_b.join(assoc_b, "doc.rel", obj_b)
            await poll(lambda: committed(outcome), f"t{tid} member join")
            now_ms = self.transports[0].now
            # One stamp map per view: tenants' Lamport clocks overlap, so a
            # VT names a transaction only within its own tenant.
            opt, pess = StampView({}, now_ms), StampView({}, now_ms)
            obj_a.attach(opt, mode="optimistic")
            obj_a.attach(pess, mode="pessimistic")
            return Tenant(tid, site_a, site_b, obj_a, obj_b, opt, pess)

    async def stop(self) -> None:
        for transport in self.transports:
            await transport.stop()

    def notify(self, part: Slice, mode: str) -> Tuple[List[float], List[float]]:
        """Notification latencies at A's ``mode`` view (``"opt"`` / ``"pess"``)
        of the tenant each op was written in."""
        tenants = self.tenants
        return notify_rows(part, lambda row: (getattr(tenants[part.origin[row]], mode).seen,))


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------


class Load:
    """Issues blind writes at B; the same object drives warm-up and window."""

    def __init__(self, rig: Rig, spec: SocketSpec, seed: int) -> None:
        self.rig = rig
        self.spec = spec
        # The seed fixes the order tenants are visited in and the values written.
        rng = random.Random(seed)
        self.order = list(range(len(rig.tenants)))
        rng.shuffle(self.order)
        self.marker = rng.randrange(1, 1 << 20)
        self.cursor = 0
        #: Open loop only: per write, how late the generator issued it and
        #: how many earlier writes were still unresolved.
        self.late_s: List[float] = []
        self.backlog: List[int] = []

    def write(self, part: Slice, index: int, t0: float):
        tenant = self.rig.tenants[index]
        self.marker += 1
        tenant.last_written = marker = self.marker
        obj = tenant.obj_b
        return part.issue(t0, index, lambda: tenant.site_b.transact(lambda: obj.set(marker)))

    async def run(self, part: Slice, seconds: float) -> None:
        self.late_s, self.backlog = [], []
        part.begin()
        if self.spec.clients:
            await self._closed(part, seconds)
        else:
            await self._open(part, seconds)
        part.end()

    async def _closed(self, part: Slice, seconds: float) -> None:
        """Each client writes, waits for that commit, then writes to the
        tenant ``clients`` places further on — so a slow system is offered less."""
        loop = asyncio.get_running_loop()
        deadline = perf_counter() + seconds
        clients = self.spec.clients

        async def client(position: int) -> None:
            while perf_counter() < deadline:
                done = loop.create_future()
                outcome = self.write(part, self.order[position % len(self.order)], perf_counter())
                outcome.on_commit(lambda _o, done=done: done.set_result(None))
                await done
                position += clients

        tasks = [asyncio.ensure_future(client(self.cursor + k)) for k in range(clients)]
        self.cursor += clients
        # A client whose op never resolves would wait forever: bound the
        # wait, cancel, and let the unresolved op count as failed.
        _done, stuck = await asyncio.wait(tasks, timeout=seconds + DRAIN_DEADLINE_S)
        for task in stuck:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    async def _open(self, part: Slice, seconds: float) -> None:
        """Writes fall due every 1/rate seconds whatever the system does; each
        is timed from its due time, so a stall is charged to every write it delays."""
        interval = 1.0 / self.spec.rate
        start = perf_counter()
        for k in range(int(seconds * self.spec.rate)):
            due = start + k * interval
            now = perf_counter()
            if due > now:
                await asyncio.sleep(due - now)
                now = perf_counter()
            self.late_s.append(now - due)
            self.backlog.append(len(part.unresolved))
            self.write(part, self.order[self.cursor % len(self.order)], due)
            self.cursor += 1
        # The window's CPU and wall time cover the tail of in-flight commits.
        try:
            await poll(lambda: not part.unresolved, "open-loop tail", deadline_s=DRAIN_DEADLINE_S)
        except TimeoutError:
            pass  # what is still unresolved counts as failed

    def validity_problems(self) -> List[str]:
        """An open-loop run whose generator could not keep its own schedule,
        or whose backlog was still growing, is invalid — not slow."""
        if self.spec.clients or not self.late_s:
            return []
        problems = []
        late_p50 = percentile(sorted(self.late_s), 0.5)
        if late_p50 > MAX_GENERATOR_LATE_P50_S:
            problems.append(
                f"INVALID open loop: generator late by {late_p50 * 1e3:.3f} ms at p50 "
                f"(limit {MAX_GENERATOR_LATE_P50_S * 1e3:g} ms)"
            )
        n = len(self.backlog)
        middle = median(self.backlog[int(0.4 * n):int(0.6 * n)] or [0])
        end = median(self.backlog[int(0.8 * n):] or [0])
        if end - middle > MAX_BACKLOG_GROWTH_S * self.spec.rate:
            problems.append(
                f"INVALID open loop: backlog still growing at the end of the window "
                f"(median {middle:g} mid-window, {end:g} in the last fifth)"
            )
        return problems


# ---------------------------------------------------------------------------
# The operator telemetry plane (tcp_turn_observed)
# ---------------------------------------------------------------------------


class Telemetry:
    """The documented telemetry set-up, as ``examples/two_process_tcp.py
    --trace-dir`` does per process: bus recording, a head sampler at rate
    1.0, the flight recorder, per-tenant windowed aggregation on a 1 s
    window and a periodic Prometheus flush — here once per host."""

    PROM_FLUSH_S = 0.5

    def __init__(self, rig: Rig, scratch: str) -> None:
        self.rig = rig
        self.dir = tempfile.mkdtemp(prefix="telemetry-", dir=scratch)
        self.tasks: List["asyncio.Future[None]"] = []
        self.rss_kb_at_enable = rss_kb()
        sites = [(rig.tenants[0].site_a,), (rig.tenants[0].site_b,)]
        for index, transport in enumerate(rig.transports):
            transport.sampler = TraceSampler(1.0)
            transport.bus.enable()
            transport.flight = FlightRecorder(f"{self.dir}/flight{index}.jsonl")
            transport.flight.attach(transport.bus)
            transport.bus.subscribe(
                TenantTelemetry(TelemetryAggregator(window_ms=1000.0, keep_windows=64, site=index))
            )
            snapshots = [transport.metrics.snapshot] + [s.metrics.snapshot for s in sites[index]]
            self.tasks.append(asyncio.ensure_future(flush_periodically(
                f"{self.dir}/metrics{index}.prom", snapshots, interval_s=self.PROM_FLUSH_S
            )))

    def events(self) -> int:
        return sum(len(transport.bus.events) for transport in self.rig.transports)

    async def close(self) -> None:
        for task in self.tasks:
            task.cancel()
        await asyncio.gather(*self.tasks, return_exceptions=True)
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Probes used by the traced run only
# ---------------------------------------------------------------------------


async def oneway_latency_s(rig: Rig, pings: int = 300) -> List[float]:
    """Half the round trip of a raw frame through ``register``/``send`` on the
    same two transports (tenant 0, which the hosts leave free): the socket
    path with no protocol on top.  Sorted seconds."""
    a, b = rig.transports
    loop = asyncio.get_running_loop()
    waiting: Dict[int, "asyncio.Future[None]"] = {}
    a.register(0, lambda _src, payload: a.send(0, 1, payload))
    b.register(1, lambda _src, payload: waiting.pop(payload).set_result(None))
    samples = []
    try:
        for k in range(pings):
            waiting[k] = loop.create_future()
            start = perf_counter()
            b.send(1, 0, k)
            await waiting[k]
            samples.append((perf_counter() - start) / 2.0)
    finally:
        a.unregister(0)
        b.unregister(1)
    return sorted(samples)


class Ticker:
    """A benchmark-owned task that wakes every ``PERIOD_S``: how late each
    wake-up is measures event-loop lag; it also samples the send backlog."""

    PERIOD_S = 0.005

    def __init__(self, rig: Rig) -> None:
        self.rig = rig
        self.lag_s: List[float] = []
        self.pending_max = 0
        self._task: Optional["asyncio.Future[None]"] = None

    async def _tick(self) -> None:
        while True:
            start = perf_counter()
            await asyncio.sleep(self.PERIOD_S)
            self.lag_s.append(perf_counter() - start - self.PERIOD_S)
            self.pending_max = max(self.pending_max, *(t.pending() for t in self.rig.transports))

    async def __aenter__(self) -> "Ticker":
        self._task = asyncio.ensure_future(self._tick())
        return self

    async def __aexit__(self, *exc: Any) -> None:
        self._task.cancel()
        await asyncio.gather(self._task, return_exceptions=True)


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, traced: bool, quick: bool, scratch: str) -> Dict[str, Any]:
    return asyncio.run(_run(name, seed, seconds, traced, quick, scratch))


async def _set_up(spec: SocketSpec, tracer: Tracer) -> Tuple[Rig, List[float], float]:
    """Set up ``spec.setups`` times, stopping each rig but the last.  Returns the
    last rig, every set-up's wall seconds, and the memory one tenant took."""
    rss_kb_before = rss_kb()
    setup_s: List[float] = []
    rss_kb_per_tenant = 0.0
    rig: Optional[Rig] = None
    tracer.on = tracer.installed  # set-up spans: host.tenant activations
    for attempt in range(spec.setups):
        if rig is not None:
            await rig.stop()
            rig = None
        gc.collect()
        start = perf_counter()
        rig = Rig()
        await rig.start(spec.tenants)
        setup_s.append(perf_counter() - start)
        if attempt == 0:
            gc.collect()
            rss_kb_per_tenant = (rss_kb() - rss_kb_before) / spec.tenants
    tracer.on = False
    assert rig is not None
    return rig, setup_s, rss_kb_per_tenant


def _counts(rig: Rig, tracer: Tracer, telemetry: Optional[Telemetry]) -> Dict[str, int]:
    """Every running count the traced window is a difference of."""
    counts: Dict[str, int] = {}
    for host in (rig.host_a, rig.host_b):
        for key, value in host.counters().items():
            counts[key] = counts.get(key, 0) + value
    views = [view for tenant in rig.tenants for view in (tenant.opt, tenant.pess)]
    counts.update(
        view_updates=sum(view.updates for view in views),
        view_commits=sum(view.commits for view in views),
        frames=tracer.frames_encoded,
        frame_bytes=tracer.bytes_encoded,
        frame_msgs=tracer.msgs_encoded,
        events=telemetry.events() if telemetry else 0,
        spans=len(tracer),
    )
    return counts


async def _run(
    name: str, seed: int, seconds: float, traced: bool, quick: bool, scratch: str
) -> Dict[str, Any]:
    spec = SPECS[name]
    if quick:
        spec = SocketSpec(
            tenants=min(spec.tenants, 16), clients=min(spec.clients, 4),
            rate=min(spec.rate, 200.0), observed=spec.observed, setups=1,
        )
    tracer = Tracer()
    if traced:
        tracer.install([StampView])
    rig, setup_s, rss_kb_per_tenant = await _set_up(spec, tracer)
    setup_totals = tracer.self_times()
    gc.collect()

    load = Load(rig, spec, seed)
    telemetry: Optional[Telemetry] = None
    twin = untraced = Slice()
    oneway: List[float] = []
    try:
        if traced:
            oneway = await oneway_latency_s(rig)
        if spec.observed:
            if traced:
                # The twin: the same rig with telemetry still off.
                await load.run(Slice(), WARMUP_S)
                twin = Slice()
                await load.run(twin, 0.2 * seconds)
                seconds *= 0.8
            telemetry = Telemetry(rig, scratch)
        await load.run(Slice(), WARMUP_S)
        if traced:
            # An untraced slice first, so trace.overhead_ratio compares two
            # slices of one process on one connection.
            untraced = Slice()
            await load.run(untraced, 0.3 * seconds)
            seconds *= 0.7
        window = Slice()
        before = _counts(rig, tracer, telemetry)
        tracer.on = traced
        with GcWatch() as gc_watch:
            async with Ticker(rig) as ticker:
                await load.run(window, seconds)
        tracer.on = False
        after = _counts(rig, tracer, telemetry)
        rss_kb_after_window = rss_kb()
        peer_links = sum(len(getattr(t, "_links", ())) for t in rig.transports)
        problems = load.validity_problems() + await _drain_and_check(rig)
    finally:
        if telemetry is not None:
            await telemetry.close()
        await rig.stop()
        tracer.uninstall()

    result: Dict[str, Any] = {
        "attempted": len(window),
        "failed": window.failed,
        "problems": problems,
        "notes": [
            f"{spec.tenants} tenant(s), "
            + (f"{spec.clients} closed-loop client(s)" if spec.clients
               else f"open loop at {spec.rate:g} writes/s")
            + ", two hosts in one process over loopback TCP"
            + (", operator telemetry on" if spec.observed else "")
        ],
    }
    if not traced:
        metrics, result["samples"] = end_to_end(
            window, rig.notify(window, "opt"), rig.notify(window, "pess"), median(setup_s), quiet
        )
        if spec.clients:
            rate, cpu_s_per_commit = undisturbed(window)
            metrics.update(commits_per_s=rate, cpu_s_per_kcommit=cpu_s_per_commit * 1000.0)
        result["metrics"] = metrics
        return result

    delta = {key: value - before.get(key, 0) for key, value in after.items()}
    commits = max(window.commits, 1)
    activations, activation_s = setup_totals.get("host.tenant", (0, 0.0))
    extra = {
        "tcp.writes_per_commit": delta.get("transport.writes", 0) / commits,
        "tcp.frames_per_write": delta.get("transport.frames_sent", 0)
        / max(delta.get("transport.writes", 0), 1),
        "tcp.pending_max": ticker.pending_max,
        "tcp.oneway_p50_us": percentile(oneway, 0.50) * 1e6,
        "tcp.oneway_p95_us": percentile(oneway, 0.95) * 1e6,
        "host.activate_us_per_tenant": activation_s * 1e6 / max(activations, 1),
        "host.join_ms_per_tenant": rig.join_wall_s * 1e3 / spec.tenants,
        "host.rss_kb_per_tenant": rss_kb_per_tenant,
        "host.peer_links": peer_links,
        "host.active_tenants": len(rig.host_a) + len(rig.host_b),
        "host.frames_dropped_unrouted": after.get("transport.frames_dropped_unrouted", 0),
        "runtime.loop_lag_p99_ms": percentile(sorted(ticker.lag_s), 0.99) * 1e3,
        "runtime.generator_late_p95_ms": percentile(sorted(load.late_s), 0.95) * 1e3
        if load.late_s else 0.0,
    }
    if telemetry is not None:
        # Telemetry on against off, both untraced: the slice before the
        # window against the twin slice before the telemetry was enabled.
        events_per_commit = delta["events"] / commits
        extra.update({
            "obs.events_per_commit": events_per_commit,
            "obs.overhead_ratio": untraced.cpu_us_per_commit / twin.cpu_us_per_commit,
            "obs.cpu_us_per_event": (untraced.cpu_us_per_commit - twin.cpu_us_per_commit)
            / events_per_commit,
            "obs.rss_mb_growth": (rss_kb_after_window - telemetry.rss_kb_at_enable) / 1024.0,
        })
    result["traced"] = TracedWindow(
        totals=tracer.self_times(before["spans"], after["spans"]),
        commits=window.commits,
        cpu_s=window.cpu_s,
        counters=delta,
        untraced_cpu_us_per_commit=untraced.cpu_us_per_commit,
        commit_wall_s=sorted(s for s in window.commit_s if s == s),
        gc=gc_watch,
        extra=extra,
    )
    result["tracer"] = tracer
    return result


async def _drain_and_check(rig: Rig) -> List[str]:
    """Wait until every written tenant's last value is shown at A, let both
    transports go idle, then run the correctness gate on every tenant."""
    written = [tenant for tenant in rig.tenants if tenant.last_written]
    problems: List[str] = []
    try:
        await poll(
            lambda: all(
                t.opt.last == t.last_written and t.pess.last == t.last_written for t in written
            ),
            "last written values visible in the remote views", deadline_s=DRAIN_DEADLINE_S,
        )
    except TimeoutError:
        pass  # reported per tenant by shown_problems below
    for transport in rig.transports:
        await transport.aquiesce()
    for tenant in written:
        label = f"tenant {tenant.tid}"
        problems += gate.shown_problems(label, tenant.last_written, (tenant.opt, tenant.pess))
        problems += gate.replica_group_problems(label, (tenant.site_a, tenant.site_b))
    return problems
