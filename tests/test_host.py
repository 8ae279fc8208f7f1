"""Tests for the multi-tenant SessionHost and tenant-addressed transports.

Covers the roster/add_site edge cases that only exist under multiplexing:
duplicate site ids across tenants, eviction while messages are in flight,
and cross-tenant isolation of failure notifications — plus the
TenantTransport facade, tenant 0 as an ordinary tenant, and hosting over
real loopback sockets.
"""

import asyncio
import gc
import time
import weakref

import pytest

from repro import DInt, Placement, Session, SessionHost, TenantTransport, VirtualTime
from repro.vtime import VT_TOP
from repro.core.messages import CommitMsg
from repro.errors import ReproError, TransportError
from repro.sim.network import FixedLatency, Network
from repro.sim.scheduler import Scheduler
from repro.obs.causal import build_causal_graph, commit_critical_paths
from repro.transport import MemoryTransport, TcpTransport
from tests.test_tcp_transport import two_addrs, wait_for


def sim_transport(latency_ms: float = 10.0, seed: int = 0) -> Network:
    return Network(Scheduler(), latency=FixedLatency(latency_ms), seed=seed)


@pytest.mark.parametrize("make_transport", [MemoryTransport, sim_transport])
class TestTenantKeys:
    """Every fabric keys its own tables by the ``(tenant, site)`` pair."""

    def test_distinct_tenants_never_collide(self, make_transport):
        inner = make_transport()
        got = {}
        for tenant in range(50):
            facade = TenantTransport(inner, tenant)
            for site in range(4):
                key = (tenant, site)
                facade.register(site, lambda src, p, key=key: got.setdefault(key, (src, p)))
        assert len(inner._handlers) == 50 * 4
        for tenant in range(50):
            TenantTransport(inner, tenant).send(3, 0, tenant)
        inner.quiesce()
        # One delivery per tenant, each to that tenant's own site 0.
        assert got == {(tenant, 0): (3, tenant) for tenant in range(50)}

    def test_handlers_see_tenant_local_ids(self, make_transport):
        inner = make_transport()
        got = []
        inner.register_scoped(12345, 5, lambda src, p: got.append((src, p)))
        inner.send_scoped(12345, 3, 5, "x")
        inner.quiesce()
        assert got == [(3, "x")]
        assert list(inner._handlers) == [(12345, 5)]

    def test_tenant_zero_facade_and_bare_session_share_replicas(self, make_transport):
        inner = make_transport()
        got = []
        TenantTransport(inner, 0).register(0, lambda src, p: got.append(p))
        inner.send(1, 0, "bare")  # the flat names are tenant 0
        inner.quiesce()
        assert got == ["bare"]
        assert list(inner._handlers) == [(0, 0)]

    def test_negative_tenant_rejected(self, make_transport):
        with pytest.raises(TransportError, match="non-negative"):
            TenantTransport(make_transport(), -1)


class TestTenantTransport:
    def test_tenant_zero_facade_is_the_bare_namespace(self):
        inner = MemoryTransport()
        facade = TenantTransport(inner, 0)
        got = []
        facade.register(0, lambda src, payload: got.append((src, payload)))
        inner.register(1, lambda src, payload: got.append((src, payload)))
        inner.send(1, 0, "bare -> facade")  # a bare sender reaches the facade's site
        facade.send(0, 1, "facade -> bare")  # and the other way round
        inner.drain()
        assert got == [(1, "bare -> facade"), (0, "facade -> bare")]
        with pytest.raises(TransportError, match="non-negative"):
            TenantTransport(inner, -3)

    def test_session_runs_unchanged_over_facade(self):
        inner = MemoryTransport()
        session = Session(transport=TenantTransport(inner, 4))
        alice, bob = session.add_sites(2)
        a, b = session.replicate(DInt, "x", [alice, bob], initial=1)
        alice.transact(lambda: a.set(41))
        session.settle()
        assert b.get() == 41

    def test_capability_protocol_passes_through(self):
        sim = sim_transport()
        facade = TenantTransport(sim, 2)
        assert facade.scheduler() is sim.scheduler()
        assert facade.network() is sim
        session = Session(transport=facade)
        assert session.scheduler is sim.scheduler()
        mem_session = Session(transport=TenantTransport(MemoryTransport(), 2))
        assert mem_session.scheduler is None
        assert mem_session.network is None

    def test_detach_removes_routing_state(self):
        inner = MemoryTransport()
        facade = TenantTransport(inner, 3)
        got = []
        facade.register(0, lambda src, payload: got.append(payload))
        facade.send(1, 0, "hello")  # needs src? memory validates dst only
        inner.drain()
        assert got == ["hello"]
        facade.detach()
        with pytest.raises(TransportError):
            facade.send(1, 0, "gone")  # destination no longer registered


class TestDuplicateSiteIdsAcrossTenants:
    def test_same_site_ids_do_not_collide(self):
        transport = MemoryTransport()
        host = SessionHost(transport, local_sites=(0, 1), roster=(0, 1))
        s1 = host.tenant(1)
        s2 = host.tenant(2)
        # Both tenants use site ids 0 and 1 — the classic collision the
        # tenant namespace must prevent.
        assert [s.site_id for s in s1.sites] == [0, 1]
        assert [s.site_id for s in s2.sites] == [0, 1]
        a1, b1 = s1.replicate(DInt, "x", s1.sites, initial=10)
        a2, b2 = s2.replicate(DInt, "x", s2.sites, initial=20)
        s1.sites[0].transact(lambda: a1.set(11))
        s2.sites[0].transact(lambda: a2.set(22))
        host.settle()
        assert (b1.get(), b2.get()) == (11, 22)
        # Same names, same site ids, fully isolated state.
        assert a1.get() != a2.get()

    def test_duplicate_within_one_tenant_still_rejected(self):
        host = SessionHost(MemoryTransport(), local_sites=(0,))
        session = host.tenant(1)
        with pytest.raises(ReproError, match="already exists"):
            session.add_site("again", site_id=0)


class TestEvictionInFlight:
    def test_eviction_drops_in_flight_frames_without_crashing(self):
        sim = sim_transport()
        host = SessionHost(sim, local_sites=(0, 1), roster=(0, 1))
        doomed = host.tenant(5)
        survivor = host.tenant(6)
        d0, d1 = doomed.replicate(DInt, "x", doomed.sites, initial=0)
        v0, v1 = survivor.replicate(DInt, "x", survivor.sites, initial=0)
        dropped_before = sim.stats.messages_dropped
        # Launch writes in both tenants, then evict one while its commit
        # traffic is still in flight.
        doomed.sites[0].transact(lambda: d0.set(9))
        survivor.sites[0].transact(lambda: v0.set(7))
        assert host.evict(5)
        host.settle()  # must not raise on deliveries to the evicted tenant
        assert v1.get() == 7  # the surviving tenant is unaffected
        assert sim.stats.messages_dropped > dropped_before
        assert host.stats() == {"active": 1, "activations": 2, "evictions": 1}

    def test_evict_unknown_tenant_is_false(self):
        host = SessionHost(MemoryTransport(), local_sites=(0,))
        assert host.evict(99) is False

    def test_lru_bound_evicts_least_recently_used(self):
        host = SessionHost(MemoryTransport(), local_sites=(0,), max_active=2)
        host.tenant(1)
        host.tenant(2)
        host.tenant(1)  # touch 1: now 2 is the LRU
        host.tenant(3)  # exceeds the bound -> evict 2
        assert host.active_tenants == [1, 3]
        assert host.stats()["evictions"] == 1

    def test_reactivation_after_eviction_starts_fresh(self):
        host = SessionHost(MemoryTransport(), local_sites=(0,))
        first = host.tenant(7)
        host.evict(7)
        second = host.tenant(7)
        assert second is not first
        assert host.stats()["activations"] == 2


class TestCrossTenantFailureIsolation:
    def test_failure_notice_stays_within_its_tenant(self):
        sim = sim_transport()
        host = SessionHost(sim, local_sites=(0, 1), roster=(0, 1))
        s1 = host.tenant(1)
        s2 = host.tenant(2)
        notices1, notices2 = [], []
        s1.transport.add_failure_listener(notices1.append)
        s2.transport.add_failure_listener(notices2.append)
        # Fail tenant 1's site 1 only.
        s1.transport.fail_site(1)
        host.settle()
        assert notices1 == [1]  # the tenant-local id
        assert notices2 == []
        assert s1.transport.is_failed(1)
        assert not s2.transport.is_failed(1)

    def test_unscoped_failures_do_not_leak_into_tenants(self):
        sim = sim_transport()
        # An unscoped (tenant-0) session and a hosted tenant share the fabric.
        flat = Session(transport=sim)
        flat.add_site("flat0", site_id=0)
        flat.add_site("flat1", site_id=1)
        host = SessionHost(sim, local_sites=(0, 1), roster=(0, 1))
        tenant = host.tenant(3)
        notices = []
        tenant.transport.add_failure_listener(notices.append)
        sim.fail_site(1)  # flat site 1, not the tenant's site 1
        host.settle()
        assert notices == []
        assert not tenant.transport.is_failed(1)


class TestSimulatedFabricNamesReplicasLikeTcp:
    def test_hosted_tenant_reads_like_tenant_zero_in_the_causal_graph(self):
        """The same remote commit, as tenant 0 and as tenant 2 of one
        Network, yields the same happens-before graph and the same
        critical-path attribution: message events carry the tenant-local
        site (program order with the site's protocol events) and the
        tenant in their data."""
        sim = sim_transport()
        host = SessionHost(sim, local_sites=(0, 1), roster=(0, 1))
        runs = {}
        for tid in (0, 2):
            session = host.tenant(tid)
            replicas = session.replicate(DInt, "x", session.sites, initial=0)
            sim.bus.enable()
            start = len(sim.bus.events)
            # Site 1 is not the primary: the commit needs site 0's validation.
            session.sites[1].transact(lambda: replicas[1].set(7))
            host.settle()
            sim.bus.disable()
            runs[tid] = sim.bus.events[start:]
        for tid, events in runs.items():
            messages = [e for e in events if e.kind.startswith("message_")]
            assert messages and {e.site for e in messages} <= {0, 1}
            assert {e.data["tenant"] for e in messages} == {tid}
        assert build_causal_graph(runs[0]).counts() == build_causal_graph(runs[2]).counts()
        (path0,), (path2,) = (commit_critical_paths(runs[tid]) for tid in (0, 2))
        assert path0.segments == path2.segments
        assert path0.segments["transit"] == 10.0
        for path in (path0, path2):
            assert (path.origin, path.validator_site) == (1, 0)

    def test_retry_timer_is_offered_under_the_tenant_local_site(self):
        sim = sim_transport()
        offered = []

        class Controller:
            def offer_timer(self, site, fire, delay_ms):
                offered.append((site, delay_ms))

        sim.choice = Controller()
        TenantTransport(sim, 2).defer(lambda: None, 5.0, site=1)
        assert offered == [(1, 5.0)]


class TestHostObservability:
    def test_counters_aggregate_across_tenants(self):
        host = SessionHost(MemoryTransport(), local_sites=(0, 1), roster=(0, 1))
        for tid in (1, 2, 3):
            session = host.tenant(tid)
            objs = session.replicate(DInt, "x", session.sites, initial=0)
            session.sites[0].transact(lambda o=objs[0]: o.set(tid))
        host.settle()
        counters = host.counters()
        assert counters["commits"] >= 3  # at least one commit per tenant
        snaps = host.metrics_snapshot()
        assert [s["tenant"] for s in snaps] == [1, 1, 2, 2, 3, 3]

    def test_shared_bus_across_tenants(self):
        host = SessionHost(MemoryTransport(), local_sites=(0,))
        s1, s2 = host.tenant(1), host.tenant(2)
        assert s1.bus is s2.bus  # one EventBus across tenants

    @pytest.mark.parametrize("make_transport", [MemoryTransport, sim_transport])
    def test_tenant_zero_is_an_ordinary_tenant(self, make_transport):
        host = SessionHost(make_transport(), local_sites=(0, 1), roster=(0, 1))
        replicas = {}
        for tid in (0, 1):
            session = host.tenant(tid)
            replicas[tid] = session.replicate(DInt, "x", session.sites, initial=0)
            session.sites[0].transact(lambda o=replicas[tid][0], v=tid + 10: o.set(v))
        host.settle()
        assert [replicas[tid][1].get() for tid in (0, 1)] == [10, 11]
        assert host.active_tenants == [0, 1]
        assert host.evict(0) and host.active_tenants == [1]
        with pytest.raises(ReproError, match="non-negative"):
            host.tenant(-1)


class TestSessionTransportCounters:
    def test_session_counters_include_transport_registry(self):
        # Satellite fix: the transport-level (site -1) registry must land
        # in Session.counters()/metrics_snapshot() rollups.
        addrs = {0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2)}
        tcp = TcpTransport(addrs, local_sites={0})
        session = Session(transport=tcp, roster={0, 1})
        session.add_site("proc0", site_id=0)
        tcp.metrics.set_counter("transport.frames_sent", 3)
        assert tcp.frames_sent == 3
        with pytest.raises(AttributeError):
            tcp.frames_sent = 4  # read-only, like obs.metrics.counter_property
        counters = session.counters()
        assert counters["transport.frames_sent"] == 3
        assert "commits" in counters
        snaps = session.metrics_snapshot()
        assert snaps[-1]["site"] == -1
        assert snaps[-1]["counters"]["transport.frames_sent"] == 3


class TestPlacement:
    def test_symmetric_default_with_overrides(self):
        a, b, c = ("h", 1), ("h", 2), ("h", 3)
        placement = Placement({0: a, 1: b}, per_tenant={7: {1: c}})
        assert placement.addr_of(1, 0) == a
        assert placement.addr_of(1, 1) == b
        assert placement.addr_of(7, 1) == c  # migrated replica
        assert placement.addr_of(7, 0) == a
        assert placement.sites_at(1, b) == [1]
        assert placement.sites_at(7, b) == []
        assert placement.sites_at(7, c) == [1]


# ---------------------------------------------------------------------------
# Hosting over real sockets: two SessionHosts, one loopback link, tenants
# 0, 1 and 2 all using site ids 0 (host A) and 1 (host B).
# ---------------------------------------------------------------------------


async def join_doc(site_a, site_b, label: str):
    """Replicate one DInt across the link through the real association /
    invitation / join protocol; returns (obj_a, obj_b)."""
    obj_a = site_a.create_int("doc", initial=0)
    assoc = site_a.create_association("doc.assoc")
    outcome = site_a.transact(lambda: assoc.create_relationship("doc.rel"))
    await wait_for(lambda: outcome.committed, what=f"{label} create_relationship")
    outcome = site_a.join(assoc, "doc.rel", obj_a)
    await wait_for(lambda: outcome.committed, what=f"{label} owner join")
    assoc_b = site_b.import_invitation(assoc.make_invitation(), "doc.assoc")
    await wait_for(
        lambda: "doc.rel" in dict(assoc_b.value_at(VT_TOP, committed_only=True)),
        what=f"{label} association sync",
    )
    obj_b = site_b.create_int("doc", initial=0)
    outcome = site_b.join(assoc_b, "doc.rel", obj_b)
    await wait_for(lambda: outcome.committed, what=f"{label} member join")
    return obj_a, obj_b


class TcpHostPair:
    """Host A (site 0) and host B (site 1) joined by two loopback TcpTransports."""

    def __init__(self, **host_kwargs) -> None:
        addrs = two_addrs()
        self.tcp_a, self.tcp_b = (
            TcpTransport(
                addrs, local_sites={site}, reconnect_base_ms=5.0,
                reconnect_max_ms=20.0, fail_after_ms=150.0,
            )
            for site in (0, 1)
        )
        self.host_a = SessionHost(self.tcp_a, local_sites=(0,), roster=(0, 1), **host_kwargs)
        self.host_b = SessionHost(self.tcp_b, local_sites=(1,), roster=(0, 1), **host_kwargs)

    async def __aenter__(self) -> "TcpHostPair":
        await self.tcp_a.start()
        await self.tcp_b.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.tcp_a.stop(flush=False)
        await self.tcp_b.stop(flush=False)

    async def join(self, tid: int):
        """Join tenant ``tid``'s replicas on both hosts; (obj_a, obj_b)."""
        return await join_doc(
            self.host_a.tenant(tid).sites[0], self.host_b.tenant(tid).sites[0], f"t{tid}"
        )

    def listen(self, host: SessionHost, tenants) -> dict:
        """Failure notices per tenant, as each tenant's own facade reports them."""
        notices = {tid: [] for tid in tenants}
        for tid in tenants:
            host.tenant(tid).transport.add_failure_listener(notices[tid].append)
        return notices


class TestHostingOverTcp:
    def test_tenants_zero_one_two_converge_over_one_link(self):
        async def main():
            async with TcpHostPair() as pair:
                docs = {tid: await pair.join(tid) for tid in (0, 1, 2)}
                for tid, (_obj_a, obj_b) in docs.items():
                    site_b = pair.host_b.tenant(tid).sites[0]
                    site_b.transact(lambda o=obj_b, v=100 + tid: o.set(v))
                await wait_for(
                    lambda: all(docs[t][0].get() == 100 + t for t in docs),
                    what="every tenant's write to reach host A",
                )
                assert [docs[t][1].get() for t in (0, 1, 2)] == [100, 101, 102]
                # Same site ids in every tenant, one socket pair in total.
                assert len(pair.tcp_a._links) == len(pair.tcp_b._links) == 1
                assert pair.tcp_a.frames_dropped_unrouted == 0

        asyncio.run(main())

    def test_a_tenant_joins_in_six_frames_with_no_retry(self):
        # An invitation carries host A's clock, so neither of host B's joins
        # is denied as a stale join VT: a request, a reply and a COMMIT
        # each.  A denial costs an ABORT, a second request and its reply.
        async def main():
            async with TcpHostPair() as pair:
                await pair.join(0)
                sites = pair.host_a.tenant(1).sites[0], pair.host_b.tenant(1).sites[0]
                frames = pair.tcp_a.frames_sent + pair.tcp_b.frames_sent
                await pair.join(1)
                await wait_for(
                    lambda: not any(site.protocol_residue() for site in sites),
                    what="the tenant's joins to settle on both hosts",
                )
                await pair.tcp_a.aquiesce(settle_ms=20)
                await pair.tcp_b.aquiesce(settle_ms=20)
                frames = pair.tcp_a.frames_sent + pair.tcp_b.frames_sent - frames
                return frames, [site.counters()["retries"] for site in sites]

        assert asyncio.run(main()) == (6, [0, 0])

    def test_latency_histograms_resolve_a_loopback_commit(self):
        # One ladder for simulated and wall-clock milliseconds: a loopback
        # commit (a fraction of a millisecond) must not pile into the lowest
        # bucket with everything else, as it did on the 5 ms-floor ladder.
        from repro.core.views import View
        from repro.obs.metrics import LATENCY_BUCKETS_MS

        class Quiet(View):
            def update(self, changed, snapshot):
                for obj in changed:
                    snapshot.read(obj)

        def median_bucket(hist):
            """(lower, upper] bounds of the bucket holding the median."""
            edges = (0.0,) + hist.bounds + (float("inf"),)
            seen = 0
            for index, count in enumerate(hist.counts):
                seen += count
                if 2 * seen >= hist.total:
                    return edges[index], edges[index + 1]

        async def main():
            async with TcpHostPair() as pair:
                obj_a, obj_b = await pair.join(1)
                obj_a.attach(Quiet(), mode="pessimistic")
                obj_b.attach(Quiet(), mode="pessimistic")
                site_b = pair.host_b.tenant(1).sites[0]
                for value in range(1, 41):
                    site_b.transact(lambda v=value: obj_b.set(v))
                    await wait_for(
                        lambda v=value: obj_a.get() == v and obj_b.get() == v,
                        what=f"write {value} on both hosts",
                    )
                return site_b.metrics.histograms, pair.tcp_b.metrics.histograms

        site_hists, transport_hists = asyncio.run(main())
        for name in ("txn.commit_latency_ms", "view.pessimistic_delivery_ms"):
            hist = site_hists[name]
            assert hist.bounds == LATENCY_BUCKETS_MS and hist.total >= 40
            lower, upper = median_bucket(hist)
            assert lower > 0.0 and upper < 5.0, (name, hist.to_dict())
        for name in ("transport.write_flush_ms", "transport.connect_rtt_ms"):
            assert transport_hists[name].bounds == LATENCY_BUCKETS_MS

    def test_bare_session_is_tenant_zero_of_the_fabric(self):
        # A bare Session on host A's transport and host B's tenant(0) are
        # two halves of one collaboration.
        async def main():
            async with TcpHostPair() as pair:
                bare = Session(transport=pair.tcp_a, roster={0, 1})
                site_a = bare.add_site("bare", site_id=0)
                site_b = pair.host_b.tenant(0).sites[0]
                obj_a, obj_b = await join_doc(site_a, site_b, "bare")
                site_b.transact(lambda: obj_b.set(7))
                await wait_for(lambda: obj_a.get() == 7, what="hosted write at the bare session")

        asyncio.run(main())

    def test_bare_and_tenant_zero_facade_write_identical_frames(self, monkeypatch):
        from repro.transport import tcp as tcp_module

        frames = []
        real_encode = tcp_module.encode_frame

        def recording_encode(*args, **kwargs):
            frame = real_encode(*args, **kwargs)
            frames.append(frame)
            return frame

        monkeypatch.setattr(tcp_module, "encode_frame", recording_encode)

        async def main():
            async with TcpHostPair() as pair:
                msg = CommitMsg(VirtualTime(5, 0), 12)
                pair.tcp_a.send(0, 1, msg)
                TenantTransport(pair.tcp_a, 0).send(0, 1, msg)
                TenantTransport(pair.tcp_a, 1).send(0, 1, msg)

        asyncio.run(main())
        bare, facade_zero, facade_one = frames
        assert bare == facade_zero
        assert bare != facade_one and len(bare) == len(facade_one)

    def test_failing_one_tenants_site_notifies_only_that_tenant(self):
        async def main():
            async with TcpHostPair() as pair:
                notices = pair.listen(pair.host_a, (0, 1, 2))
                pair.host_a.tenant(1).transport.fail_site(1)
                await asyncio.sleep(0.05)
                assert notices == {0: [], 1: [1], 2: []}
                assert pair.host_a.tenant(1).transport.is_failed(1)
                assert not pair.host_a.tenant(0).transport.is_failed(1)
                assert not pair.tcp_a.is_failed(1)  # the bare spelling of tenant 0
                # Tenant 0 fails the same way, through the flat method.
                pair.tcp_a.fail_site(1)
                assert notices == {0: [1], 1: [1], 2: []}
                assert pair.host_a.tenant(1).sites[0].failures.failed == {1}
                assert pair.host_a.tenant(2).sites[0].failures.failed == set()

        asyncio.run(main())

    def test_stopping_host_b_notifies_every_tenant_on_a_even_late_ones(self):
        async def main():
            async with TcpHostPair() as pair:
                docs = {tid: await pair.join(tid) for tid in (0, 1, 2)}
                notices = pair.listen(pair.host_a, (0, 1, 2))
                pair.host_a.evict(2)  # tenant 2 is not listening when B dies
                del notices[2]
                await pair.tcp_b.stop(flush=False)

                # Fail-stop detection needs traffic: keep writing at A until
                # the dead link is noticed.
                site_a, (obj_a, _obj_b) = pair.host_a.tenant(1).sites[0], docs[1]
                deadline = time.monotonic() + 10.0
                while not pair.tcp_a.is_failed(1):
                    assert time.monotonic() < deadline, "host B never declared failed"
                    site_a.transact(lambda: obj_a.set(obj_a.get() + 1))
                    await asyncio.sleep(0.02)
                assert notices == {0: [1], 1: [1]}
                for tid in (0, 1):
                    assert pair.host_a.tenant(tid).sites[0].failures.failed == {1}

                # Tenant 3 is activated for the first time, tenant 2 again
                # after its eviction: both after the failure, both must
                # still hear of it — deferred, not during activation.
                for tid in (2, 3):
                    late = pair.host_a.tenant(tid).sites[0]
                    assert late.failures.failed == set()
                    await wait_for(
                        lambda: late.failures.failed == {1}, what=f"late notice to t{tid}"
                    )
                    assert pair.host_a.tenant(tid).transport.is_failed(1)
                # ... and an evicted-again tenant's pending notice is dropped.
                pair.host_a.evict(3)
                orphan = []
                facade = TenantTransport(pair.tcp_a, 3)
                facade.add_failure_listener(orphan.append)
                facade.detach()
                await asyncio.sleep(0.02)
                assert orphan == []

        asyncio.run(main())

    def test_eviction_leaves_no_tenant_residue_in_the_transport(self):
        # An evicted tenant keeps no handler and no (empty) listener list in
        # the shared transport, so fail-stop detection never walks it.
        async def main():
            async with TcpHostPair() as pair:
                for tid in (1, 2):
                    await pair.join(tid)
                assert pair.host_a.evict(1)
                tcp = pair.tcp_a
                assert [key for key in tcp._handlers if key[0] in (1, 2)] == [(2, 0)]
                assert 1 not in tcp._failure_handlers
                assert len(tcp._failure_handlers[2]) == 1

        asyncio.run(main())

    def test_stop_releases_the_transport_its_host_and_tenants(self):
        # Once ``await stop()`` returns, nothing on the loop references the
        # transport: the first collection, with no loop turn in between,
        # frees it, its host and the tenants' sessions (set-up after set-up
        # otherwise starts with a gen-2 pass over the previous rig).
        async def main():
            pair = TcpHostPair()
            await pair.__aenter__()
            await pair.join(1)
            refs = [
                weakref.ref(obj)
                for obj in (pair.tcp_a, pair.host_a, pair.host_a.tenant(1), pair.host_b.tenant(1))
            ]
            await pair.tcp_a.stop()
            await pair.tcp_b.stop()
            del pair
            gc.collect()
            return [ref() for ref in refs]

        assert asyncio.run(main()) == [None] * 4

    def test_evicted_tenants_frames_are_counted_unrouted(self):
        async def main():
            async with TcpHostPair() as pair:
                docs = {tid: await pair.join(tid) for tid in (0, 1)}
                await pair.tcp_a.aquiesce(settle_ms=20.0)
                await pair.tcp_b.aquiesce(settle_ms=20.0)
                assert pair.tcp_a.frames_dropped_unrouted == 0
                assert pair.host_a.evict(1)
                site_b, (_obj_a, obj_b) = pair.host_b.tenant(1).sites[0], docs[1]
                site_b.transact(lambda: obj_b.set(5))  # propagates to the evicted replica
                await wait_for(
                    lambda: pair.tcp_a.frames_dropped_unrouted > 0,
                    what="the evicted tenant's frame to be dropped and counted",
                )
                assert pair.host_a.counters()["transport.frames_dropped_unrouted"] > 0
                # The shared link survives: tenant 0 still commits across it.
                site_b0, (obj_a0, obj_b0) = pair.host_b.tenant(0).sites[0], docs[0]
                site_b0.transact(lambda: obj_b0.set(9))
                await wait_for(lambda: obj_a0.get() == 9, what="tenant 0 to keep working")

        asyncio.run(main())
