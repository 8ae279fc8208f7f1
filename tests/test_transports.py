"""Tests for the transport abstraction: the in-process queue and the
simulated network (the socket fabric has tests/test_tcp_transport.py)."""

import pytest

from repro.errors import TransportError
from repro.sim import FixedLatency, Network, Scheduler
from repro.transport import MemoryTransport


class TestMemoryTransport:
    def test_synchronous_delivery(self):
        transport = MemoryTransport()
        inbox = []
        transport.register(1, lambda src, p: inbox.append((src, p)))
        transport.send(0, 1, "hi")
        assert inbox == [(0, "hi")]

    def test_handler_can_send_without_recursion(self):
        transport = MemoryTransport()
        log = []

        def ping(src, payload):
            log.append(payload)
            if payload < 1000:
                transport.send(1, 1, payload + 1)

        transport.register(1, ping)
        transport.send(0, 1, 0)  # would blow the stack if recursive
        assert len(log) == 1001

    def test_manual_drain_mode(self):
        transport = MemoryTransport(auto_drain=False)
        inbox = []
        transport.register(1, lambda src, p: inbox.append(p))
        transport.send(0, 1, "a")
        transport.send(0, 1, "b")
        assert inbox == []
        assert transport.drain() == 2
        assert inbox == ["a", "b"]

    def test_unknown_destination(self):
        transport = MemoryTransport()
        with pytest.raises(TransportError):
            transport.send(0, 9, "?")

    def test_fail_site_blocks_traffic_and_notifies(self):
        transport = MemoryTransport()
        inbox, notices = [], []
        transport.register(1, lambda src, p: inbox.append(p))
        transport.register(2, lambda src, p: inbox.append(p))
        transport.add_failure_listener(notices.append)
        transport.fail_site(1)
        transport.send(0, 1, "lost")
        transport.send(1, 2, "also lost")
        assert inbox == []
        assert notices == [1]

    def test_clock_advance(self):
        transport = MemoryTransport()
        assert transport.now() == 0.0
        transport.advance(12.5)
        assert transport.now() == 12.5


class TestSimTransport:
    """The simulated network *is* the transport a simulated session runs on."""

    def test_wraps_network(self):
        sched = Scheduler()
        transport = Network(sched, latency=FixedLatency(30.0))
        assert transport.network() is transport and transport.scheduler() is sched
        inbox = []
        transport.register(1, lambda src, p: inbox.append((p, sched.now)))
        transport.send(0, 1, "x")
        sched.run_until_quiescent()
        assert inbox == [("x", 30.0)]
        assert transport.now() == 30.0

    def test_defer_schedules_on_scheduler(self):
        sched = Scheduler()
        transport = Network(sched)
        log = []
        transport.defer(lambda: log.append(sched.now))
        assert log == []
        sched.run_until_quiescent()
        assert log == [0.0]

    def test_failure_listener_via_network(self):
        sched = Scheduler()
        transport = Network(sched)
        transport.register(0, lambda s, p: None)
        transport.register(1, lambda s, p: None)
        notices = []
        transport.add_failure_listener(notices.append)
        transport.fail_site(1)
        sched.run_until_quiescent()
        assert notices == [1]
