"""Tests for the simulated network: latency, FIFO, partitions, failures."""

import random

import pytest

from repro.errors import SimulationError, TransportError
from repro.sim import (
    FixedLatency,
    Network,
    NormalLatency,
    Scheduler,
    UniformLatency,
)


def make_net(latency=None, seed=0, flush_inflight_on_fail=False):
    sched = Scheduler()
    net = Network(
        sched,
        latency=latency or FixedLatency(10.0),
        seed=seed,
        flush_inflight_on_fail=flush_inflight_on_fail,
    )
    inboxes = {}
    for site in range(4):
        inboxes[site] = []
        net.register(site, lambda src, payload, s=site: inboxes[s].append((src, payload, sched.now)))
    return sched, net, inboxes


class TestLatencyModels:
    def test_fixed(self):
        rng = random.Random(0)
        model = FixedLatency(25.0)
        assert model.sample(rng, 0, 1) == 25.0

    def test_fixed_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedLatency(-1)

    def test_uniform_within_bounds(self):
        rng = random.Random(0)
        model = UniformLatency(10.0, 20.0)
        samples = [model.sample(rng, 0, 1) for _ in range(100)]
        assert all(10.0 <= s <= 20.0 for s in samples)
        assert max(samples) - min(samples) > 1.0  # actually varies

    def test_uniform_validates(self):
        with pytest.raises(ValueError):
            UniformLatency(20.0, 10.0)

    def test_normal_floor(self):
        rng = random.Random(0)
        model = NormalLatency(1.0, 50.0, floor_ms=0.5)
        assert all(model.sample(rng, 0, 1) >= 0.5 for _ in range(200))


class TestDelivery:
    def test_basic_latency(self):
        sched, net, inboxes = make_net(FixedLatency(42.0))
        net.send(0, 1, "hello")
        sched.run_until_quiescent()
        assert inboxes[1] == [(0, "hello", 42.0)]

    def test_local_loopback_is_instant_but_queued(self):
        sched, net, inboxes = make_net()
        net.send(0, 0, "self")
        assert inboxes[0] == []  # not delivered synchronously
        sched.run_until_quiescent()
        assert inboxes[0] == [(0, "self", 0.0)]

    def test_fifo_per_channel(self):
        sched, net, inboxes = make_net(UniformLatency(1.0, 100.0), seed=7)
        for i in range(20):
            net.send(0, 1, i)
        sched.run_until_quiescent()
        assert [payload for _, payload, _ in inboxes[1]] == list(range(20))

    def test_cross_channel_interleaving(self):
        # Messages from different senders are independent: a later send on
        # a fast link overtakes an earlier send on a slow link (stragglers).
        sched, net, inboxes = make_net(FixedLatency(10.0))
        net.set_link_latency(0, 2, FixedLatency(100.0))
        net.send(0, 2, "slow")
        net.send(1, 2, "fast")
        sched.run_until_quiescent()
        assert [p for _, p, _ in inboxes[2]] == ["fast", "slow"]

    def test_unknown_destination_raises(self):
        sched, net, _ = make_net()
        with pytest.raises(TransportError):
            net.send(0, 99, "?")

    def test_stats(self):
        sched, net, _ = make_net()
        net.send(0, 1, "a")
        net.send(0, 2, "b")
        sched.run_until_quiescent()
        assert net.stats.messages_sent == 2
        assert net.stats.messages_delivered == 2
        assert net.stats.per_type_sent == {"str": 2}

    def test_stats_reconcile_through_lifecycle(self):
        """sent == delivered + dropped + in_flight at every instant."""
        sched, net, _ = make_net()
        assert net.stats.reconcile()
        net.send(0, 1, "a")
        net.send(0, 2, "b")
        # Scheduled but not yet delivered: both are in flight.
        assert net.stats.messages_in_flight == 2
        assert net.stats.reconcile()
        sched.run_until_quiescent()
        assert net.stats.messages_in_flight == 0
        assert net.stats.messages_delivered == 2
        assert net.stats.reconcile()
        # Send-time drop (dead destination): never enters in-flight.
        net.fail_site(1)
        net.send(0, 1, "lost")
        assert net.stats.messages_in_flight == 0
        assert net.stats.reconcile()
        # Delivery-time drop (site dies with the message in the air):
        # in-flight decrements before the drop is counted.
        net.send(0, 2, "doomed")
        assert net.stats.messages_in_flight == 1
        net.fail_site(2)
        sched.run_until_quiescent()
        assert net.stats.messages_in_flight == 0
        assert net.stats.reconcile()
        snap = net.stats.snapshot()
        assert snap.reconcile() and snap.messages_in_flight == 0


class TestFailures:
    def test_failed_site_stops_receiving(self):
        sched, net, inboxes = make_net()
        net.fail_site(1)
        net.send(0, 1, "lost")
        sched.run_until_quiescent()
        assert inboxes[1] == []
        assert net.stats.messages_dropped >= 1

    def test_failed_site_stops_sending(self):
        sched, net, inboxes = make_net()
        net.fail_site(0)
        net.send(0, 1, "lost")
        sched.run_until_quiescent()
        assert inboxes[1] == []

    def test_inflight_messages_to_failed_site_dropped(self):
        sched, net, inboxes = make_net(FixedLatency(50.0))
        net.send(0, 1, "inflight")
        sched.run(until=10)
        net.fail_site(1)
        sched.run_until_quiescent()
        assert inboxes[1] == []

    def test_failure_notification(self):
        sched, net, _ = make_net()
        notices = []
        net.add_failure_listener(notices.append)
        net.fail_site(2, notify_after_ms=15.0)
        sched.run_until_quiescent()
        assert notices == [2]
        assert sched.now == 15.0

    def test_double_failure_notifies_once(self):
        sched, net, _ = make_net()
        notices = []
        net.add_failure_listener(notices.append)
        net.fail_site(2)
        net.fail_site(2)
        sched.run_until_quiescent()
        assert notices == [2]

    def test_is_failed(self):
        sched, net, _ = make_net()
        assert not net.is_failed(1)
        net.fail_site(1)
        assert net.is_failed(1)


class TestPartitions:
    def test_partition_blocks_both_directions(self):
        sched, net, inboxes = make_net()
        net.partition([0, 1], [2, 3])
        net.send(0, 2, "x")
        net.send(2, 0, "y")
        net.send(0, 1, "ok")
        sched.run_until_quiescent()
        assert inboxes[2] == []
        assert [p for _, p, _ in inboxes[1]] == ["ok"]

    def test_heal_partition(self):
        sched, net, inboxes = make_net()
        net.partition([0], [1])
        net.send(0, 1, "dropped")
        sched.run_until_quiescent()
        net.heal_partition()
        net.send(0, 1, "delivered")
        sched.run_until_quiescent()
        assert [p for _, p, _ in inboxes[1]] == ["delivered"]

    def test_inflight_preserved_when_cut_policy_disabled(self):
        # The only partition there is: it stops *new* communication, but
        # messages already handed to the transport still arrive.
        sched, net, inboxes = make_net(FixedLatency(50.0))
        net.send(0, 1, "inflight")
        sched.run(until=10)
        net.partition([0], [1])
        net.send(0, 1, "new")  # sent across the cut: dropped at send time
        sched.run_until_quiescent()
        assert [p for _, p, _ in inboxes[1]] == ["inflight"]


class TestFaultsArmedMidRun:
    """A send skips the partition lookup while the table is empty; a
    partition armed later must still be read at the next send, and the
    lifecycle counters must reconcile."""

    def test_partition_armed_with_messages_in_flight(self):
        sched, net, inboxes = make_net(FixedLatency(50.0))
        net.send(0, 1, "warm-up")
        sched.run_until_quiescent()
        net.send(0, 1, "in-flight")
        net.send(2, 3, "unaffected")
        sched.run(until=10)
        net.partition([0], [1])
        assert net.stats.reconcile()
        net.send(1, 0, "across")  # dropped at send time
        assert net.stats.reconcile()
        sched.run_until_quiescent()
        assert [p for _, p, _ in inboxes[1]] == ["warm-up", "in-flight"]
        assert inboxes[0] == [] and [p for _, p, _ in inboxes[3]] == ["unaffected"]
        assert net.stats.messages_dropped == 1
        assert net.stats.reconcile() and net.stats.messages_in_flight == 0
        net.heal_partition()
        net.send(0, 1, "healed")
        sched.run_until_quiescent()
        assert inboxes[1][-1][1] == "healed" and net.stats.reconcile()


class TestSchedulingIntoThePast:
    def test_call_at_names_the_label(self):
        sched = Scheduler()
        sched.advance_to(10.0)
        with pytest.raises(SimulationError, match="'retry timer'"):
            sched.call_at(5.0, lambda: None, label="retry timer")

    def test_unlabelled_event_is_named_by_its_action(self):
        sched = Scheduler()
        sched.advance_to(10.0)

        def deliver_the_reply():
            pass

        with pytest.raises(SimulationError, match="deliver_the_reply"):
            sched.call_at(5.0, deliver_the_reply)
        with pytest.raises(SimulationError, match="negative delay .*deliver_the_reply"):
            sched.call_later(-1.0, deliver_the_reply)
        assert sched.pending() == 0

    def test_an_in_flight_message_is_named_by_the_network(self):
        """A simulated send schedules a ``partial`` with no label."""
        sched, net, _ = make_net(FixedLatency(10.0))
        net.send(0, 1, "x")
        (entry,) = sched._queue
        sched.advance_to(20.0)
        with pytest.raises(SimulationError, match="'Network._deliver' at 10.0"):
            sched.call_at(entry[0], entry[2].action)


class TestFlushInflightOnFail:
    def test_inflight_from_failed_site_still_delivered(self):
        sched, net, inboxes = make_net(FixedLatency(50.0), flush_inflight_on_fail=True)
        net.send(0, 1, "flushed")
        sched.run(until=10)
        net.fail_site(0)
        sched.run_until_quiescent()
        assert [p for _, p, _ in inboxes[1]] == ["flushed"]

    def test_notification_ordered_after_victims_inflight(self):
        # Virtual synchrony: survivors must not learn of the failure before
        # the last message the victim handed to the transport arrives.
        sched, net, inboxes = make_net(FixedLatency(50.0), flush_inflight_on_fail=True)
        events = []
        net.register(1, lambda src, payload: events.append(("msg", sched.now)))
        net.add_failure_listener(lambda site: events.append(("fail", sched.now)))
        net.send(0, 1, "inflight")  # delivery at t=50
        net.fail_site(0, notify_after_ms=5.0)
        sched.run_until_quiescent()
        assert events == [("msg", 50.0), ("fail", 50.0)]

    def test_without_flush_notification_is_not_delayed(self):
        sched, net, inboxes = make_net(FixedLatency(50.0))
        events = []
        net.register(1, lambda src, payload: events.append(("msg", sched.now)))
        net.add_failure_listener(lambda site: events.append(("fail", sched.now)))
        net.send(0, 1, "inflight")
        net.fail_site(0, notify_after_ms=5.0)
        sched.run_until_quiescent()
        assert events == [("fail", 5.0)]  # message dropped, notice prompt
