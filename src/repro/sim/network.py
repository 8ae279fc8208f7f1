"""A simulated point-to-point network: the paper's reliable channel.

:class:`Network` is the simulated :class:`~repro.transport.base.Transport`:
sites register a delivery handler; a send samples a one-way latency from
the configured :class:`LatencyModel` and schedules delivery on the shared
:class:`~repro.sim.scheduler.Scheduler`.  The channel is the one the
paper's algorithms assume, and nothing else:

* **FIFO per ordered site pair** (like TCP): a delivery never overtakes an
  earlier send on the same pair.  Messages between *different* pairs may
  interleave arbitrarily, which is exactly the reordering ("stragglers")
  the paper's algorithms must tolerate.
* **Reliable**: nothing drops a message between two live, connected sites.
* **Fail-stop**, after the paper's section 3.4: "the underlying
  communication infrastructure provides notification of such failures and
  ... presents them to the application as fail-stop failures — further
  communication with failed or disconnected clients is prevented by the
  communication layer."  Nothing reaches a failed site, and a failed site
  sends nothing new.
* **A partition stops new sends only**: a send across the cut is dropped,
  while a message already in flight when the cut is made still arrives.
  A partition is sound only as the prelude of a crash, which is how the
  conformance explorer uses it (:mod:`repro.explore.plan`).

Replicas are addressed as ``(tenant, site)`` like on every fabric; the
*links* — latency models, partitions, FIFO floors and the schedule-choice
channels — model the wire between two hosts and stay keyed by site index,
shared by every tenant whose sites sit at those indices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.messages import Envelope
from repro.errors import TransportError
from repro.obs.events import EventBus
from repro.sim.scheduler import Scheduler
from repro.transport.base import Transport


class LatencyModel:
    """Samples a one-way message latency in milliseconds for a site pair."""

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """A constant one-way latency ``t`` — the paper's analytic model."""

    def __init__(self, latency_ms: float) -> None:
        if latency_ms < 0:
            raise ValueError("latency must be non-negative")
        self.latency_ms = latency_ms

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return self.latency_ms

    def __repr__(self) -> str:
        return f"FixedLatency({self.latency_ms}ms)"


class UniformLatency(LatencyModel):
    """Latency uniform in ``[low, high]`` — bounded jitter."""

    def __init__(self, low_ms: float, high_ms: float) -> None:
        if not 0 <= low_ms <= high_ms:
            raise ValueError("require 0 <= low <= high")
        self.low_ms = low_ms
        self.high_ms = high_ms

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return rng.uniform(self.low_ms, self.high_ms)

    def __repr__(self) -> str:
        return f"UniformLatency([{self.low_ms}, {self.high_ms}]ms)"


class NormalLatency(LatencyModel):
    """Gaussian latency truncated at a floor — realistic WAN jitter."""

    def __init__(self, mean_ms: float, stddev_ms: float, floor_ms: float = 0.1) -> None:
        if mean_ms < 0 or stddev_ms < 0 or floor_ms < 0:
            raise ValueError("latency parameters must be non-negative")
        self.mean_ms = mean_ms
        self.stddev_ms = stddev_ms
        self.floor_ms = floor_ms

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return max(self.floor_ms, rng.gauss(self.mean_ms, self.stddev_ms))

    def __repr__(self) -> str:
        return f"NormalLatency(mean={self.mean_ms}ms, sd={self.stddev_ms}ms)"


@dataclass
class NetworkStats:
    """Counters used by the benchmark harness to report message complexity.

    The lifecycle counters reconcile at all times::

        messages_sent == messages_delivered + messages_dropped + messages_in_flight

    A message is *in flight* from the moment its delivery is scheduled until
    ``deliver`` runs; drops at send time (a failed endpoint or a partition)
    never enter the in-flight count, drops at delivery time (a site failed
    or evicted since the send) leave it first.  ``reconcile()`` asserts the
    invariant for tests.

    All lifecycle counters are in units of *protocol messages*: an
    :class:`~repro.core.messages.Envelope` frame carrying K messages counts
    as K sent/delivered/dropped, so message-complexity reports count
    protocol messages, not frames.  ``envelopes_sent`` additionally
    counts multi-message frames; ``per_type_sent`` counts the inner types.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_in_flight: int = 0
    envelopes_sent: int = 0
    per_type_sent: Dict[str, int] = field(default_factory=dict)

    def record_send(self, payload: Any) -> None:
        if isinstance(payload, Envelope):
            self.envelopes_sent += 1
            self.messages_sent += len(payload.messages)
            for message in payload.messages:
                name = type(message).__name__
                self.per_type_sent[name] = self.per_type_sent.get(name, 0) + 1
            return
        self.messages_sent += 1
        name = type(payload).__name__
        self.per_type_sent[name] = self.per_type_sent.get(name, 0) + 1

    def reconcile(self) -> bool:
        """True iff sent == delivered + dropped + in_flight."""
        return self.messages_sent == (
            self.messages_delivered + self.messages_dropped + self.messages_in_flight
        )

    def snapshot(self) -> "NetworkStats":
        copy = NetworkStats(
            messages_sent=self.messages_sent,
            messages_delivered=self.messages_delivered,
            messages_dropped=self.messages_dropped,
            messages_in_flight=self.messages_in_flight,
            envelopes_sent=self.envelopes_sent,
        )
        copy.per_type_sent = dict(self.per_type_sent)
        return copy


class Network(Transport):
    """The simulated network connecting DECAF sites.

    Parameters
    ----------
    scheduler:
        The shared discrete-event scheduler.
    latency:
        One-way latency model applied to every ordered site pair unless
        overridden per pair with :meth:`set_link_latency`.
    seed:
        Seed for the network's private RNG (latency sampling).
    flush_inflight_on_fail:
        What a crash does to the messages already in flight *from* the
        failed site (see :meth:`fail_site_scoped`).  True delivers them and
        orders the failure notice after the last of them; False drops them.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        flush_inflight_on_fail: bool = False,
    ) -> None:
        super().__init__()
        self._scheduler = scheduler
        self.default_latency = latency if latency is not None else FixedLatency(50.0)
        self.flush_inflight_on_fail = flush_inflight_on_fail
        self.stats = NetworkStats()
        #: Protocol event bus shared with the session and every site built
        #: on this network (see repro.obs).  Idle unless enabled/subscribed.
        self.bus = EventBus()
        self._rng = random.Random(seed)
        self._link_latency: Dict[Tuple[int, int], LatencyModel] = {}
        self._last_delivery: Dict[Tuple[int, int], float] = {}
        self._partitioned: Set[Tuple[int, int]] = set()
        #: Network-wide message sequence.  Assigned on every send (observed
        #: or not) so a message's id is identical whether or not the bus is
        #: recording; ``message_sent``/``message_delivered`` events carry it,
        #: giving the causal analyzer exact send→deliver edges.
        self._msg_seq = 0
        #: Choice-point hook (see :mod:`repro.sim.choice`).  When set to a
        #: :class:`~repro.sim.choice.ScheduleController`, cross-site
        #: deliveries bypass latency sampling and park in per-channel FIFO
        #: queues; *which* channel head fires next becomes an explicit
        #: choice the controller's strategy makes.  Zero-latency loopback
        #: self-sends keep the timed path (they are same-instant local
        #: continuations, not schedule choices).
        self.choice: Optional[Any] = None

    # ------------------------------------------------------------------
    # Time, draining and capabilities
    # ------------------------------------------------------------------

    def scheduler(self) -> Scheduler:
        """The deterministic discrete-event scheduler (virtual time)."""
        return self._scheduler

    def network(self) -> "Network":
        """The simulated fabric itself (fault injection, latency models)."""
        return self

    def now(self) -> float:
        return self._scheduler._now

    def pending(self) -> int:
        return self._scheduler.pending()

    def quiesce(self, max_events: Optional[int] = None) -> int:
        """Run the discrete-event scheduler until no events remain."""
        scheduler = self._scheduler
        before = scheduler.events_processed
        if max_events is None:
            scheduler.run_until_quiescent()
        else:
            scheduler.run_until_quiescent(max_events=max_events)
        return scheduler.events_processed - before

    def defer(
        self, action: Callable[[], None], delay_ms: float = 0.0, site: Optional[int] = None
    ) -> None:
        # Under exhaustive exploration, positive-delay defers (retry
        # backoffs) are timers whose order relative to in-flight messages
        # is a genuine schedule choice; zero-delay defers are same-instant
        # continuations and stay on the scheduler (see repro.sim.choice).
        choice = self.choice
        if choice is not None and delay_ms > 0.0:
            choice.offer_timer(site, action, delay_ms)
            return
        self._scheduler.call_later(delay_ms, action, label="deferred")

    def set_link_latency(self, src: int, dst: int, model: LatencyModel) -> None:
        """Override the latency model for the ordered pair ``(src, dst)``."""
        self._link_latency[(src, dst)] = model

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send_scoped(self, tenant: int, src: int, dst: int, payload: Any) -> None:
        """Queue ``payload`` from ``src`` to ``dst`` after a sampled latency.

        Messages to or from failed sites, and across a partition, are
        dropped here and counted in :attr:`stats` (fail-stop semantics).
        """
        dst_key = (tenant, dst)
        if dst_key not in self._handlers:
            raise TransportError(f"destination site {dst} is not registered")
        self.stats.record_send(payload)
        # Lifecycle counters stay in protocol-message units even when the
        # payload is a multi-message envelope frame.
        units = len(payload.messages) if isinstance(payload, Envelope) else 1
        msg_id = self._msg_seq
        self._msg_seq = msg_id + 1
        scheduler = self._scheduler
        if self.bus.active:
            # Emitted for every send attempt — including ones dropped below —
            # matching what a wire sniffer at the sender would observe.
            # Like every protocol event, it names the replica by its
            # tenant-local site; the tenant rides in the data.
            self.bus.emit(
                "message_sent",
                site=src,
                time_ms=scheduler._now,
                txn_vt=getattr(payload, "txn_vt", None),
                tenant=tenant,
                dst=dst,
                msg_type=type(payload).__name__,
                msg_id=msg_id,
                payload=payload,
            )
        # Faults are armed at any time, so each send reads the tables anew
        # (the partition set tested for emptiness first: the common case).
        if (
            (tenant, src) in self._failed
            or dst_key in self._failed
            or (self._partitioned and (src, dst) in self._partitioned)
        ):
            self.stats.messages_dropped += units
            return
        # A message in flight is one partial over the send's own arguments,
        # not a closure with a cell per captured name.
        deliver = partial(self._deliver, tenant, src, dst, payload, msg_id, units)

        if self.choice is not None and src != dst:
            self.stats.messages_in_flight += units
            self.choice.offer_message(src, dst, deliver)
            return

        if src == dst:
            # Local loopback delivers on the next scheduler step with zero
            # latency; it still goes through the queue so handler re-entrancy
            # is never required.
            delivery_time = scheduler._now
        else:
            model = self._link_latency.get((src, dst), self.default_latency)
            delivery_time = scheduler._now + model.sample(self._rng, src, dst)
        # The FIFO floor: no delivery overtakes an earlier one on its pair.
        key = (src, dst)
        delivery_time = max(delivery_time, self._last_delivery.get(key, 0.0))
        self._last_delivery[key] = delivery_time

        self.stats.messages_in_flight += units
        scheduler.call_at(delivery_time, deliver)

    def _deliver(
        self, tenant: int, src: int, dst: int, payload: Any, msg_id: int, units: int
    ) -> None:
        """The end of one send's flight: dropped if either end failed since
        (the sender's messages only without the flush), else handed to the
        destination's handler.  A partition made since does not cut it."""
        self.stats.messages_in_flight -= units
        failed = self._failed
        key = (tenant, dst)
        if key in failed:
            self.stats.messages_dropped += units
            return
        if (tenant, src) in failed and not self.flush_inflight_on_fail:
            self.stats.messages_dropped += units
            return
        handler = self._handlers.get(key)
        if handler is None:
            # Destination evicted while the message was in flight
            # (SessionHost tenant eviction): drop, never raise.
            self.stats.messages_dropped += units
            return
        self.stats.messages_delivered += units
        if self.bus.active:
            # Paired with the message_sent event via msg_id: together
            # they are the cross-site happens-before edges of the
            # causal analyzer (repro.obs.causal).
            self.bus.emit(
                "message_delivered",
                site=dst,
                time_ms=self._scheduler._now,
                txn_vt=getattr(payload, "txn_vt", None),
                tenant=tenant,
                src=src,
                msg_type=type(payload).__name__,
                msg_id=msg_id,
            )
        handler(src, payload)

    # ------------------------------------------------------------------
    # Failures and partitions
    # ------------------------------------------------------------------

    def fail_site_scoped(self, tenant: int, site: int, notify_after_ms: float = 0.0) -> None:
        """Crash ``site`` fail-stop; notify survivors after ``notify_after_ms``.

        Survivors receive a failure notification through the failure
        listeners (the ISIS-style assumption of paper section 3.4), and a
        message in flight *to* the failed site is dropped at delivery time.
        A message in flight *from* it depends on ``flush_inflight_on_fail``:

        * True (the conformance explorer's ``run_trial``): it is still
          delivered, and the notice is ordered after the last of them, like
          an ISIS view change — if any survivor received a transaction's
          COMMIT, every replica received its WRITEs.
        * False (the default; ``Session.simulated`` and the failure tests):
          it is dropped and the notice is not delayed, so the failure round
          must resolve and retry work whose messages died with the sender.

        Both are cases the protocol must survive, and each has callers.
        """
        if (tenant, site) in self._failed:
            return
        self._failed.add((tenant, site))
        notify_time = self._scheduler.now + notify_after_ms
        if self.flush_inflight_on_fail:
            # Virtual synchrony: the failure notification is ordered after
            # every message the dead site already handed to the transport
            # (ISIS view-change semantics).  Without this a survivor could
            # resolve a transaction as aborted and then receive its COMMIT.
            for (src, _dst), last in self._last_delivery.items():
                if src == site and last > notify_time:
                    notify_time = last

        self._scheduler.call_at(
            notify_time, lambda: self._notify_failed(tenant, site), label=f"fail-notify {site}"
        )

    def partition(self, group_a: List[int], group_b: List[int]) -> None:
        """Drop every later send across the two groups; what is in flight arrives."""
        for a in group_a:
            for b in group_b:
                self._partitioned.add((a, b))
                self._partitioned.add((b, a))

    def heal_partition(self) -> None:
        """Restore full connectivity (failed sites stay failed)."""
        self._partitioned.clear()

    def __repr__(self) -> str:
        return (
            f"Network(sites={sorted(self._handlers)}, failed={sorted(self._failed)}, "
            f"latency={self.default_latency!r})"
        )
