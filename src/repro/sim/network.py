"""A simulated point-to-point network with latency, partitions, and failures.

:class:`Network` is the simulated :class:`~repro.transport.base.Transport`:
sites register a delivery handler; a send samples a one-way latency from
the configured :class:`LatencyModel` and schedules delivery on the shared
:class:`~repro.sim.scheduler.Scheduler`.  Channels are FIFO per ordered
site pair by default (like TCP); messages between *different* pairs may
interleave arbitrarily, which is exactly the reordering ("stragglers") the
paper's algorithms must tolerate.

Replicas are addressed as ``(tenant, site)`` like on every fabric; the
*links* — latency models, partitions, drop rules, FIFO floors and the
schedule-choice channels — model the wire between two hosts and stay keyed
by site index, shared by every tenant whose sites sit at those indices.

Fail-stop failures follow the paper's section 3.4 assumption: "the
underlying communication infrastructure provides notification of such
failures and ... presents them to the application as fail-stop failures —
further communication with failed or disconnected clients is prevented by
the communication layer."
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.messages import Envelope
from repro.errors import SimulationError, TransportError
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
    ``deliver`` runs; drops at send time (dead/partitioned destination, armed
    drop rule) never enter the in-flight count, drops at delivery time leave
    it first.  ``reconcile()`` asserts the invariant for tests.

    All lifecycle counters are in units of *protocol messages*: an
    :class:`~repro.core.messages.Envelope` frame carrying K messages counts
    as K sent/delivered/dropped, so message-complexity reports count
    protocol messages, not frames.  ``envelopes_sent`` additionally
    counts multi-message frames; ``per_type_sent`` counts the inner types.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_dropped_injected: int = 0
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
            messages_dropped_injected=self.messages_dropped_injected,
            messages_in_flight=self.messages_in_flight,
            envelopes_sent=self.envelopes_sent,
        )
        copy.per_type_sent = dict(self.per_type_sent)
        return copy


@dataclass
class DropRule:
    """A fault-injection rule: silently drop up to ``remaining`` messages
    addressed to ``dst`` (optionally only those from ``src``)."""

    dst: int
    remaining: int
    src: Optional[int] = None

    def matches(self, src: int, dst: int) -> bool:
        return (
            self.remaining > 0
            and dst == self.dst
            and (self.src is None or src == self.src)
        )


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
    fifo:
        When True (default), deliveries on each ordered ``(src, dst)`` pair
        never overtake earlier sends on the same pair.
    flush_inflight_on_fail:
        When True, messages already in flight *from* a site at the moment it
        crashes are still delivered (only messages *to* a failed site are
        dropped).  This models the paper's ISIS-style infrastructure
        guarantee — if any survivor received a transaction's COMMIT, every
        replica received its WRITEs — which the conformance explorer relies
        on.  The default (False) keeps the stricter drop-everything
        semantics that the existing failure tests exercise.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        fifo: bool = True,
        flush_inflight_on_fail: bool = False,
    ) -> None:
        super().__init__()
        self._scheduler = scheduler
        self.default_latency = latency if latency is not None else FixedLatency(50.0)
        self.fifo = fifo
        self.flush_inflight_on_fail = flush_inflight_on_fail
        self.stats = NetworkStats()
        #: Protocol event bus shared with the session and every site built
        #: on this network (see repro.obs).  Idle unless enabled/subscribed.
        self.bus = EventBus()
        self._rng = random.Random(seed)
        self._link_latency: Dict[Tuple[int, int], LatencyModel] = {}
        self._last_delivery: Dict[Tuple[int, int], float] = {}
        self._partitioned: Set[Tuple[int, int]] = set()
        self._drop_rules: List[DropRule] = []
        #: Network-wide message sequence.  Assigned on every send (observed
        #: or not) so a message's id is identical whether or not the bus is
        #: recording; ``message_sent``/``message_delivered`` events carry it,
        #: giving the causal analyzer exact send→deliver edges.
        self._msg_seq = 0
        #: Optional hook adding deterministic extra delay per message:
        #: ``fn(src, dst, payload) -> extra_ms``.  With ``fifo=False`` this
        #: reorders messages within a pair; with FIFO it stretches queues.
        self.delay_hook: Optional[Callable[[int, int, Any], float]] = None
        #: When True (default), a partition also destroys messages already
        #: in flight across the cut.  The conformance explorer sets this to
        #: False so a partition models "no *new* communication" while
        #: messages already handed to the infrastructure still arrive —
        #: the view of disconnection the paper's fail-stop presentation
        #: implies.
        self.partition_cuts_inflight: bool = True
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

        Messages to or from failed sites, and messages across a partition,
        are silently dropped (fail-stop / partition semantics); the drop is
        counted in :attr:`stats`.
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
        # Faults are armed at any time, so each send reads the tables anew;
        # testing them for emptiness first keeps the fault-free send cheap.
        if (
            (tenant, src) in self._failed
            or dst_key in self._failed
            or (self._partitioned and self._is_partitioned(src, dst))
        ):
            self.stats.messages_dropped += units
            return
        if self._drop_rules and self._consume_drop_rule(src, dst):
            self.stats.messages_dropped += units
            self.stats.messages_dropped_injected += units
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
        if self.delay_hook is not None and src != dst:
            delivery_time += max(0.0, self.delay_hook(src, dst, payload))
        if self.fifo:
            key = (src, dst)
            floor = self._last_delivery.get(key, 0.0)
            delivery_time = max(delivery_time, floor)
            self._last_delivery[key] = delivery_time

        self.stats.messages_in_flight += units
        scheduler.call_at(delivery_time, deliver)

    def _deliver(
        self, tenant: int, src: int, dst: int, payload: Any, msg_id: int, units: int
    ) -> None:
        """The end of one send's flight: dropped if a fault armed since
        cuts it, else handed to the destination's handler."""
        self.stats.messages_in_flight -= units
        failed = self._failed
        key = (tenant, dst)
        if key in failed:
            self.stats.messages_dropped += units
            return
        if (tenant, src) in failed and not self.flush_inflight_on_fail:
            self.stats.messages_dropped += units
            return
        if (
            self._partitioned
            and self.partition_cuts_inflight
            and self._is_partitioned(src, dst)
        ):
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
    # Fault injection
    # ------------------------------------------------------------------

    def inject_drop(self, dst: int, count: int = 1, src: Optional[int] = None) -> DropRule:
        """Arm a rule dropping the next ``count`` messages addressed to ``dst``.

        With ``src`` given, only messages from that site match.  Drops are
        counted in ``stats.messages_dropped_injected``.  Note this breaks
        the reliable-channel assumption the protocol is built on; it exists
        for adversarial/conformance testing, where a drop is only sound when
        the receiver (or sender) is about to crash fail-stop anyway.
        """
        if count <= 0:
            raise SimulationError("inject_drop requires a positive count")
        rule = DropRule(dst=dst, remaining=count, src=src)
        self._drop_rules.append(rule)
        return rule

    def _consume_drop_rule(self, src: int, dst: int) -> bool:
        for rule in self._drop_rules:
            if rule.matches(src, dst):
                rule.remaining -= 1
                if rule.remaining == 0:
                    self._drop_rules = [r for r in self._drop_rules if r.remaining > 0]
                return True
        return False

    # ------------------------------------------------------------------
    # Failures and partitions
    # ------------------------------------------------------------------

    def fail_site_scoped(self, tenant: int, site: int, notify_after_ms: float = 0.0) -> None:
        """Crash ``site`` fail-stop; notify survivors after ``notify_after_ms``.

        In-flight messages to/from the failed site are dropped at delivery
        time; survivors receive a failure notification through the failure
        listeners (the ISIS-style assumption of paper section 3.4).
        """
        if (tenant, site) in self._failed:
            return
        self._failed.add((tenant, site))
        notify_time = self._scheduler.now + notify_after_ms
        if self.flush_inflight_on_fail and self.fifo:
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
        """Sever communication between every pair across the two groups."""
        for a in group_a:
            for b in group_b:
                self._partitioned.add((a, b))
                self._partitioned.add((b, a))

    def heal_partition(self) -> None:
        """Restore full connectivity (failed sites stay failed)."""
        self._partitioned.clear()

    def _is_partitioned(self, src: int, dst: int) -> bool:
        return (src, dst) in self._partitioned

    def __repr__(self) -> str:
        return (
            f"Network(sites={sorted(self._handlers)}, failed={sorted(self._failed)}, "
            f"latency={self.default_latency!r})"
        )
