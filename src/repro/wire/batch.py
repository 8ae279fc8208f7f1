"""Per-destination message coalescing: the one way out of a site.

Every protocol send from a site funnels through its :class:`Outbox`.
Every protocol step — dispatching an incoming frame, running a
transaction to its fan-out, handling a failure notice — is a *turn*: the
site runtime counts open turns in :attr:`Outbox.depth` inline, messages
sent inside one are buffered, and when the outermost turn ends the buffer
is flushed: all messages bound for the same destination leave in **one**
:class:`~repro.core.messages.Envelope` frame.  A send outside any turn (a
timer firing on its own) leaves at once.

This is where the fan-out savings come from: a commit that must notify N
peers about K objects and a view manager confirming a batch of snapshot
checks both collapse to one frame per peer instead of one frame per message.

Guarantees:

* **Per-pair FIFO is preserved.**  The buffer keeps first-seen destination
  order and within-destination message order; the receiver unpacks an
  envelope's messages in order before any later frame.  Coalescing only
  ever *removes* interleavings with other destinations' traffic, which the
  protocol never relied on.
* **One message travels bare.**  A destination with exactly one buffered
  message gets the bare payload, not a one-element envelope.

Metrics (per-site registry): ``wire.messages_sent`` counts protocol
messages handed to the outbox, ``wire.envelopes_sent`` counts transport
frames actually emitted, ``wire.messages_batched`` counts messages that
travelled inside a multi-message envelope.  The ``envelopes_sent`` /
``messages_sent`` ratio is the batching win.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Sequence, Tuple

from repro.core.messages import Envelope
from repro.obs.metrics import counter_property

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.site import SiteRuntime


class Outbox:
    """Buffers a site's outgoing messages and flushes them per destination."""

    def __init__(self, site: "SiteRuntime") -> None:
        self.site = site
        #: Protocol turns open on this site.  Opened and closed inline by
        #: the callers (``depth += 1`` ... ``depth -= 1``, then
        #: :meth:`flush` once it is 0 and ``buffer`` is not empty): a turn
        #: is entered once per delivered frame, so it costs no call.
        self.depth = 0
        #: What the open turn has sent: ``()`` between turns, so an idle
        #: site holds no list.
        self.buffer: Sequence[Tuple[int, Any]] = ()

    messages_sent = counter_property(
        "wire.messages_sent", "Protocol messages handed to the outbox."
    )
    envelopes_sent = counter_property(
        "wire.envelopes_sent", "Transport frames actually emitted."
    )
    messages_batched = counter_property(
        "wire.messages_batched", "Messages that shared a multi-message envelope."
    )

    def send(self, dst: int, payload: Any) -> None:
        """Buffer ``payload`` for ``dst`` if a turn is open, else send it now."""
        if self.depth:
            if self.buffer:
                self.buffer.append((dst, payload))
            else:
                self.buffer = [(dst, payload)]
            return
        self.buffer = [(dst, payload)]
        self.flush()

    def flush(self) -> None:
        """Send what the closed turn buffered: one frame per destination."""
        buffered, self.buffer = self.buffer, ()
        site = self.site
        # ``metrics.inc`` spelled out: a flush ends almost every protocol
        # step, whose Python call count is pinned (tests/test_call_budget.py).
        counters = site.metrics.counters
        get = counters.get
        if len(buffered) == 1:
            # The overwhelmingly common turn outcome — one reply to one
            # destination — skips the grouping dict entirely.
            dst, payload = buffered[0]
            counters["wire.messages_sent"] = get("wire.messages_sent", 0) + 1
            counters["wire.envelopes_sent"] = get("wire.envelopes_sent", 0) + 1
            site.transport.send(site.site_id, dst, payload)
            return
        groups: Dict[int, List[Any]] = {}
        setdefault = groups.setdefault
        for dst, payload in buffered:  # first-seen destination order
            setdefault(dst, []).append(payload)
        transport_send = site.transport.send
        site_id = site.site_id
        counters["wire.messages_sent"] = get("wire.messages_sent", 0) + len(buffered)
        counters["wire.envelopes_sent"] = get("wire.envelopes_sent", 0) + len(groups)
        for dst, msgs in groups.items():
            count = len(msgs)
            if count == 1:
                transport_send(site_id, dst, msgs[0])
                continue
            counters["wire.messages_batched"] = get("wire.messages_batched", 0) + count
            if site.bus.active:
                site.bus.emit(
                    "envelope_sent",
                    site=site_id,
                    time_ms=site.transport.now(),
                    dst=dst,
                    count=count,
                )
            transport_send(site_id, dst, Envelope(tuple(msgs)))

    def __repr__(self) -> str:
        return (
            f"Outbox(site={self.site.site_id}, depth={self.depth}, "
            f"buffered={len(self.buffer)})"
        )
