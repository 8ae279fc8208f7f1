"""Message tracing for the simulated network.

A :class:`MessageTrace` subscribes to a network's protocol event bus
(:mod:`repro.obs`) and records every protocol message sent — each message
of an envelope frame on its own — with its simulated timestamp,
endpoints, message type, and (when present) transaction VT.  Traces
support filtering and a compact textual rendering — the primary debugging
tool for protocol work, and the source of the message-count numbers
quoted in the ablation benchmarks.

Because traces are bus subscribers (not ``network.send`` monkeypatches,
as in earlier revisions), any number of traces can be installed
concurrently and uninstalled in any order without interfering with each
other or with the bus's own recording.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.messages import Envelope
from repro.obs.events import ProtocolEvent
from repro.sim.network import Network


@dataclass(frozen=True)
class TraceEntry:
    """One recorded protocol message."""

    time_ms: float
    src: int
    dst: int
    msg_type: str
    txn_vt: Optional[Any]
    payload: Any

    def render(self) -> str:
        vt = f" vt={self.txn_vt}" if self.txn_vt is not None else ""
        return f"{self.time_ms:9.1f}ms  {self.src}->{self.dst}  {self.msg_type}{vt}"


class MessageTrace:
    """Records sends on a network; supports filtering and summaries."""

    def __init__(self, network: Network, capture_payloads: bool = True) -> None:
        self.network = network
        self.capture_payloads = capture_payloads
        self.entries: List[TraceEntry] = []
        self._installed = True
        network.bus.subscribe(self._on_event)

    def _on_event(self, event: ProtocolEvent) -> None:
        """One entry per protocol message, as ``NetworkStats.record_send``
        counts them."""
        if event.kind != "message_sent":
            return
        data = event.data
        payload = data["payload"]
        messages = payload.messages if isinstance(payload, Envelope) else (payload,)
        for message in messages:
            self.entries.append(
                TraceEntry(
                    time_ms=event.time_ms,
                    src=event.site,
                    dst=data["dst"],
                    msg_type=type(message).__name__,
                    txn_vt=getattr(message, "txn_vt", None),
                    payload=message if self.capture_payloads else None,
                )
            )

    def uninstall(self) -> None:
        """Stop tracing (existing entries are kept).  Order-independent:
        other traces on the same network are unaffected."""
        if self._installed:
            self.network.bus.unsubscribe(self._on_event)
            self._installed = False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def filter(
        self,
        msg_type: Optional[str] = None,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        txn_vt: Optional[Any] = None,
        predicate: Optional[Callable[[TraceEntry], bool]] = None,
    ) -> List[TraceEntry]:
        """Entries matching every given criterion."""
        out = []
        for entry in self.entries:
            if msg_type is not None and entry.msg_type != msg_type:
                continue
            if src is not None and entry.src != src:
                continue
            if dst is not None and entry.dst != dst:
                continue
            if txn_vt is not None and entry.txn_vt != txn_vt:
                continue
            if predicate is not None and not predicate(entry):
                continue
            out.append(entry)
        return out

    def counts_by_type(self) -> Dict[str, int]:
        """Message counts per type — the ablation benchmarks' metric."""
        counts: Dict[str, int] = {}
        for entry in self.entries:
            counts[entry.msg_type] = counts.get(entry.msg_type, 0) + 1
        return counts

    def transaction_story(self, txn_vt: Any) -> List[TraceEntry]:
        """Every message belonging to one transaction, in send order."""
        return self.filter(txn_vt=txn_vt)

    def render(self, limit: Optional[int] = None) -> str:
        """A compact textual log (last ``limit`` entries if given)."""
        entries = self.entries[-limit:] if limit else self.entries
        return "\n".join(entry.render() for entry in entries)

    def clear(self) -> None:
        self.entries.clear()
