"""Per-process flight recorder: a bounded ring of recent protocol events.

A long-running process cannot keep (or afford) its full event timeline,
but the moments before a failure are exactly what a postmortem needs.  The
:class:`FlightRecorder` subscribes to an :class:`~repro.obs.events.EventBus`
and keeps only the most recent ``capacity`` events in a ring buffer; on
fail-stop detection (``TcpTransport`` calls :meth:`dump` from its
``_declare_failed``) or an unhandled crash (:meth:`install_excepthook`)
it writes the ring as a postmortem JSONL file — first a header line with
the dump reason and provenance, then one event per line, oldest first.

Subscribing activates the bus (``bus.active`` becomes True); the ring's own
``deque.append`` is the subscriber.  A process with only a flight recorder
attached builds each event once, one tuple and its data dict, and retains
just the ring: ``bus.events`` grows only under ``bus.enable()``.  The
recorder is the *bounded* consumer for processes that cannot afford full
recording; a process recording the full timeline can attach one too, and
the recording rebuilds events equal to the ring's when read.

Dumps are append-numbered (``.1``, ``.2``, ...) when the target path
already exists, so a crash that follows a fail-stop does not overwrite the
first postmortem.
"""

from __future__ import annotations

import json
import os
import sys
from collections import deque
from typing import Any, Deque, Dict, Optional

from repro.obs.events import EventBus, ProtocolEvent, event_to_dict

#: Default ring capacity: enough for several transactions' full lifecycles
#: (~18 events per 3-site transaction) without holding a long run's tail.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Bounded event ring with postmortem JSONL dumps."""

    def __init__(self, path: str, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.path = path
        self.capacity = capacity
        self.ring: Deque[ProtocolEvent] = deque(maxlen=capacity)
        self.dumps = 0
        self._seen = 0  # events counted before the current attachment
        self._bus: Optional[EventBus] = None
        self._prev_excepthook = None

    # -- bus plumbing ----------------------------------------------------

    @property
    def events_seen(self) -> int:
        """Total events seen (>= len(ring): the rest scrolled off, as the dump
        header reports); every emit on the attached bus reached the ring."""
        attached = 0 if self._bus is None else self._bus._seq - self._seq_at_attach
        return self._seen + attached

    def record(self, event: ProtocolEvent) -> None:
        """Retain one event handed over directly (evicting the oldest)."""
        self._seen += 1
        self.ring.append(event)

    def attach(self, bus: EventBus) -> "FlightRecorder":
        """Subscribe to ``bus`` (activating it); returns self for chaining."""
        self._bus = bus
        self._seq_at_attach = bus._seq
        bus.subscribe(self.ring.append)
        return self

    def detach(self) -> None:
        if self._bus is not None:
            self._seen = self.events_seen
            self._bus.unsubscribe(self.ring.append)
            self._bus = None

    # -- postmortem ------------------------------------------------------

    def dump(self, reason: str, extra: Optional[Dict[str, Any]] = None) -> str:
        """Write the ring as postmortem JSONL; returns the path written.

        The first line is a header object (``{"flight": ...}``) carrying
        the reason, ring occupancy, and any ``extra`` provenance; every
        following line is one event in bus order, oldest first.  Existing
        files are never overwritten — subsequent dumps append ``.N``.
        """
        path = self.path
        suffix = 0
        while os.path.exists(path):
            suffix += 1
            path = f"{self.path}.{suffix}"
        header: Dict[str, Any] = {
            "flight": "repro-flight/1",
            "reason": reason,
            "events": len(self.ring),
            "events_seen": self.events_seen,
            "capacity": self.capacity,
        }
        if extra:
            header["extra"] = extra
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(
            json.dumps(event_to_dict(e), sort_keys=True) for e in self.ring
        )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        self.dumps += 1
        return path

    # -- crash hook ------------------------------------------------------

    def install_excepthook(self) -> None:
        """Dump the ring on any unhandled exception, then re-raise normally.

        Chains to the previously installed hook so stack traces still
        print; idempotent (installing twice keeps one hook).
        """
        if self._prev_excepthook is not None:
            return
        self._prev_excepthook = sys.excepthook

        def _hook(exc_type, exc, tb):
            try:
                self.dump(f"crash: unhandled {exc_type.__name__}: {exc}")
            except Exception:
                pass  # a failing dump must never mask the original crash
            self._prev_excepthook(exc_type, exc, tb)

        sys.excepthook = _hook

    def uninstall_excepthook(self) -> None:
        if self._prev_excepthook is not None:
            sys.excepthook = self._prev_excepthook
            self._prev_excepthook = None

    def __repr__(self) -> str:
        return (
            f"FlightRecorder({self.path!r}, {len(self.ring)}/{self.capacity} "
            f"events, {self.dumps} dumps)"
        )
