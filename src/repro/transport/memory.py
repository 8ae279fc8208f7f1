"""A synchronous in-process transport with zero latency.

Messages are appended to a FIFO queue and drained iteratively (never
recursively), so handler code can freely send further messages without
unbounded stack growth.  Draining is triggered automatically after each
``send`` unless a drain is already in progress, which gives tests simple
"everything delivered by the time send returns" semantics while still
exercising the asynchronous structure of the protocol.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Tuple

from repro.errors import TransportError
from repro.transport.base import Transport


class MemoryTransport(Transport):
    """Zero-latency FIFO transport for protocol-logic unit tests."""

    def __init__(self, auto_drain: bool = True) -> None:
        super().__init__()
        self._queue: Deque[Tuple[int, int, int, Any]] = deque()
        self._draining = False
        self._auto_drain = auto_drain
        self._clock_ms = 0.0
        self.messages_sent = 0

    def now(self) -> float:
        return self._clock_ms

    def advance(self, ms: float) -> None:
        """Move the fake clock forward (latency is still zero)."""
        self._clock_ms += ms

    def send_scoped(self, tenant: int, src: int, dst: int, payload: Any) -> None:
        dst_key = (tenant, dst)
        if dst_key not in self._handlers:
            raise TransportError(f"destination site {dst} is not registered")
        self.messages_sent += 1
        if (tenant, src) in self._failed or dst_key in self._failed:
            return
        self._queue.append((tenant, src, dst, payload))
        if self._auto_drain:
            self.drain()

    def pending(self) -> int:
        return len(self._queue)

    def quiesce(self, max_events=None) -> int:
        """Deliver everything queued (``max_events`` is moot: drain is total)."""
        return self.drain()

    def drain(self) -> int:
        """Deliver all queued messages; returns the number delivered."""
        if self._draining:
            return 0
        self._draining = True
        delivered = 0
        try:
            while self._queue:
                tenant, src, dst, payload = self._queue.popleft()
                dst_key = (tenant, dst)
                if (tenant, src) in self._failed or dst_key in self._failed:
                    continue
                handler = self._handlers.get(dst_key)
                if handler is None:
                    # Destination evicted after the send was accepted
                    # (SessionHost tenant eviction): drop, never raise.
                    continue
                handler(src, payload)
                delivered += 1
        finally:
            self._draining = False
        return delivered

    def fail_site_scoped(self, tenant: int, site: int) -> None:
        """Crash ``site`` fail-stop and notify failure listeners synchronously."""
        if (tenant, site) in self._failed:
            return
        self._failed.add((tenant, site))
        self._notify_failed(tenant, site)
        if self._auto_drain:
            self.drain()
