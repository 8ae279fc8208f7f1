"""The discrete-event scheduler at the heart of the simulation substrate.

A :class:`Scheduler` maintains a priority queue of timestamped callbacks.
Ties in simulated time are broken by insertion order, which makes every run
fully deterministic: the same seed and the same call sequence always yield
the same execution.

Implementation: the heap holds plain ``(time, seq, event)`` tuples, so
sift comparisons resolve on the first two ints (``seq`` is unique — the
event object itself is never compared).  Cancelled events are skipped
lazily on pop, but the scheduler counts them and compacts the heap once
they exceed half of it, so cancellation-heavy workloads (retry timers,
timeouts that almost always get cancelled) don't accumulate garbage.  A
live-event counter makes :meth:`Scheduler.pending` O(1).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError

#: Minimum heap size before cancelled-event compaction can trigger.
_COMPACT_MIN_HEAP = 64


def _event_name(label: str, action: Callable[[], None]) -> str:
    """What an error calls an event: its label, or else the name of the
    function it calls (the simulated network labels nothing, so a send
    formats no string; its action is a ``functools.partial``)."""
    function = getattr(action, "func", action)
    return label or getattr(function, "__qualname__", None) or repr(action)


class ScheduledEvent:
    """A pending callback in the event queue.

    Events fire in ``(time, seq)`` order; ``seq`` is a monotonically
    increasing insertion counter that makes simultaneous events fire in
    FIFO order.  One is allocated per simulated message, so it is slotted.
    """

    __slots__ = ("time", "seq", "action", "label", "cancelled", "_sched")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Callable[[], None],
        label: str = "",
        _sched: Optional["Scheduler"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = False
        # Back-reference for cancellation bookkeeping; cleared once the event
        # leaves the heap so late cancels cannot corrupt the live counter.
        self._sched = _sched

    def __repr__(self) -> str:
        name = _event_name(self.label, self.action)
        return f"ScheduledEvent(time={self.time}, seq={self.seq}, {name!r})"

    def cancel(self) -> None:
        """Prevent the event from firing (it stays in the heap but is skipped)."""
        if self.cancelled:
            return
        self.cancelled = True
        sched = self._sched
        if sched is not None:
            self._sched = None
            sched._note_cancelled()


class Scheduler:
    """A deterministic discrete-event loop over simulated milliseconds."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, ScheduledEvent]] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._events_processed = 0
        self._live = 0
        self._cancelled_in_heap = 0

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    def call_at(self, time: float, action: Callable[[], None], label: str = "") -> ScheduledEvent:
        """Schedule ``action`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event {_event_name(label, action)!r} at {time} "
                f"before current time {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, seq, action, label, self)
        heapq.heappush(self._queue, (time, seq, event))
        self._live += 1
        return event

    def call_later(self, delay: float, action: Callable[[], None], label: str = "") -> ScheduledEvent:
        """Schedule ``action`` after ``delay`` simulated milliseconds."""
        if delay < 0:
            raise SimulationError(
                f"negative delay {delay} for event {_event_name(label, action)!r}"
            )
        return self.call_at(self._now + delay, action, label)

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    def _note_cancelled(self) -> None:
        self._live -= 1
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap > len(self._queue) // 2
            and len(self._queue) >= _COMPACT_MIN_HEAP
        ):
            self._compact()

    def _compact(self) -> None:
        """Purge cancelled entries and re-heapify (heap order is (time, seq))."""
        self._queue = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_in_heap = 0

    def _pop_live(self) -> Optional[ScheduledEvent]:
        """Pop the earliest live event off the heap, discarding cancelled ones."""
        while self._queue:
            _, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            event._sched = None
            self._live -= 1
            return event
        return None

    def step(self) -> bool:
        """Execute the single earliest event.  Returns False if queue is empty."""
        event = self._pop_live()
        if event is None:
            return False
        self._now = event.time
        self._events_processed += 1
        event.action()
        return True

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Run events until the queue drains or simulated time passes ``until``.

        Returns the final simulated time.  ``max_events`` bounds runaway
        simulations (a protocol livelock surfaces as an error rather than a
        hang).
        """
        if self._running:
            raise SimulationError("scheduler.run() is not reentrant")
        self._running = True
        try:
            executed = 0
            while self._queue:
                time, _, head = self._queue[0]
                if head.cancelled:
                    heapq.heappop(self._queue)
                    self._cancelled_in_heap -= 1
                    continue
                if until is not None and time > until:
                    break
                heapq.heappop(self._queue)
                head._sched = None
                self._live -= 1
                self._now = time
                self._events_processed += 1
                head.action()
                executed += 1
                if executed > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; probable protocol livelock"
                    )
            if until is not None and self._now < until:
                self._now = until
            return self._now
        finally:
            self._running = False

    def run_until_quiescent(self, max_events: int = 10_000_000) -> float:
        """Drain every pending event; returns the final simulated time.

        The paper's optimistic-view liveness guarantee is phrased in terms of
        the system reaching a *quiescent* state; this is the simulation
        analogue.
        """
        return self.run(until=None, max_events=max_events)

    def advance_to(self, time: float) -> None:
        """Move the clock forward with no events (idle time)."""
        if time < self._now:
            raise SimulationError(f"cannot move clock backwards to {time}")
        self._now = time

    def __repr__(self) -> str:
        return f"Scheduler(now={self._now}, pending={self.pending()})"
