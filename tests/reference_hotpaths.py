"""Naive linear reference implementations of the protocol hot paths.

These are verbatim copies of the *seed* (pre-optimization) algorithms for
:class:`~repro.core.history.ValueHistory`,
:class:`~repro.vtime.intervals.IntervalSet`, and
:class:`~repro.sim.scheduler.Scheduler`, kept as a test oracle: the
property-based tests in ``tests/test_hotpath_equivalence.py`` drive the
optimized structures and these references with identical operation
sequences and assert identical observable behavior, so the bisect indexes
can never silently diverge from the simple semantics.

Do not "improve" these: their entire value is staying naive.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Generic, Iterator, List, Optional, TypeVar

from repro.core.history import HistoryEntry
from repro.errors import ProtocolError, SimulationError
from repro.vtime import VT_ZERO, Interval, VirtualTime

V = TypeVar("V")


class NaiveValueHistory(Generic[V]):
    """The seed ``ValueHistory``: plain list, linear scans everywhere."""

    def __init__(self, initial: V, initial_vt: VirtualTime = VT_ZERO) -> None:
        self._entries: List[HistoryEntry[V]] = [
            HistoryEntry(vt=initial_vt, value=initial, committed=True)
        ]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[HistoryEntry[V]]:
        return iter(self._entries)

    def current(self) -> HistoryEntry[V]:
        return self._entries[-1]

    def committed_current(self) -> HistoryEntry[V]:
        for entry in reversed(self._entries):
            if entry.committed:
                return entry
        raise ProtocolError("history lost its committed base entry")

    def read_at(self, vt: VirtualTime) -> HistoryEntry[V]:
        result: Optional[HistoryEntry[V]] = None
        for entry in self._entries:
            if entry.vt <= vt:
                result = entry
            else:
                break
        if result is None:
            raise ProtocolError(
                f"no value at or before {vt}; history begins at {self._entries[0].vt}"
            )
        return result

    def committed_read_at(self, vt: VirtualTime) -> HistoryEntry[V]:
        result: Optional[HistoryEntry[V]] = None
        for entry in self._entries:
            if entry.vt <= vt and entry.committed:
                result = entry
            if entry.vt > vt:
                break
        if result is None:
            raise ProtocolError(f"no committed value at or before {vt}")
        return result

    def entry_at(self, vt: VirtualTime) -> Optional[HistoryEntry[V]]:
        for entry in self._entries:
            if entry.vt == vt:
                return entry
            if entry.vt > vt:
                return None
        return None

    def entries_in_open_interval(
        self, lo: VirtualTime, hi: VirtualTime, committed_only: bool = False
    ) -> List[HistoryEntry[V]]:
        found = []
        for entry in self._entries:
            if lo < entry.vt < hi and (entry.committed or not committed_only):
                found.append(entry)
        return found

    def insert(self, vt: VirtualTime, value: V, committed: bool = False) -> HistoryEntry[V]:
        entry = HistoryEntry(vt=vt, value=value, committed=committed)
        for i in range(len(self._entries) - 1, -1, -1):
            existing = self._entries[i]
            if existing.vt == vt:
                raise ProtocolError(f"duplicate history entry at {vt}")
            if existing.vt < vt:
                self._entries.insert(i + 1, entry)
                return entry
        self._entries.insert(0, entry)
        return entry

    def set_value_at(self, vt: VirtualTime, value: V) -> None:
        entry = self.entry_at(vt)
        if entry is None:
            raise ProtocolError(f"no entry at {vt} to overwrite")
        entry.value = value

    def commit(self, vt: VirtualTime) -> bool:
        entry = self.entry_at(vt)
        if entry is None:
            return False
        entry.committed = True
        return True

    def purge(self, vt: VirtualTime) -> bool:
        for i, entry in enumerate(self._entries):
            if entry.vt == vt:
                if len(self._entries) == 1:
                    raise ProtocolError("cannot purge the last remaining history entry")
                del self._entries[i]
                return True
        return False

    def gc(self, floor: Optional[VirtualTime] = None) -> int:
        if floor is None:
            floor = self.committed_current().vt
        base_index = None
        for i, entry in enumerate(self._entries):
            if entry.committed and entry.vt <= floor:
                base_index = i
        if base_index is None or base_index == 0:
            return 0
        dropped = base_index
        self._entries = self._entries[base_index:]
        return dropped

    def __repr__(self) -> str:
        return f"NaiveValueHistory({self._entries!r})"


class NaiveIntervalSet:
    """The seed ``IntervalSet``: one flat list, rebuilt on every removal."""

    def __init__(self) -> None:
        self._intervals: List[Interval] = []

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def reserve(self, lo: VirtualTime, hi: VirtualTime, owner: VirtualTime) -> Interval:
        interval = Interval(lo, hi, owner)
        if not interval.is_empty():
            self._intervals.append(interval)
        return interval

    def blocking_reservation(
        self, vt: VirtualTime, exclude_owner: Optional[VirtualTime] = None
    ) -> Optional[Interval]:
        for interval in self._intervals:
            if interval.owner == exclude_owner:
                continue
            if interval.contains_strictly(vt):
                return interval
        return None

    def release_owner(self, owner: VirtualTime) -> int:
        before = len(self._intervals)
        self._intervals = [i for i in self._intervals if i.owner != owner]
        return before - len(self._intervals)

    def prune_before(self, vt: VirtualTime) -> int:
        before = len(self._intervals)
        # The seed's convoluted predicate, kept verbatim: "not hi < vt and
        # hi != vt" is exactly "hi > vt" under a total order.
        self._intervals = [i for i in self._intervals if not i.hi < vt and i.hi != vt]
        return before - len(self._intervals)

    def covering_intervals(self, vt: VirtualTime) -> List[Interval]:
        return [i for i in self._intervals if i.contains_strictly(vt)]

    def owners(self) -> List[VirtualTime]:
        seen: List[VirtualTime] = []
        for interval in self._intervals:
            if interval.owner not in seen:
                seen.append(interval.owner)
        return seen

    def __repr__(self) -> str:
        return f"NaiveIntervalSet({self._intervals!r})"


@dataclass(order=True)
class NaiveScheduledEvent:
    """The seed ``ScheduledEvent``: a fully comparable dataclass."""

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        self.cancelled = True


class NaiveScheduler:
    """The seed ``Scheduler``: dataclass heap entries, O(n) ``pending()``,
    cancelled events retained until popped."""

    def __init__(self) -> None:
        self._queue: List[NaiveScheduledEvent] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._events_processed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def call_at(
        self, time: float, action: Callable[[], None], label: str = ""
    ) -> NaiveScheduledEvent:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event {label!r} at {time} before current time {self._now}"
            )
        event = NaiveScheduledEvent(time=time, seq=next(self._seq), action=action, label=label)
        heapq.heappush(self._queue, event)
        return event

    def call_later(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> NaiveScheduledEvent:
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {label!r}")
        return self.call_at(self._now + delay, action, label)

    def pending(self) -> int:
        return sum(1 for e in self._queue if not e.cancelled)

    def step(self) -> bool:
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            self._events_processed += 1
            event.action()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        if self._running:
            raise SimulationError("scheduler.run() is not reentrant")
        self._running = True
        try:
            executed = 0
            while self._queue:
                head = self._queue[0]
                if head.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and head.time > until:
                    break
                heapq.heappop(self._queue)
                self._now = head.time
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
        return self.run(until=None, max_events=max_events)

    def advance_to(self, time: float) -> None:
        if time < self._now:
            raise SimulationError(f"cannot move clock backwards to {time}")
        self._now = time

    def __repr__(self) -> str:
        return f"NaiveScheduler(now={self._now}, pending={self.pending()})"
