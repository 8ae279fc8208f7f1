"""Value histories: the per-object multi-version store.

Each model object holds a *value history* — "a set of pairs of values and
VTs, sorted by VT" (paper section 3) — plus a similarly indexed
*replication graph history*.  The value with the latest VT is the *current*
value.  Histories support:

* optimistic insertion of uncommitted values at a transaction's VT,
* reads "as of" a snapshot VT (pessimistic views read past versions),
* purging on abort (rollback),
* commit marking and commit-driven garbage collection.

The same structure stores scalar values, association values, and
replication graphs; composites use one history per embedded leaf plus
VT-tagged child slots (see :mod:`repro.core.composites`).

Implementation: alongside the entry list the history maintains a parallel
list of the entries' VTs (a ``VirtualTime`` is its own sort key — a tuple
compared in C), kept in the same order, so every
VT-positional query (``read_at``, ``committed_read_at``, ``entry_at``,
``entries_in_open_interval``, ``insert``) runs in O(log n) via
:mod:`bisect` instead of a linear scan.  A cached index of the latest
committed entry makes ``committed_current()`` O(1).  The naive linear
implementation is preserved verbatim in ``tests/reference_hotpaths.py`` as
the equivalence baseline.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Generic, Iterator, List, Optional, TypeVar

from repro.errors import ProtocolError
from repro.vtime import VT_ZERO, VirtualTime

V = TypeVar("V")


class HistoryEntry(Generic[V]):
    """One version: the value written at ``vt`` by the transaction at ``vt``.
    One is retained per write and replica, so it is slotted (by hand: a
    field default and ``__slots__`` do not mix in a dataclass before 3.10)."""

    __slots__ = ("vt", "value", "committed")

    def __init__(self, vt: VirtualTime, value: V, committed: bool = False) -> None:
        self.vt = vt
        self.value = value
        self.committed = committed

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vt, self.value, self.committed) == (other.vt, other.value, other.committed)

    __hash__ = None  # type: ignore[assignment]  # mutable, as the dataclass was

    def __repr__(self) -> str:
        flag = "c" if self.committed else "u"
        return f"<{self.vt}={self.value!r}:{flag}>"


class ValueHistory(Generic[V]):
    """A VT-sorted multi-version history for one model object.

    The history always contains at least one entry (the initial value at
    ``VT_ZERO``, committed), so ``current()`` and ``read_at()`` are total.
    """

    __slots__ = ("_entries", "_keys", "_latest_committed")

    def __init__(self, initial: V, initial_vt: VirtualTime = VT_ZERO) -> None:
        self._entries: List[HistoryEntry[V]] = [
            HistoryEntry(vt=initial_vt, value=initial, committed=True)
        ]
        # Parallel bisect index: _keys[i] == _entries[i].vt, always sorted.
        self._keys: List[VirtualTime] = [initial_vt]
        # Index of the latest committed entry, or None if none remains.
        self._latest_committed: Optional[int] = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[HistoryEntry[V]]:
        return iter(self._entries)

    def current(self) -> HistoryEntry[V]:
        """The entry with the latest VT (the paper's *current value*)."""
        return self._entries[-1]

    def committed_current(self) -> HistoryEntry[V]:
        """The latest committed entry."""
        if self._latest_committed is None:
            raise ProtocolError("history lost its committed base entry")
        return self._entries[self._latest_committed]

    def read_at(self, vt: VirtualTime) -> HistoryEntry[V]:
        """The entry in effect at ``vt``: latest entry with ``entry.vt <= vt``."""
        i = bisect_right(self._keys, vt) - 1
        if i < 0:
            raise ProtocolError(
                f"no value at or before {vt}; history begins at {self._entries[0].vt}"
            )
        return self._entries[i]

    def committed_read_at(self, vt: VirtualTime) -> HistoryEntry[V]:
        """The latest *committed* entry with ``entry.vt <= vt``."""
        i = bisect_right(self._keys, vt) - 1
        entries = self._entries
        while i >= 0 and not entries[i].committed:
            i -= 1
        if i < 0:
            raise ProtocolError(f"no committed value at or before {vt}")
        return entries[i]

    def entry_at(self, vt: VirtualTime) -> Optional[HistoryEntry[V]]:
        """The exact entry written at ``vt``, if present."""
        i = bisect_left(self._keys, vt)
        if i < len(self._keys) and self._keys[i] == vt:
            return self._entries[i]
        return None

    def predecessor_of(self, vt: VirtualTime) -> Optional[HistoryEntry[V]]:
        """The entry just below the one written at ``vt``, committed or not
        (None when nothing was written at ``vt`` or nothing lies below it)."""
        keys = self._keys
        i = bisect_left(keys, vt)
        if 0 < i < len(keys) and keys[i] == vt:
            return self._entries[i - 1]
        return None

    def entries_in_open_interval(
        self, lo: VirtualTime, hi: VirtualTime, committed_only: bool = False
    ) -> List[HistoryEntry[V]]:
        """Entries with ``lo < vt < hi`` — the RL guess check's evidence."""
        start = bisect_right(self._keys, lo)
        stop = bisect_left(self._keys, hi)
        window = self._entries[start:stop]
        if committed_only:
            return [e for e in window if e.committed]
        return window

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, vt: VirtualTime, value: V, committed: bool = False) -> HistoryEntry[V]:
        """Insert a version at ``vt`` keeping the history sorted.

        Duplicate VTs are a protocol violation (VTs are globally unique and
        each transaction's write reaches a site exactly once).
        """
        i = bisect_right(self._keys, vt)
        if i > 0 and self._keys[i - 1] == vt:
            raise ProtocolError(f"duplicate history entry at {vt}")
        entry = HistoryEntry(vt=vt, value=value, committed=committed)
        self._entries.insert(i, entry)
        self._keys.insert(i, vt)
        lc = self._latest_committed
        if lc is not None and i <= lc:
            lc += 1
        if committed and (lc is None or i > lc):
            lc = i
        self._latest_committed = lc
        return entry

    def set_value_at(self, vt: VirtualTime, value: V) -> None:
        """Replace the value stored at an existing entry (same-txn overwrite)."""
        entry = self.entry_at(vt)
        if entry is None:
            raise ProtocolError(f"no entry at {vt} to overwrite")
        entry.value = value

    def commit(self, vt: VirtualTime) -> bool:
        """Mark the entry at ``vt`` committed; returns False if absent."""
        i = bisect_left(self._keys, vt)
        if i >= len(self._keys) or self._keys[i] != vt:
            return False
        self._entries[i].committed = True
        if self._latest_committed is None or i > self._latest_committed:
            self._latest_committed = i
        return True

    def purge(self, vt: VirtualTime) -> bool:
        """Remove the (aborted) entry at ``vt``; returns False if absent."""
        i = bisect_left(self._keys, vt)
        if i >= len(self._keys) or self._keys[i] != vt:
            return False
        if len(self._entries) == 1:
            raise ProtocolError("cannot purge the last remaining history entry")
        del self._entries[i]
        del self._keys[i]
        lc = self._latest_committed
        if lc is not None:
            if i < lc:
                self._latest_committed = lc - 1
            elif i == lc:
                self._latest_committed = self._rescan_latest_committed(i - 1)
        return True

    def _rescan_latest_committed(self, start: int) -> Optional[int]:
        for j in range(start, -1, -1):
            if self._entries[j].committed:
                return j
        return None

    def gc(self, floor: Optional[VirtualTime] = None) -> int:
        """Garbage-collect versions older than the retention ``floor``.

        Keeps the latest committed entry at or before ``floor`` (still
        readable by snapshots pinned at ``floor``) and everything after it.
        With no floor, collects up to the latest committed entry — the
        paper's "committal makes old values no longer needed".
        Returns the number of entries dropped.
        """
        if floor is None:
            if self._latest_committed is None:
                raise ProtocolError("history lost its committed base entry")
            base_index: Optional[int] = self._latest_committed
        else:
            i = bisect_right(self._keys, floor) - 1
            while i >= 0 and not self._entries[i].committed:
                i -= 1
            base_index = i if i >= 0 else None
        if base_index is None or base_index == 0:
            return 0
        dropped = base_index
        self._entries = self._entries[base_index:]
        self._keys = self._keys[base_index:]
        lc = self._latest_committed
        self._latest_committed = lc - base_index if lc is not None and lc >= base_index else None
        return dropped

    def __repr__(self) -> str:
        return f"ValueHistory({self._entries!r})"
