"""Write-free reservation intervals kept at primary copies.

When a primary copy confirms a *Read Latest* (RL) guess for a transaction
that read an object at VT ``t_read`` and runs at VT ``t_txn``, it reserves
the open interval ``(t_read, t_txn)`` as *write-free* (paper section 3.1).
A later transaction attempting to write at a VT strictly inside a reserved
interval fails its *No Conflict* (NC) guess: confirming that write would
retroactively invalidate the already confirmed read.

Intervals are open on both ends: the value read was written *at* ``t_read``
(so a write exactly at ``t_read`` is the read value itself), and the
reserving transaction itself acts *at* ``t_txn`` (VT uniqueness means no
other transaction shares that VT).

Implementation: live intervals are kept in an insertion-ordered dict keyed
by a monotone sequence number, alongside two indexes — a list sorted by the
interval's upper bound (``hi``) for bisect-pruned NC checks and prefix-drop
garbage collection, and a per-owner dict so releasing a transaction's
reservations on abort is O(k) in the number released.  Removals from the
``hi``-sorted list are lazy (tombstoned via absence from the live dict) and
the list is compacted once dead entries exceed half its length.  The naive
linear implementation is preserved verbatim in
``tests/reference_hotpaths.py`` as the equivalence baseline.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.vtime.lamport import VirtualTime


class Interval:
    """An open write-free interval ``(lo, hi)`` reserved by transaction ``owner``.

    A value: compared and hashed by its three fields, and never changed
    once built.  One is built per reservation, so it is slotted.
    """

    __slots__ = ("lo", "hi", "owner")

    def __init__(self, lo: VirtualTime, hi: VirtualTime, owner: VirtualTime) -> None:
        if hi < lo:
            raise ValueError(f"interval upper bound {hi} precedes lower bound {lo}")
        self.lo = lo
        self.hi = hi
        self.owner = owner

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Interval:
            return NotImplemented
        return (self.lo, self.hi, self.owner) == (other.lo, other.hi, other.owner)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.owner))

    def __repr__(self) -> str:
        return f"Interval(lo={self.lo!r}, hi={self.hi!r}, owner={self.owner!r})"

    def contains_strictly(self, vt: VirtualTime) -> bool:
        """True if ``vt`` lies strictly inside the open interval."""
        return self.lo < vt < self.hi

    def is_empty(self) -> bool:
        """True for degenerate intervals (blind writes reserve nothing)."""
        return not self.lo < self.hi


#: Minimum number of tombstoned index slots before a compaction can trigger
#: (avoids rebuild churn on tiny sets).
_COMPACT_MIN_DEAD = 16


class IntervalSet:
    """The set of write-free reservations for one object at its primary copy.

    The structure supports the two primary-side checks of the concurrency
    control algorithm plus commit-driven pruning:

    * :meth:`blocking_reservation` — the NC guess check,
    * :meth:`reserve` — recording a confirmed RL guess,
    * :meth:`prune_before` — garbage collection once commits make old
      reservations unreachable by any future straggler.
    """

    __slots__ = ("_live", "_by_hi", "_by_owner", "_next_seq", "_dead")

    def __init__(self) -> None:
        # seq -> Interval, in insertion order (dicts preserve it).
        self._live: Dict[int, Interval] = {}
        # (hi, seq) sorted ascending; may contain tombstoned seqs.
        self._by_hi: List[Tuple[VirtualTime, int]] = []
        # owner -> the seq it reserved, or the list of its seqs once it
        # holds more than one (every live seq is listed; release_owner's
        # tombstones linger until the next compaction).  Nearly every owner
        # holds one, and a bare int is no object the collector tracks.
        self._by_owner: Dict[VirtualTime, Union[int, List[int]]] = {}
        self._next_seq = 0
        # Count of tombstoned entries still present in _by_hi.
        self._dead = 0

    def __len__(self) -> int:
        return len(self._live)

    def __iter__(self) -> Iterator[Interval]:
        return iter(list(self._live.values()))

    def reserve(self, lo: VirtualTime, hi: VirtualTime, owner: VirtualTime) -> Interval:
        """Record the open interval ``(lo, hi)`` as write-free for ``owner``.

        Empty intervals (``lo >= hi``, e.g. blind writes where the read time
        equals the transaction time) are accepted but not stored, since they
        can never block anything.
        """
        interval = Interval(lo, hi, owner)
        if lo < hi:  # ``not interval.is_empty()``, without the call
            seq = self._next_seq
            self._next_seq = seq + 1
            self._live[seq] = interval
            insort(self._by_hi, (hi, seq))
            by_owner = self._by_owner
            held = by_owner.get(owner)
            if held is None:
                by_owner[owner] = seq
            elif held.__class__ is int:
                by_owner[owner] = [held, seq]
            else:
                held.append(seq)
        return interval

    def blocking_reservation(
        self, vt: VirtualTime, exclude_owner: Optional[VirtualTime] = None
    ) -> Optional[Interval]:
        """Return a reservation by another transaction strictly containing ``vt``.

        This is the NC guess check: a write at ``vt`` conflicts if some other
        transaction has reserved a write-free region containing ``vt``.  The
        writer's own reservations (``exclude_owner``) never block it.
        Returns the earliest-reserved blocking interval, or ``None`` if the
        write is conflict-free.

        Only intervals with ``hi > vt`` can strictly contain ``vt``, and the
        index is sorted by ``hi``, so the scan starts at the bisect point
        past all reservations ending at or before ``vt`` — under commit-driven
        pruning the skipped prefix is most of the set.
        """
        start = bisect_right(self._by_hi, (vt, self._next_seq))
        live = self._live
        best_seq: Optional[int] = None
        for _, seq in self._by_hi[start:]:
            if best_seq is not None and seq >= best_seq:
                continue
            interval = live.get(seq)
            if interval is None:
                continue
            if interval.owner == exclude_owner:
                continue
            if interval.lo < vt:
                best_seq = seq
        if best_seq is None:
            return None
        return live[best_seq]

    def release_owner(self, owner: VirtualTime) -> int:
        """Drop all reservations held by ``owner`` (on abort); returns count dropped."""
        held = self._by_owner.pop(owner, None)
        if held is None:
            return 0
        dropped = 0
        for seq in (held,) if held.__class__ is int else held:
            if self._live.pop(seq, None) is not None:
                dropped += 1
        self._dead += dropped
        self._maybe_compact()
        return dropped

    def prune_before(self, vt: VirtualTime) -> int:
        """Drop reservations with ``hi <= vt``; returns the count dropped.

        Once every site has applied a committed write at ``vt``, no future
        transaction can be assigned a VT below ``vt`` that would need to be
        checked against those reservations, so they are garbage.  A
        reservation ending exactly *at* ``vt`` is equally dead: only VTs
        strictly inside it could ever be blocked, and those precede ``vt``.
        """
        cut = bisect_right(self._by_hi, (vt, self._next_seq))
        if cut == 0:
            return 0
        dropped = 0
        live, by_owner = self._live, self._by_owner
        for _, seq in self._by_hi[:cut]:
            interval = live.pop(seq, None)
            if interval is None:
                self._dead -= 1
                continue
            dropped += 1
            # Leave the owner index too, or an abort-free stream keeps one
            # owner -> seq entry per reservation forever.
            held = by_owner[interval.owner]
            if held.__class__ is int:
                del by_owner[interval.owner]
            else:
                held.remove(seq)
                if len(held) == 1:
                    by_owner[interval.owner] = held[0]
        del self._by_hi[:cut]
        return dropped

    def _maybe_compact(self) -> None:
        """Rebuild the ``hi`` index once tombstones outnumber live entries."""
        if self._dead < _COMPACT_MIN_DEAD or self._dead <= len(self._by_hi) // 2:
            return
        self._by_hi = sorted(
            ((interval.hi, seq) for seq, interval in self._live.items())
        )
        self._dead = 0
        # Drop tombstoned seqs from the owner index while we are at it.
        seqs: Dict[VirtualTime, List[int]] = {}
        for seq, interval in self._live.items():
            seqs.setdefault(interval.owner, []).append(seq)
        self._by_owner = {owner: s[0] if len(s) == 1 else s for owner, s in seqs.items()}

    def covering_intervals(self, vt: VirtualTime) -> List[Interval]:
        """All reservations strictly containing ``vt`` (diagnostics/tests)."""
        return [i for i in self._live.values() if i.contains_strictly(vt)]

    def owners(self) -> List[VirtualTime]:
        """The distinct reservation owners, in insertion order."""
        return list(dict.fromkeys(i.owner for i in self._live.values()))

    def __repr__(self) -> str:
        return f"IntervalSet({list(self._live.values())!r})"


class _NoReservations(IntervalSet):
    """The one shared table of every object that never reserved anything:
    each query answers "nothing" and :meth:`reserve` refuses, since a
    reservation here would land in every such object at once."""

    __slots__ = ()

    def reserve(self, lo: VirtualTime, hi: VirtualTime, owner: VirtualTime) -> Interval:
        raise TypeError("NO_RESERVATIONS is shared and stays empty; reserve on a table of one's own")


#: The empty table a model object starts with (``ModelObject.reserve``
#: gives the object its own on its first non-empty interval).
NO_RESERVATIONS: IntervalSet = _NoReservations()
