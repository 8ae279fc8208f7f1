"""Lamport virtual time with site identifiers.

Every transaction, snapshot, and graph update in DECAF is stamped with a
*virtual time* (VT).  The paper computes VTs "as a Lamport time, including a
site identifier to guarantee uniqueness" (section 3).  Two VTs from different
sites therefore never compare equal, and all VTs in the system are totally
ordered.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Optional


class VirtualTime(tuple):
    """A totally ordered ``(counter, site)`` Lamport timestamp.

    Ordering is lexicographic: the Lamport counter dominates and the site
    identifier breaks ties.  Instances are immutable and hashable so they
    can key history entries, reservation tables, and commit logs.

    VTs are the single most-compared object in the system — every history
    lookup, reservation check, and commit-log ordering goes through them —
    so the class *is* a two-element tuple: hashing, equality, ordering,
    ``min``/``max``/``sorted`` and ``bisect`` all run in C, with no
    Python-level comparison method in between.  One consequence, pinned in
    the tests: ``VirtualTime(3, 1) == (3, 1)`` is ``True``, so any code
    that dispatches on type must test ``VirtualTime`` before ``tuple``.

    ``__slots__ = ()`` keeps instances free of a ``__dict__``: a VT is
    exactly its tuple, and per-VT caches (the codec's encode stamp) live
    outside it, keyed by the VT.
    """

    __slots__ = ()

    def __new__(cls, counter: int, site: int) -> "VirtualTime":
        return tuple.__new__(cls, (counter, site))

    counter = property(itemgetter(0), doc="The Lamport counter.")
    site = property(itemgetter(1), doc="The issuing site's identifier.")

    @property
    def key(self) -> "VirtualTime":
        """The sort key used by the bisect indexes in histories and interval
        sets: the VT itself, which hashes and compares as ``(counter, site)``."""
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"VirtualTime is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"VirtualTime is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (VirtualTime, (self.counter, self.site))

    def __repr__(self) -> str:
        return f"VT({self.counter}@{self.site})"

    def next_at(self, site: int) -> "VirtualTime":
        """Return the smallest VT at ``site`` strictly after this VT."""
        return VirtualTime(self.counter + 1, site)


#: The distinguished origin of virtual time.  Initial object values and
#: initial replication graphs are recorded at VT_ZERO, which precedes every
#: transaction-assigned VT (real sites use positive identifiers).
VT_ZERO = VirtualTime(0, -1)

#: The end of virtual time: it sorts above every VT a clock can issue or a
#: peer can send, however far a counter has been pushed, because a tuple
#: compares ``math.inf`` above any int.  A search bound "after everything",
#: never stamped on an entry and never encoded.
VT_TOP = VirtualTime(math.inf, 0)


class LamportClock:
    """A per-site Lamport clock producing unique :class:`VirtualTime` values.

    ``tick()`` stamps a local event; ``observe(vt)`` merges a timestamp seen
    on an incoming message so that causally later local events receive
    later VTs (Lamport's rule).
    """

    def __init__(self, site: int, start: int = 0) -> None:
        if site < 0:
            raise ValueError("site identifiers must be non-negative")
        self._site = site
        self._counter = start

    @property
    def site(self) -> int:
        """The site identifier embedded in every produced VT."""
        return self._site

    @property
    def counter(self) -> int:
        """The current Lamport counter (last issued or observed)."""
        return self._counter

    def tick(self) -> VirtualTime:
        """Advance the clock and return a fresh, unique VT for a local event."""
        self._counter += 1
        return VirtualTime(self._counter, self._site)

    def observe(self, vt: Optional[VirtualTime]) -> None:
        """Merge a VT carried by an incoming message (no-op for ``None``)."""
        if vt is not None and vt.counter > self._counter:
            self._counter = vt.counter

    def observe_counter(self, counter: int) -> None:
        """Merge a bare Lamport counter from an incoming message.

        Equivalent to ``observe(VirtualTime(counter, src))`` for any site —
        the merge only reads the counter — without allocating a throwaway
        :class:`VirtualTime`.  The message dispatch loop calls this once
        per incoming message.
        """
        if counter > self._counter:
            self._counter = counter

    def peek(self) -> VirtualTime:
        """Return the VT the next :meth:`tick` would produce, without ticking."""
        return VirtualTime(self._counter + 1, self._site)

    def __repr__(self) -> str:
        return f"LamportClock(site={self._site}, counter={self._counter})"
