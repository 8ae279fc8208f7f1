"""Guess bookkeeping: access records and the RC dependency index.

The validity of an optimistic transaction rests on three guess families
(paper section 3.1):

* **RC (Read Committed)** — each value (or graph) read was written by a
  transaction that will commit.  Tracked *locally at the originating site*:
  "the originating site simply records the VT of the transaction that wrote
  the uncommitted value ... and will not commit its transaction until the
  transaction at the recorded VT commits."
* **RL (Read Latest)** — no write occurred at the primary copy between the
  read time and the transaction's VT.  Checked remotely at primaries.
* **NC (No Conflict)** — no other transaction reserved a write-free region
  containing the write's VT.  Checked remotely at primaries.

This module holds the originating-site data structures: per-transaction
access records (converted into WRITE/CONFIRM-READ messages by
:mod:`repro.core.propagation`) and the :class:`DependencyIndex` mapping each
uncommitted transaction to the local transactions, snapshots and parked
snapshot checks that wait for it to resolve.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Set

from repro.core.messages import OpPayload
from repro.vtime import VirtualTime


# One access record is built per read and per write of every transaction
# attempt, so both are slotted.


class ReadAccess:
    """A transaction's read of one model object (for CONFIRM-READ)."""

    __slots__ = ("target", "read_vt", "graph_vt")

    def __init__(self, target: Any, read_vt: VirtualTime, graph_vt: VirtualTime) -> None:
        self.target = target  # the local ModelObject read
        self.read_vt = read_vt
        self.graph_vt = graph_vt


class WriteAccess:
    """A transaction's write of one model object (for WRITE propagation).

    ``read_vt`` is the VT at which the transaction last read the object
    before writing, or the transaction's own VT for blind writes (which
    makes the RL interval empty — "for blind writes, the RL guess check is
    trivially satisfied").
    """

    __slots__ = ("target", "op", "read_vt", "graph_vt")

    def __init__(
        self, target: Any, op: OpPayload, read_vt: VirtualTime, graph_vt: VirtualTime
    ) -> None:
        self.target = target  # the local ModelObject written
        self.op = op
        self.read_vt = read_vt
        self.graph_vt = graph_vt


class DependencyIndex:
    """Tracks which local work units depend on which uncommitted transactions.

    "For each uncommitted transaction T at a site, a list of other
    transactions at the site which have guessed that T will commit is
    maintained" (section 3.1).  We generalize the dependents to *targets* —
    anything with ``on_dep_commit(vt, vouched)`` and ``on_dep_abort(vt)`` —
    so transaction records (RC guesses), view snapshot records (RC guesses
    and the intervals the COMMIT vouches for), a primary's parked snapshot
    checks (uncommitted entries in the interval) and the join protocol's
    outcome forwarding wait in one list per transaction and are told in the
    order they registered.  It is the only way a resolution reaches them.
    """

    def __init__(self) -> None:
        self._waiters: Dict[VirtualTime, List[Any]] = {}

    def wait_for(self, vt: VirtualTime, target: Any) -> None:
        """Tell ``target`` when the transaction at ``vt`` resolves."""
        self._waiters.setdefault(vt, []).append(target)

    def resolve_commit(self, vt: VirtualTime, vouched: Any = ()) -> int:
        """Tell the targets waiting on ``vt`` that it committed, with what
        its COMMIT vouched for; returns how many were told."""
        waiters = self._waiters.pop(vt, ())
        for target in waiters:
            target.on_dep_commit(vt, vouched)
        return len(waiters)

    def resolve_abort(self, vt: VirtualTime) -> int:
        """Tell the targets waiting on ``vt`` that it aborted."""
        waiters = self._waiters.pop(vt, ())
        for target in waiters:
            target.on_dep_abort(vt)
        return len(waiters)

    def forget(self, doomed: Callable[[Any], bool]) -> None:
        """Drop every waiting target ``doomed`` selects (a detached view's
        snapshot records): nothing resolves into them afterwards."""
        for vt, waiters in list(self._waiters.items()):
            kept = [target for target in waiters if not doomed(target)]
            if kept:
                self._waiters[vt] = kept
            else:
                del self._waiters[vt]

    def targets(self) -> Iterator[Any]:
        """Every waiting target, once per transaction it waits on (diagnostics)."""
        for waiters in self._waiters.values():
            yield from waiters

    def pending_vts(self) -> Set[VirtualTime]:
        """Transactions still being waited on (diagnostics/tests)."""
        return set(self._waiters)

    def __len__(self) -> int:
        return len(self._waiters)
