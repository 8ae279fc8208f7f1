"""Virtual time: Lamport clocks with site tie-break, and interval sets.

The paper assigns every transaction a unique *virtual time* (VT) computed as
a Lamport time including a site identifier to guarantee uniqueness
(section 3).  This package provides:

* :class:`~repro.vtime.lamport.VirtualTime` — a totally ordered
  ``(counter, site)`` timestamp,
* :class:`~repro.vtime.lamport.LamportClock` — a per-site clock that ticks
  on local events and merges on message receipt,
* :class:`~repro.vtime.intervals.IntervalSet` — the write-free reservation
  structure kept at primary copies.
"""

from repro.vtime.lamport import VirtualTime, LamportClock, VT_TOP, VT_ZERO
from repro.vtime.intervals import Interval, IntervalSet

__all__ = [
    "VirtualTime",
    "LamportClock",
    "VT_TOP",
    "VT_ZERO",
    "Interval",
    "IntervalSet",
]
