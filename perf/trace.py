"""In-memory span tracer for the traced benchmark run.

The tracer wraps, from the outside, the public entry points of each layer
(``SiteRuntime.transact`` / ``dispatch``, the codec functions ``tcp.py``
bound at import, ``TcpTransport.send_scoped``, ``SessionHost.tenant``,
``Scheduler.run`` and the benchmark's own view callbacks).  Nothing under
``src/`` is edited; spans inside the program are a later change.

A span is ``(name, start, end, parent, txn)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``txn`` the key of the
transaction's virtual time, so spans of one transaction share an
identifier.  The process runs one thread and wraps only synchronous
functions, so spans nest by call stack.  A layer's self time is its spans'
duration minus the part their child spans cover (:func:`self_times`).

Spans live in ``array`` columns, not in per-span objects: a run records a
few hundred thousand of them, and as collector-tracked tuples they made
every generation-2 collection of the traced run visibly longer.

Wrappers are installed once, before set-up, because ``SiteRuntime`` binds
``self.dispatch`` into the transport when it is constructed.  While
``Tracer.on`` is false a wrapper is one flag test and a tail call, which
is what lets one process measure an untraced and a traced slice of the
same workload back to back (``trace.overhead_ratio``).
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (name, start_s, end_s, parent_index, txn_key) — ``end_s`` of 0 marks a
#: span that never finished.
Span = Tuple[str, float, float, int, Optional[Tuple[int, int]]]

#: The traced boundaries, in budget-table order.
SPAN_NAMES = (
    "core.transact",
    "core.dispatch",
    "views.callback",
    "wire.encode",
    "wire.decode",
    "tcp.send",
    "host.tenant",
    "sim.run",
)


def self_times(spans: Iterable[Span], base: int = 0) -> Dict[str, Tuple[int, float]]:
    """Per span name: (count, total self seconds).

    Self time of a span is its duration minus the durations of its direct
    children; children lie wholly inside their parent and do not overlap
    each other (single-threaded call nesting), so the subtraction is the
    part of the interval child spans cover.  ``spans`` may be a run of
    consecutive spans starting at index ``base`` of a longer recording, cut
    where no span was open: parent indexes are then offset by ``base``.
    """
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _txn in spans:
        if end and parent >= base:
            child_time[parent - base] += end - start
    totals: Dict[str, Tuple[int, float]] = {}
    for index, (name, start, end, _parent, _txn) in enumerate(spans):
        if not end:
            continue
        count, total = totals.get(name, (0, 0.0))
        totals[name] = (count + 1, total + (end - start) - child_time[index])
    return totals


class Tracer:
    """Records spans while ``on``; wrappers pass straight through otherwise."""

    def __init__(self) -> None:
        self.on = False
        self._name = array("b")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._txn_counter = array("q")
        self._txn_site = array("q")
        self._stack: List[int] = []
        #: Counts taken at the same boundaries as the spans.
        self.frames_encoded = 0
        self.bytes_encoded = 0
        self.msgs_encoded = 0
        self._undo: List[Tuple[Any, str, Any]] = []

    def __len__(self) -> int:
        return len(self._start)

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def spans(self, first: int = 0, last: Optional[int] = None) -> Iterable[Span]:
        for index in range(first, len(self) if last is None else last):
            counter = self._txn_counter[index]
            yield (
                SPAN_NAMES[self._name[index]],
                self._start[index],
                self._end[index],
                self._parent[index],
                (counter, self._txn_site[index]) if counter >= 0 else None,
            )

    def self_times(self, first: int = 0, last: Optional[int] = None) -> Dict[str, Tuple[int, float]]:
        return self_times(self.spans(first, last), base=first)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        vt_of: Optional[Callable[[tuple, Any], Any]] = None,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recorded as a span named ``name`` whenever the tracer is on.

        ``vt_of(args, result)`` finds the transaction's virtual time;
        ``after`` does boundary counting.  Both run after the end timestamp,
        so their cost lands in the parent's self time (tracing overhead),
        not in ``name``.
        """
        code = SPAN_NAMES.index(name)
        names, starts, ends, parents = self._name, self._start, self._end, self._parent
        counters, sites, stack = self._txn_counter, self._txn_site, self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.on:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            counters.append(-1)
            sites.append(-1)
            stack.append(index)
            result = None
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[index] = perf_counter()
                stack.pop()
                vt = vt_of(args, result) if vt_of is not None else None
                if vt is not None:
                    counters[index], sites[index] = vt.key
                if after is not None:
                    after(args, result)

        return traced

    def patch(self, owner: Any, attr: str, name: str, **kwargs: Any) -> None:
        """Replace ``owner.attr`` with its traced wrapper (undone by :meth:`uninstall`)."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kwargs))

    def install(self, view_classes: Sequence[type] = ()) -> None:
        """Wrap every layer boundary.  Call before any session is built."""
        from repro.core.site import SiteRuntime
        from repro.host import SessionHost
        from repro.sim.scheduler import Scheduler
        from repro.transport import tcp
        from repro.transport.tcp import TcpTransport

        def payload_vt(payload: Any) -> Any:
            return getattr(payload, "txn_vt", None)

        def count_frame(args: tuple, frame: Any) -> None:
            if frame is None:
                return
            self.frames_encoded += 1
            self.bytes_encoded += len(frame)
            messages = getattr(args[2], "messages", None)
            self.msgs_encoded += len(messages) if messages is not None else 1

        self.patch(SiteRuntime, "transact", "core.transact",
                   vt_of=lambda args, outcome: getattr(outcome, "vt", None))
        self.patch(SiteRuntime, "dispatch", "core.dispatch",
                   vt_of=lambda args, _r: payload_vt(args[2]))
        # tcp.py calls the names it imported, so those are the ones to wrap.
        self.patch(tcp, "encode_frame", "wire.encode",
                   vt_of=lambda args, _r: payload_vt(args[2]), after=count_frame)
        self.patch(tcp, "decode_frame", "wire.decode",
                   vt_of=lambda args, routed: payload_vt(routed[3]) if routed else None)
        self.patch(TcpTransport, "send_scoped", "tcp.send",
                   vt_of=lambda args, _r: payload_vt(args[4]))
        self.patch(SessionHost, "tenant", "host.tenant")
        self.patch(Scheduler, "run", "sim.run")
        for cls in view_classes:
            self.patch(cls, "update", "views.callback", vt_of=lambda args, _r: args[2].ts)
            self.patch(cls, "commit", "views.callback")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Dump every span as one JSON line.  Call after the window ends."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, txn) in enumerate(self.spans()):
                fh.write(json.dumps({
                    "index": index,
                    "name": name,
                    "start_us": round(start * 1e6, 1),
                    "end_us": round(end * 1e6, 1) if end else None,
                    "parent": parent,
                    "txn": f"{txn[0]}@{txn[1]}" if txn is not None else None,
                }))
                fh.write("\n")
