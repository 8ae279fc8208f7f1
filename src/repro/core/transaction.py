"""Transactions: the atomic update units of DECAF (paper section 2.4).

Application programmers subclass :class:`Transaction` and put arbitrary
reads/writes of model objects in :meth:`Transaction.execute`.  The
execution is an atomic action: it behaves as if all its operations take
place at a single virtual time with respect to all other transactions.

During execution a :class:`TransactionContext` records every access:

* reads record the VT at which the current value was written (``read_vt``,
  the RL guess evidence) and the graph VT (``graph_vt``),
* reads record RC dependencies on the uncommitted writes they fold,
* writes are applied locally at the transaction's VT immediately
  (optimistic execution) and queued for propagation.

The distributed protocol — propagation, guess checking at primaries,
summary commit/abort, automatic re-execution — lives in
:mod:`repro.core.commit`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set

from repro.core import propagation
from repro.core.guesses import ReadAccess, WriteAccess
from repro.core.messages import OpPayload
from repro.vtime import VirtualTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.model import ModelObject
    from repro.core.site import SiteRuntime


class Transaction:
    """User-defined atomic action over model objects (paper Fig. 2).

    Subclass and implement :meth:`execute`; optionally override
    :meth:`handle_abort`, which is called when the transaction aborts
    *without retry* because ``execute`` raised an exception (paper: "any
    uncaught exceptions are turned into transaction aborts ... and a
    standard method, called handleAbort(), is called").

    Aborts caused by concurrency-control conflicts are NOT delivered to
    ``handle_abort``; those transactions are automatically re-executed.
    """

    def execute(self) -> None:
        """The transaction body: arbitrary reads and writes of model objects."""
        raise NotImplementedError

    def handle_abort(self, exc: Exception) -> None:
        """Called on explicit (exception) abort; default does nothing."""


class FunctionTransaction(Transaction):
    """Adapter turning a plain callable into a :class:`Transaction`."""

    def __init__(self, fn: Callable[[], Any], on_abort: Optional[Callable[[Exception], None]] = None):
        self._fn = fn
        self._on_abort = on_abort
        self.result: Any = None

    def execute(self) -> None:
        self.result = self._fn()

    def handle_abort(self, exc: Exception) -> None:
        if self._on_abort is not None:
            self._on_abort(exc)


class TxnState(enum.Enum):
    """Lifecycle of one execution attempt of a transaction."""

    EXECUTING = "executing"
    AWAITING = "awaiting-confirms"
    DELEGATED = "delegated"
    COMMITTED = "committed"
    ABORTED = "aborted"


#: The members bound once, for the message path: on CPython 3.11 every
#: ``TxnState.X`` read goes through ``EnumType.__getattr__`` (~160 ns against
#: ~14 ns for a global name).
EXECUTING, AWAITING, DELEGATED, COMMITTED, ABORTED = TxnState


@dataclass
class TransactionOutcome:
    """Final status of a transaction as observed by its initiator.

    ``handle.committed`` flips True when the summary commit is issued;
    ``vt`` is the VT of the *successful* attempt (retries get fresh VTs).
    """

    committed: bool = False
    aborted_no_retry: bool = False
    vt: Optional[VirtualTime] = None
    attempts: int = 0
    start_time_ms: float = 0.0
    local_apply_time_ms: Optional[float] = None
    commit_time_ms: Optional[float] = None
    abort_reason: str = ""
    _commit_callbacks: List[Callable[["TransactionOutcome"], None]] = field(default_factory=list)

    @property
    def commit_latency_ms(self) -> Optional[float]:
        """Commit latency of the successful attempt, in transport ms."""
        if self.commit_time_ms is None:
            return None
        return self.commit_time_ms - self.start_time_ms

    def on_commit(self, callback: Callable[["TransactionOutcome"], None]) -> None:
        """Register a callback fired when the transaction commits."""
        if self.committed:
            callback(self)
        else:
            self._commit_callbacks.append(callback)

    def _fire_commit(self) -> None:
        callbacks, self._commit_callbacks = self._commit_callbacks, []
        for callback in callbacks:
            callback(self)


class TransactionContext:
    """Recorder for one execution attempt: accesses, RC deps, local applies."""

    def __init__(self, site: "SiteRuntime", vt: VirtualTime) -> None:
        self.site = site
        self.vt = vt
        self.reads: Dict[int, ReadAccess] = {}
        self.writes: List[WriteAccess] = []
        self.rc_deps: Set[VirtualTime] = set()
        #: Objects written (identity map) — lets later reads in the same
        #: transaction see their own writes without creating RC deps.
        self._written: Dict[int, "ModelObject"] = {}
        self._slot_seq = 0

    def next_slot_seq(self) -> int:
        """Allocate the identity sequence number for an embedded child.

        Several structural ops in one transaction share its VT; the
        sequence number keeps slot identities unique (nested initial-value
        specs use negative numbers, a disjoint namespace).
        """
        seq = self._slot_seq
        self._slot_seq += 1
        return seq

    # ------------------------------------------------------------------
    # Read recording
    # ------------------------------------------------------------------

    def read(self, obj: "ModelObject") -> Any:
        """Record a read of ``obj`` — a value, or a composite's structure —
        and return its current (optimistic) value.

        The read guesses RC on each uncommitted write it folds, as
        ``obj.uncommitted_deps`` decides, and on an uncommitted replication
        graph.
        """
        entry = obj.history.current()
        key = id(obj)
        if key not in self.reads:
            obj.check_read(self.site.principal)
            self.reads[key] = ReadAccess(target=obj, read_vt=entry.vt, graph_vt=obj.graph_vt())
        vt, rc_deps = self.vt, self.rc_deps
        for dep_vt in obj.uncommitted_deps(vt):
            if dep_vt != vt and dep_vt not in rc_deps:
                rc_deps.add(dep_vt)
                self._emit_rc_guess(obj, dep_vt)
        graph_entry = obj.graph_history().current()
        if not graph_entry.committed and graph_entry.vt != vt and graph_entry.vt not in rc_deps:
            rc_deps.add(graph_entry.vt)
            self._emit_rc_guess(obj, graph_entry.vt)
        return entry.value

    def _emit_rc_guess(self, obj: "ModelObject", dep_vt: VirtualTime) -> None:
        bus = self.site.bus
        if bus.active:
            bus.emit(
                "guess_made",
                site=self.site.site_id,
                time_ms=self.site.transport.now(),
                txn_vt=self.vt,
                guess="RC",
                obj=obj.uid,
                depends_on=dep_vt,
            )

    # ------------------------------------------------------------------
    # Write recording
    # ------------------------------------------------------------------

    def write(self, obj: "ModelObject", op: OpPayload) -> Any:
        """Record a write and apply it locally at the transaction's VT.

        Returns whatever the local apply produced (e.g. the child object
        created by a composite insert).
        """
        obj.check_write(self.site.principal)
        prior_read = self.reads.get(id(obj))
        if prior_read is not None:
            read_vt = prior_read.read_vt
        else:
            # Blind write: "t_R is defined as equal to t_T" (section 3.1).
            # No RC dependency either — the write does not depend on the
            # current (possibly uncommitted) value it overwrites.
            read_vt = self.vt
        access = WriteAccess(target=obj, op=op, read_vt=read_vt, graph_vt=obj.graph_vt())
        self.writes.append(access)
        self._written[id(obj)] = obj
        result = propagation.apply_op(obj, op, self.vt, committed=False)
        if read_vt < self.vt:
            entry = self.site.engine.txns[self.vt]
            if entry.write_reads is None:
                entry.write_reads = {}
            entry.write_reads[obj] = read_vt
        # A write makes the object's current value our own; a subsequent
        # read in this transaction must use our own VT as its read time.
        self.reads[id(obj)] = ReadAccess(target=obj, read_vt=self.vt, graph_vt=obj.graph_vt())
        return result

    # ------------------------------------------------------------------
    # Introspection used by the commit engine
    # ------------------------------------------------------------------

    def read_only_accesses(self) -> List[ReadAccess]:
        """Reads of objects the transaction did not also write."""
        written_ids = set(self._written)
        return [r for r in self.reads.values() if id(r.target) not in written_ids]


@dataclass
class TxnRecord:
    """Originating-site protocol state for one execution attempt."""

    vt: VirtualTime
    txn: Transaction
    ctx: TransactionContext
    outcome: TransactionOutcome
    state: TxnState = TxnState.EXECUTING
    involved_sites: Set[int] = field(default_factory=set)
    pending_confirm_sites: Set[int] = field(default_factory=set)
    pending_rc: Set[VirtualTime] = field(default_factory=set)
    pending_join: bool = False
    #: Protocol-extension hook re-run on every retry (join/leave).
    post_execute: Optional[Callable[["TxnRecord"], None]] = None

    def all_confirmed(self) -> bool:
        return not self.pending_confirm_sites and not self.pending_rc and not self.pending_join

    # A record waits in the site's DependencyIndex for its RC guesses.

    def on_dep_commit(self, dep_vt: VirtualTime, vouched: Any) -> None:
        self.ctx.site.engine._rc_resolved(self, dep_vt)

    def on_dep_abort(self, dep_vt: VirtualTime) -> None:
        self.ctx.site.engine._rc_aborted(self, dep_vt)
