"""The transaction engine: optimistic execution, guess checking, fast commit.

This module implements the concurrency-control algorithm of paper
section 3:

1. A transaction executes immediately at its originating site at a fresh
   virtual time, recording read times and applying writes optimistically.
2. The origin batches WRITEs (to every replica site of each touched
   propagation root) and CONFIRM-READ checks (to primary sites) into one
   ``TxnPropagateMsg`` per destination.
3. Primary copies validate RL guesses (no write in the open interval
   between read time and transaction time — and no graph change in the
   graph interval) and NC guesses (no other transaction's write-free
   reservation contains the write VT), reserving confirmed intervals, and
   confirm or deny to the origin only.
4. The origin waits for all confirmations plus its RC dependencies, then
   broadcasts a summary COMMIT; any denial triggers a summary ABORT,
   rollback at every site, and automatic re-execution at the origin.
5. The *delegated commit* optimization: with a single remote primary site
   and no RC guesses, the origin delegates the decision, saving one hop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import propagation
from repro.core.guesses import DependencyIndex
from repro.core.messages import (
    AbortMsg,
    CommitMsg,
    ConfirmMsg,
    DelegateGrant,
    TxnPropagateMsg,
    WriteOp,
)
from repro.core.transaction import (
    ABORTED,
    AWAITING,
    COMMITTED,
    DELEGATED,
    Transaction,
    TransactionContext,
    TransactionOutcome,
    TxnRecord,
    TxnState,
)
from repro.core.views import blocking_subtree_reservation, is_vouchable
from repro.errors import InvalidPath, ProtocolError
from repro.obs.metrics import COUNT_BUCKETS, counter_property
from repro.vtime import VirtualTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.model import ModelObject
    from repro.core.site import SiteRuntime


class TxnEntry:
    """A site's state for one transaction in flight, from first touch until
    its VT resolves: the origin's ``record`` (``None`` elsewhere), the ops
    ``applied`` here, the objects ``reserved`` on as primary, the read time
    of each non-blind write applied here (``write_reads``: what its COMMIT
    vouches for) and the ``uid -> prev`` pairs ``vouched`` for until a
    CONFIRM / COMMIT carries them; the last two are ``None`` until used.
    No ``__init__``: its three creators fill the slots inline, at no call.
    """

    __slots__ = ("record", "applied", "reserved", "write_reads", "vouched")


class PendingPropagate:
    """A propagate message blocked on a not-yet-arrived structural update."""

    def __init__(self, src: int, msg: TxnPropagateMsg, remaining: List[WriteOp]) -> None:
        self.src = src
        self.msg = msg
        self.remaining = remaining


#: The mutation set of every engine outside a canary trial, shared: each
#: ``frozenset()`` built is another object the collector tracks.
_NO_MUTATIONS: AbstractSet[str] = frozenset()


class TransactionEngine:
    """Per-site driver of the optimistic concurrency-control protocol."""

    # Protocol counters live in the site's MetricsRegistry; these read-only
    # properties keep the historical attribute reads (``engine.commits``,
    # bench harness) while every counter stays enumerable and exportable.
    commits = counter_property("txn.commits")
    aborts_conflict = counter_property("txn.aborts_conflict")
    aborts_user = counter_property("txn.aborts_user")
    retries = counter_property("txn.retries")

    def __init__(
        self,
        site: "SiteRuntime",
        max_retries: int = 50,
        delegation_enabled: bool = True,
        retry_backoff_ms: float = 5.0,
    ) -> None:
        self.site = site
        self.max_retries = max_retries
        self.delegation_enabled = delegation_enabled
        #: Base delay before automatic re-execution.  Retrying immediately
        #: (in the same simulated instant) livelocks under contention: the
        #: in-flight state that caused the conflict has not changed yet.
        #: A short, linearly growing delay lets confirmations and commits
        #: arrive before the retry re-reads.
        self.retry_backoff_ms = retry_backoff_ms
        #: Work in flight, popped by :meth:`_garbage_collect` on commit and
        #: by :meth:`_rollback` on abort.
        self.txns: Dict[VirtualTime, TxnEntry] = {}
        #: Resolved outcomes only ("the site retains the fact that the
        #: transaction has committed/aborted" — section 3.1), keyed by plain
        #: ``(counter, site)`` tuples, which the collector untracks (never a
        #: subclass's); a ``VirtualTime`` looks them up, :meth:`resolved`
        #: hands them back as VTs.
        self.status: Dict[Tuple[int, int], TxnState] = {}
        #: RC / snapshot dependency index.
        self.deps = DependencyIndex()
        #: Deliberate protocol breakages for conformance-canary tests ONLY
        #: (see repro.explore): "skip_rl_check" disables the RL interval
        #: check, "skip_nc_check" disables the NC reservation checks,
        #: "views_pre_commit" makes pessimistic views deliver uncommitted
        #: state, "vouch_without_reserve" makes a primary vouch for a blind
        #: write's interval without reserving it.  Empty in production (a
        #: trial assigns its own set); the explorer's oracles must detect
        #: each mutant, proving they are not vacuous.
        self.mutations: AbstractSet[str] = _NO_MUTATIONS
        #: Propagate messages blocked on missing structural predecessors:
        #: ``()``, which the collector does not track, until the first one.
        self.pending_propagates: Sequence[PendingPropagate] = ()

    # ==================================================================
    # Origin side: running a transaction
    # ==================================================================

    def run(
        self,
        txn: Transaction,
        outcome: Optional[TransactionOutcome] = None,
        post_execute=None,
    ) -> TransactionOutcome:
        """Execute ``txn`` optimistically and drive it to commit or abort.

        Returns the (live) :class:`TransactionOutcome`; with an asynchronous
        transport the commit typically happens later — poll ``committed`` or
        register ``on_commit``.

        The whole run is one outbox turn: the propagation fan-out (and any
        eagerly-resolved replies) leaves as one envelope per destination.
        """
        outbox = self.site.outbox
        outbox.depth += 1
        try:
            return self._run(txn, outcome, post_execute)
        finally:
            outbox.depth -= 1
            if not outbox.depth and outbox.buffer:
                outbox.flush()

    def _run(
        self,
        txn: Transaction,
        outcome: Optional[TransactionOutcome],
        post_execute,
    ) -> TransactionOutcome:
        if outcome is None:
            outcome = TransactionOutcome(start_time_ms=self.site.transport.now())
        outcome.attempts += 1
        vt = self.site.clock.tick()
        outcome.vt = vt
        ctx = TransactionContext(self.site, vt)
        record = TxnRecord(vt=vt, txn=txn, ctx=ctx, outcome=outcome)
        record.post_execute = post_execute
        entry = self.txns[vt] = TxnEntry()
        entry.record, entry.applied, entry.reserved = record, [], []
        entry.write_reads = entry.vouched = None
        bus = self.site.bus
        if bus.active:
            bus.emit(
                "txn_submitted",
                site=self.site.site_id,
                time_ms=self.site.transport.now(),
                txn_vt=vt,
                attempt=outcome.attempts,
            )

        self.site.views.begin_batch()
        try:
            with self.site.install_txn(ctx):
                txn.execute()
        except Exception as exc:  # noqa: BLE001 - the paper catches everything
            # "Any uncaught exceptions are turned into transaction aborts,
            # so faulty applications will not be able to create inconsistent
            # states" (section 2.4).  No retry; handleAbort is called.
            self._rollback(vt)
            self.status[tuple(vt)] = ABORTED
            record.state = ABORTED
            outcome.aborted_no_retry = True
            outcome.abort_reason = f"{type(exc).__name__}: {exc}"
            self.site.metrics.inc("txn.aborts_user")
            if bus.active:
                bus.emit(
                    "aborted",
                    site=self.site.site_id,
                    time_ms=self.site.transport.now(),
                    txn_vt=vt,
                    reason=outcome.abort_reason,
                    kind="user",
                )
            self.site.views.end_batch()
            self.deps.resolve_abort(vt)
            txn.handle_abort(exc)
            return outcome
        outcome.local_apply_time_ms = self.site.transport.now()
        self.site.views.end_batch()

        if post_execute is not None:
            # Protocol extensions (the join protocol) may mark the record
            # pending_join and schedule remote calls before fan-out.
            post_execute(record)
            if record.state == ABORTED:
                return outcome
        self._initiate_protocol(record)
        return outcome

    def _initiate_protocol(self, record: TxnRecord) -> None:
        """Local primary checks, message fan-out, and commit bookkeeping."""
        vt = record.vt
        origin = self.site.site_id
        bus = self.site.bus
        if bus.active:
            # Every write makes an RL guess (nothing landed in the read
            # interval) and an NC guess (no reservation contains our VT);
            # read-only accesses make RL guesses.  RC guesses are emitted
            # at read time by TransactionContext.
            now = self.site.transport.now()
            for access in record.ctx.writes:
                uid = access.target.uid
                bus.emit("guess_made", site=origin, time_ms=now, txn_vt=vt,
                         guess="RL", obj=uid)
                bus.emit("guess_made", site=origin, time_ms=now, txn_vt=vt,
                         guess="NC", obj=uid)
            for access in record.ctx.read_only_accesses():
                bus.emit("guess_made", site=origin, time_ms=now, txn_vt=vt,
                         guess="RL", obj=access.target.uid)

        # RC guesses: reads of uncommitted values.
        for dep_vt in record.ctx.rc_deps:
            state = self.status.get(dep_vt)
            if state is COMMITTED:
                continue
            if state is ABORTED:
                self._abort_origin(record, f"RC dependency {dep_vt} already aborted")
                return
            record.pending_rc.add(dep_vt)

        # Local primary checks (objects whose primary copy lives here).
        ok, reason, against = self._check_local_primaries(record)
        if bus.active:
            bus.emit(
                "validated",
                site=origin,
                time_ms=self.site.transport.now(),
                txn_vt=vt,
                ok=ok,
                reason=reason,
                scope="local",
                against=against,
            )
        if not ok:
            self._abort_origin(record, reason)
            return

        batches, primary_sites = propagation.build_batches(record, self.site)
        # Union (not assign): protocol extensions (join/leave) may already
        # have recorded involved sites and pending confirmations.
        record.involved_sites |= set(batches)
        remote_primaries = {s for s in primary_sites if s != origin}
        record.pending_confirm_sites |= remote_primaries

        # A guess can only be validated by a live primary.  If a required
        # primary is already known to have failed (its graph repair has not
        # committed yet), abort now and re-run once repair installs a live
        # primary — the same treatment section 3.4 gives transactions that
        # were already awaiting the dead site's confirmation.
        dead_primaries = remote_primaries & self.site.failures.failed
        if dead_primaries:
            self.site.failures.rerun_after_repair(
                record, f"primary site(s) {sorted(dead_primaries)} failed; awaiting graph repair"
            )
            return

        delegate_to: Optional[int] = None
        if (
            self.delegation_enabled
            and len(record.pending_confirm_sites) == 1
            and not record.pending_rc
            and not record.pending_join
        ):
            # Delegated commit (section 3.1): the single remote primary
            # decides and broadcasts the summary message itself.
            delegate_to = next(iter(record.pending_confirm_sites))

        for dst, (writes, checks) in sorted(batches.items()):
            grant = None
            if delegate_to == dst:
                all_sites = tuple(sorted((record.involved_sites | {origin}) - {dst}))
                grant = DelegateGrant(all_sites=all_sites)
            if bus.active:
                bus.emit(
                    "fanout_sent",
                    site=origin,
                    time_ms=self.site.transport.now(),
                    txn_vt=vt,
                    dst=dst,
                    writes=len(writes),
                    checks=len(checks),
                    delegated=grant is not None,
                )
            self.site.send(
                dst,
                TxnPropagateMsg(
                    txn_vt=vt,
                    origin=origin,
                    writes=tuple(writes),
                    read_checks=tuple(checks),
                    clock=self.site.clock.counter,
                    delegate=grant,
                ),
            )

        # Register RC waits after fan-out so resolution order is stable.
        for dep_vt in list(record.pending_rc):
            self.deps.wait_for(dep_vt, record)

        if delegate_to is not None:
            record.state = DELEGATED
            return
        record.state = AWAITING
        if record.all_confirmed():
            self._commit_origin(record)

    # ------------------------------------------------------------------
    # Local primary checks at the originating site
    # ------------------------------------------------------------------

    def _check_local_primaries(self, record: TxnRecord) -> Tuple[bool, str, Tuple[Any, ...]]:
        origin = self.site.site_id
        for access in record.ctx.writes:
            root = access.target.propagation_root()
            if self.site.primary_site_of(root.graph()) != origin:
                continue
            ok, reason, against = self._check_and_reserve(
                access.target, root, record.vt, access.read_vt, access.graph_vt, is_write=True
            )
            if not ok:
                return False, reason, against
        for access in record.ctx.read_only_accesses():
            root = access.target.propagation_root()
            if self.site.primary_site_of(root.graph()) != origin:
                continue
            ok, reason, against = self._check_and_reserve(
                access.target, root, record.vt, access.read_vt, access.graph_vt, is_write=False
            )
            if not ok:
                return False, reason, against
        return True, "", ()

    def _check_and_reserve(
        self,
        target: "ModelObject",
        root: "ModelObject",
        vt: VirtualTime,
        read_vt: VirtualTime,
        graph_vt: VirtualTime,
        is_write: bool,
    ) -> Tuple[bool, str, Tuple[Any, ...]]:
        """RL + NC checks at the primary, reserving confirmed intervals.

        For writes the entry at ``vt`` itself (this transaction's own write,
        already applied) is not a conflict; any *other* entry in the open
        interval denies the RL guess.

        Returns ``(ok, reason, against)``; on a denial ``against`` is the
        guessed-against VT set — the virtual times of the conflicting
        writes/reservations that refuted the guess — which the ``validated``
        event carries so the causal analyzer can build guess-dependency
        edges without parsing reason strings.
        """
        # RL guess on the value (or structure) history.
        conflicting = [
            e for e in target.history.entries_in_open_interval(read_vt, vt)
        ]
        if conflicting and "skip_rl_check" not in self.mutations:
            return (
                False,
                f"RL denied on {target.uid}: write at {conflicting[0].vt} in ({read_vt}, {vt})",
                tuple(e.vt for e in conflicting),
            )
        # RL guess on the replication graph ("a primary copy always confirms
        # the RL guess that the graph hasn't changed" — section 3.3).
        graph_conflicts = root.graph_history().entries_in_open_interval(graph_vt, vt)
        if graph_conflicts:
            return (
                False,
                f"graph RL denied on {root.uid}: change at {graph_conflicts[0].vt}",
                tuple(e.vt for e in graph_conflicts),
            )
        if is_write and "skip_nc_check" not in self.mutations:
            # NC guess: no other transaction reserved a write-free region
            # containing our VT.
            blocking = target.value_reservations.blocking_reservation(vt, exclude_owner=vt)
            if blocking is not None:
                return (
                    False,
                    f"NC denied on {target.uid}: reserved by {blocking.owner}",
                    (blocking.owner,),
                )
            # Pessimistic-snapshot reservations protect whole subtrees:
            # consult the target and every ancestor (section 4.2).
            snap_block = blocking_subtree_reservation(target, vt)
            if snap_block is not None:
                return (
                    False,
                    f"NC denied on {target.uid}: snapshot reservation {snap_block.owner}",
                    (snap_block.owner,),
                )
            graph_blocking = root.graph_reservations.blocking_reservation(vt, exclude_owner=vt)
            # A value write does not change the graph, so graph reservations
            # do not block it; only graph *updates* check graph NC.
            if target is root and self._is_graph_write(target, vt):
                if graph_blocking is not None:
                    return False, f"graph NC denied on {root.uid}", (graph_blocking.owner,)
        entry = self.txns.get(vt)
        if entry is None:  # a primary asked only to check reads
            entry = self.txns[vt] = TxnEntry()
            entry.record, entry.applied, entry.reserved = None, [], []
            entry.write_reads = entry.vouched = None
        if read_vt == vt and target.watched and is_write:
            read_vt = self._vouch(entry, target, vt)
        target.reserve("value_reservations", read_vt, vt, vt)
        root.reserve("graph_reservations", graph_vt, vt, vt)
        entry.reserved.append(target)
        if root is not target:
            entry.reserved.append(root)
        return True, "", ()

    def _vouch(self, entry: TxnEntry, target: "ModelObject", vt: VirtualTime) -> VirtualTime:
        """The lower end of the interval to reserve for a blind write at
        ``vt`` on a watched primary copy.

        A blind write read nothing (``t_R = t_T``), so its own RL guess
        covers no interval; but this primary knows what every replica's
        CONFIRM-READ for the snapshot at ``vt`` is about to ask — that
        nothing lies between ``vt`` and the entry below it in this history,
        ``prev``, committed or not — and can answer once, on the summary
        COMMIT all of them already wait for: it reserves ``(prev, vt)`` as
        the first CONFIRM-READ would (released if ``vt`` aborts, pruned at
        the stability floor) and records the pair for the message.  Only a
        value write is vouched for (a graph change leaves no value entry at
        ``vt``), and only where :func:`~repro.core.views.is_vouchable`.
        """
        prev = target.history.predecessor_of(vt) if is_vouchable(target) else None
        if prev is None:
            return vt
        if entry.vouched is None:
            entry.vouched = {}
        entry.vouched[target.uid] = prev.vt
        counters = self.site.metrics.counters
        counters["txn.intervals_vouched"] = counters.get("txn.intervals_vouched", 0) + 1
        if "vouch_without_reserve" in self.mutations:
            return vt
        return prev.vt

    def _is_graph_write(self, target: "ModelObject", vt: VirtualTime) -> bool:
        entry = target.graph_history().entry_at(vt)
        return entry is not None

    # ------------------------------------------------------------------
    # Origin-side resolution
    # ------------------------------------------------------------------

    def _rc_resolved(self, record: TxnRecord, dep_vt: VirtualTime) -> None:
        record.pending_rc.discard(dep_vt)
        if record.state == AWAITING and record.all_confirmed():
            self._commit_origin(record)

    def _rc_aborted(self, record: TxnRecord, dep_vt: VirtualTime) -> None:
        if record.state in (COMMITTED, ABORTED):
            return
        self._abort_origin(record, f"RC dependency {dep_vt} aborted")

    def _commit_origin(self, record: TxnRecord) -> None:
        vt = record.vt
        if self.status.get(vt) is ABORTED or record.state in (COMMITTED, ABORTED):
            return
        record.state = COMMITTED
        entry = self.txns.get(vt)
        vouched = tuple(entry.vouched.items()) if entry is not None and entry.vouched else ()
        for dst in sorted(record.involved_sites):
            self.site.send(
                dst, CommitMsg(txn_vt=vt, clock=self.site.clock.counter, vouched=vouched)
            )
        self._apply_commit_locally(vt, vouched)
        self.record_commit_outcome(record.outcome)

    def record_commit_outcome(self, outcome: TransactionOutcome) -> None:
        """Origin-side commit bookkeeping shared by the direct, delegated,
        and failure-resolution commit paths: outcome flags, the commits
        counter, latency/attempt histograms, and commit callbacks."""
        outcome.committed = True
        outcome.commit_time_ms = self.site.transport.now()
        metrics = self.site.metrics
        metrics.inc("txn.commits")
        latency = outcome.commit_latency_ms
        if latency is not None:
            metrics.observe("txn.commit_latency_ms", latency)
        metrics.observe("txn.attempts", float(outcome.attempts), COUNT_BUCKETS)
        outcome._fire_commit()

    def _abort_origin(self, record: TxnRecord, reason: str, retry: bool = True) -> None:
        """Abort an origin transaction (conflict path) and re-execute it."""
        vt = record.vt
        if record.state in (COMMITTED, ABORTED):
            return
        record.state = ABORTED
        for dst in sorted(record.involved_sites):
            self.site.send(dst, AbortMsg(txn_vt=vt, clock=self.site.clock.counter, reason=reason))
        self.site.views.begin_batch()
        self._apply_abort_locally(vt, reason=reason)
        self.site.views.end_batch()
        self.site.metrics.inc("txn.aborts_conflict")
        outcome = record.outcome
        if not retry:
            outcome.aborted_no_retry = True
            outcome.abort_reason = reason
            return
        if outcome.attempts > self.max_retries:
            outcome.aborted_no_retry = True
            outcome.abort_reason = f"retry limit exceeded after {outcome.attempts} attempts: {reason}"
            return
        # "Transactions aborted due to concurrency control conflicts are
        # automatically reexecuted at the originating site" (section 2.4).
        self.site.metrics.inc("txn.retries")
        # Quadratic backoff, capped: sustained contention needs delays that
        # grow past the network round trip or retry chains livelock.
        delay = min(
            self.retry_backoff_ms * outcome.attempts * outcome.attempts,
            self.retry_backoff_ms * 200,
        )
        bus = self.site.bus
        if bus.active:
            bus.emit(
                "retry_scheduled",
                site=self.site.site_id,
                time_ms=self.site.transport.now(),
                txn_vt=vt,
                attempt=outcome.attempts,
                delay_ms=delay,
            )
        self.site.defer(
            lambda: self.run(record.txn, outcome, post_execute=record.post_execute),
            delay_ms=delay,
        )

    # ==================================================================
    # Remote side: message handlers
    # ==================================================================

    def on_propagate(self, src: int, msg: TxnPropagateMsg) -> None:
        vt = msg.txn_vt
        state = self.status.get(vt)
        if state is ABORTED:
            # "If any future update messages arrive, the updates are
            # ignored" (section 3.1).
            return
        remaining = self._apply_writes(msg.writes, vt, state is COMMITTED)
        if remaining:
            if not self.pending_propagates:
                self.pending_propagates = []
            self.pending_propagates.append(PendingPropagate(src, msg, remaining))
            bus = self.site.bus
            if bus.active:
                bus.emit(
                    "propagate_blocked",
                    site=self.site.site_id,
                    time_ms=self.site.transport.now(),
                    txn_vt=vt,
                    remaining=len(remaining),
                )
            return
        self._finish_propagate(msg)

    def _apply_writes(
        self, writes: Tuple[WriteOp, ...], vt: VirtualTime, committed: bool
    ) -> List[WriteOp]:
        """Apply ops in order, as one view batch; returns the suffix blocked
        on missing paths."""
        pending: List[WriteOp] = []
        self.site.views.begin_batch()
        try:
            for write in writes:
                if pending:
                    # Preserve op order within the transaction once blocked.
                    pending.append(write)
                    continue
                root = self.site.objects.get(write.object_uid)
                if root is None:
                    pending.append(write)
                    continue
                try:
                    target = propagation.resolve_path(root, write.path)
                    propagation.apply_op(target, write.op, vt, committed)
                except InvalidPath:
                    pending.append(write)
                else:
                    if write.read_vt < vt:
                        entry = self.txns[vt]  # noted by apply_op
                        if entry.write_reads is None:
                            entry.write_reads = {}
                        entry.write_reads[target] = write.read_vt
        finally:
            self.site.views.end_batch()
        if committed:
            # The COMMIT overtook this propagate (a delegate's, on a faster
            # link), so its cleanup ran before these writes were recorded.
            self._garbage_collect(vt)
        return pending

    def retry_pending_propagates(self) -> None:
        """Re-attempt blocked propagates after new structure has arrived
        (the site calls it only while some are parked)."""
        progressed = True
        while progressed:
            progressed = False
            for pending in list(self.pending_propagates):
                vt = pending.msg.txn_vt
                state = self.status.get(vt)
                if state is ABORTED:
                    self.pending_propagates.remove(pending)
                    continue
                remaining = self._apply_writes(
                    tuple(pending.remaining), vt, state is COMMITTED
                )
                if len(remaining) < len(pending.remaining):
                    progressed = True
                pending.remaining = remaining
                if not remaining:
                    self.pending_propagates.remove(pending)
                    self._finish_propagate(pending.msg)

    def _finish_propagate(self, msg: TxnPropagateMsg) -> None:
        """Run primary checks for a fully applied propagate and respond."""
        vt = msg.txn_vt
        ok, reason, against = self._run_remote_checks(msg)
        bus = self.site.bus
        if bus.active:
            bus.emit(
                "validated",
                site=self.site.site_id,
                time_ms=self.site.transport.now(),
                txn_vt=vt,
                ok=ok,
                reason=reason,
                scope="delegate" if msg.delegate is not None else "primary",
                against=against,
            )
        entry = self.txns.get(vt)
        vouched = ()
        if entry is not None and entry.vouched:
            vouched, entry.vouched = tuple(entry.vouched.items()), None
        if msg.delegate is not None:
            self._decide_as_delegate(msg, ok, reason, vouched)
            return
        if msg.force_confirm or self._any_checks_addressed_here(msg):
            self.site.send(
                msg.origin,
                ConfirmMsg(
                    txn_vt=vt, ok=ok, clock=self.site.clock.counter,
                    reason=reason, vouched=vouched,
                ),
            )

    def _any_checks_addressed_here(self, msg: TxnPropagateMsg) -> bool:
        if msg.read_checks:
            return True
        me = self.site.site_id
        for write in msg.writes:
            root = self.site.objects.get(write.object_uid)
            if root is not None and self.site.primary_site_of(root.graph()) == me:
                return True
        return False

    def _run_remote_checks(self, msg: TxnPropagateMsg) -> Tuple[bool, str, Tuple[Any, ...]]:
        """RL/NC validation for every op this site is primary for."""
        me = self.site.site_id
        vt = msg.txn_vt
        for write in msg.writes:
            root = self.site.objects.get(write.object_uid)
            if root is None:
                return False, f"unknown object {write.object_uid}", ()
            if not msg.force_confirm and self.site.primary_site_of(root.graph()) != me:
                continue
            try:
                target = propagation.resolve_path(root, write.path)
            except InvalidPath as exc:
                return False, str(exc), ()
            ok, reason, against = self._check_and_reserve(
                target, root, vt, write.read_vt, write.graph_vt, is_write=True
            )
            if not ok:
                return False, reason, against
        for check in msg.read_checks:
            root = self.site.objects.get(check.object_uid)
            if root is None:
                return False, f"unknown object {check.object_uid}", ()
            try:
                target = propagation.resolve_path(root, check.path)
            except InvalidPath as exc:
                return False, str(exc), ()
            ok, reason, against = self._check_and_reserve(
                target, root, vt, check.read_vt, check.graph_vt, is_write=False
            )
            if not ok:
                return False, reason, against
        return True, "", ()

    def _decide_as_delegate(
        self,
        msg: TxnPropagateMsg,
        ok: bool,
        reason: str,
        vouched: Tuple[Tuple[str, VirtualTime], ...],
    ) -> None:
        """Delegated commit: this site broadcasts the summary decision."""
        assert msg.delegate is not None
        vt = msg.txn_vt
        if ok:
            for dst in msg.delegate.all_sites:
                self.site.send(
                    dst, CommitMsg(txn_vt=vt, clock=self.site.clock.counter, vouched=vouched)
                )
            self._apply_commit_locally(vt, vouched)
        else:
            for dst in msg.delegate.all_sites:
                self.site.send(
                    dst, AbortMsg(txn_vt=vt, clock=self.site.clock.counter, reason=reason)
                )
            self.site.views.begin_batch()
            self._apply_abort_locally(vt, reason=reason)
            self.site.views.end_batch()

    # ------------------------------------------------------------------
    # Confirm / commit / abort handlers
    # ------------------------------------------------------------------

    def on_confirm(self, src: int, msg: ConfirmMsg) -> None:
        entry = self.txns.get(msg.txn_vt)
        record = entry.record if entry is not None else None
        if record is None or record.state is not AWAITING:
            return
        if not msg.ok:
            self._abort_origin(record, f"denied by site {src}: {msg.reason}")
            return
        record.pending_confirm_sites.discard(src)
        if msg.vouched:
            if entry.vouched is None:
                entry.vouched = {}
            entry.vouched.update(msg.vouched)
        if record.all_confirmed():
            self._commit_origin(record)

    def on_commit(self, src: int, msg: CommitMsg) -> None:
        vt = msg.txn_vt
        entry = self.txns.get(vt)
        record = entry.record if entry is not None else None
        if record is not None and record.state is DELEGATED:
            # Our delegate committed the transaction for us.
            record.state = COMMITTED
            self._apply_commit_locally(vt, msg.vouched)
            self.record_commit_outcome(record.outcome)
            return
        self._apply_commit_locally(vt, msg.vouched)

    def on_abort(self, src: int, msg: AbortMsg) -> None:
        vt = msg.txn_vt
        entry = self.txns.get(vt)
        record = entry.record if entry is not None else None
        if record is not None and record.state is DELEGATED:
            record.state = AWAITING  # reopen so _abort_origin can run
            record.involved_sites = set()  # delegate already told everyone
            self._abort_origin(record, f"delegate denied: {msg.reason}")
            return
        self.site.views.begin_batch()
        self._apply_abort_locally(vt, reason=msg.reason)
        self.site.views.end_batch()

    # ------------------------------------------------------------------
    # Site-local commit/abort application (shared origin/remote)
    # ------------------------------------------------------------------

    def _apply_commit_locally(
        self, vt: VirtualTime, vouched: Tuple[Tuple[str, VirtualTime], ...] = ()
    ) -> None:
        state = self.status.get(vt)
        if state is COMMITTED:
            return
        if state is ABORTED:
            raise ProtocolError(f"commit arrived for aborted transaction {vt}")
        self.status[tuple(vt)] = COMMITTED
        entry = self.txns.get(vt)
        applied = entry.applied if entry is not None else ()
        bus = self.site.bus
        if bus.active:
            bus.emit(
                "committed",
                site=self.site.site_id,
                time_ms=self.site.transport.now(),
                txn_vt=vt,
                ops=len(applied),
            )
        for obj, op in applied:
            propagation.commit_op(obj, op, vt)
        # Everything here that guessed ``vt`` would commit, in the order it
        # registered: transactions that read its writes, view snapshots
        # showing them — and, on the same call, what the COMMIT vouched for,
        # which settles the pessimistic snapshots that sent no CONFIRM-READ
        # expecting it to (whichever path committed, with or without one).
        self.deps.resolve_commit(vt, vouched)
        self._garbage_collect(vt)

    def _apply_abort_locally(self, vt: VirtualTime, reason: str = "") -> None:
        if vt in self.status:
            return
        self.status[tuple(vt)] = ABORTED
        bus = self.site.bus
        if bus.active:
            bus.emit(
                "aborted",
                site=self.site.site_id,
                time_ms=self.site.transport.now(),
                txn_vt=vt,
                reason=reason,
                kind="conflict",
            )
        self._rollback(vt)
        self.deps.resolve_abort(vt)

    def _rollback(self, vt: VirtualTime) -> None:
        """Release an aborted transaction — by a conflict, or by a user
        exception before anything was sent: drop its entry, undo its ops
        here newest first, and free the intervals it reserved."""
        entry = self.txns.pop(vt, None)
        if entry is None:
            return
        for obj, op in reversed(entry.applied):
            propagation.undo_op(obj, op, vt)
        for obj in entry.reserved:
            obj.value_reservations.release_owner(vt)
            obj.graph_reservations.release_owner(vt)

    def resolved(self) -> Iterator[Tuple[VirtualTime, TxnState]]:
        """The status log as ``(vt, outcome)`` pairs, keys rebuilt as VTs."""
        for key, state in self.status.items():
            yield VirtualTime(*key), state

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def _garbage_collect(self, vt: VirtualTime) -> None:
        """Commit-driven history GC and reservation pruning (section 3).

        Committal alone does not make old versions or reservations
        collectable: a site with a stale Lamport clock may still submit a
        transaction whose VT lands *below* already committed state, and the
        primary must still be able to check its RL/NC guesses against that
        past.  The safe floor is the site's ``stability_bound`` — the
        minimum clock heard from every replica site — additionally capped
        by the local views' snapshot retention floor.  This is also where
        a committed transaction's entry is released.
        """
        entry = self.txns.pop(vt, None)
        if entry is None:
            return
        for obj, _op in entry.applied:
            try:
                floor = self.site.stability_bound(obj.replica_sites())
            except ProtocolError:
                continue
            view_floor = self.site.views.retention_floor(obj)
            if view_floor is not None and view_floor < floor:
                floor = view_floor
            try:
                obj.history.gc(floor)
            except ProtocolError:
                pass
            obj.value_reservations.prune_before(floor)
            obj.graph_reservations.prune_before(floor)
            obj.subtree_reservations.prune_before(floor)
