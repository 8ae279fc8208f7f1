"""Client failure handling (paper section 3.4).

The communication layer presents crashes and disconnections as fail-stop
failures.  On a failure notification, three things happen:

1. **Blocked local transactions.**  Transactions this site originated that
   are waiting on a confirmation from the failed site (it was a primary or
   our delegate) are aborted and queued for re-execution once the
   replication graphs have been repaired and a new primary is implied
   ("it is retried later after the graph update has committed and a new
   primary site is identified").
2. **In-flight transactions of the failed origin.**  The surviving sites
   "determine if any of them received a commit message ... If so, the
   transaction is committed at all the sites; else, it is aborted."  A
   deterministic coordinator (the minimum surviving site) queries all
   survivors, unions their in-flight lists, decides, and broadcasts the
   resolution.
3. **Graph repair.**  Every replication graph containing the failed site
   is rewritten without it.  If the graph's primary survives, that primary
   runs an ordinary timestamped transaction.  If the *primary itself*
   failed (the circularity case), the survivors agree in the same
   coordinator round: the resolution carries an apply-VT drawn once every
   survivor has answered, and every survivor applies the graph update as
   a committed write at that common virtual time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.messages import (
    FailQueryMsg,
    FailQueryReplyMsg,
    FailResolutionMsg,
    OpPayload,
)
from repro.core.transaction import TxnState
from repro.obs.metrics import counter_property
from repro.vtime import VirtualTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.model import ModelObject
    from repro.core.site import SiteRuntime


class _QueryState:
    """Coordinator-side aggregation for one failure-resolution round.

    ``kind`` is "origin" for the site-wide resolution of a failed origin's
    in-flight transactions, or "delegated" for an originating site
    resolving its own transaction whose DELEGATE failed (the delegate may
    have broadcast COMMIT before dying — paper section 3.4: commit if any
    survivor logged it, abort otherwise).
    """

    def __init__(
        self,
        failed_site: int,
        awaiting: Set[int],
        kind: str = "origin",
        record: Any = None,
    ) -> None:
        self.failed_site = failed_site
        self.awaiting = set(awaiting)
        self.committed: Set[VirtualTime] = set()
        self.pending: Set[VirtualTime] = set()
        self.kind = kind
        self.record = record


class FailureManager:
    """Per-site driver of the section 3.4 failure protocols."""

    # Registry-backed metrics (see repro.obs.metrics).
    resolutions_committed = counter_property("fail.resolutions_committed")
    resolutions_aborted = counter_property("fail.resolutions_aborted")
    graphs_repaired = counter_property("fail.graphs_repaired")

    def __init__(self, site: "SiteRuntime") -> None:
        self.site = site
        self.failed: Set[int] = set()
        self._seq = 0
        self.queries: Dict[Tuple[int, int], _QueryState] = {}
        #: What to run once graph repair has committed: re-runs of
        #: transactions a dead primary blocked, and revisions of snapshot
        #: records whose CONFIRM-READ went to one.
        self.deferred_retries: List[Callable[[], None]] = []

    def _next_id(self) -> Tuple[int, int]:
        self._seq += 1
        return (self.site.site_id, self._seq)

    def survivors(self) -> Set[int]:
        return set(self.site.roster) - self.failed

    # ==================================================================
    # Entry point
    # ==================================================================

    def on_site_failed(self, failed_site: int) -> None:
        if failed_site in self.failed:
            return
        self.failed.add(failed_site)
        self.site.roster.discard(failed_site)
        # A failed site can never answer or ack an in-progress round; drop
        # it from every wait set ("the protocol is repeated until all the
        # fail notifications are successfully applied" — section 3.4).
        for state in list(self.queries.values()):
            state.awaiting.discard(failed_site)
        for query_id, state in list(self.queries.items()):
            if not state.awaiting:
                self._finish_resolution(query_id)
        self._abort_blocked_transactions(failed_site)
        survivors = self.survivors()
        coordinator = min(survivors) if survivors else self.site.site_id
        if self.site.site_id == coordinator:
            # Re-run resolution for EVERY known failed site: an earlier
            # round may have died with its coordinator.
            for dead in sorted(self.failed):
                self._start_resolution(dead)
        self._repair_graphs(failed_site)

    # ------------------------------------------------------------------
    # 1. Local transactions blocked on the failed site
    # ------------------------------------------------------------------

    def _abort_blocked_transactions(self, failed_site: int) -> None:
        engine = self.site.engine
        for entry in list(engine.txns.values()):
            record = entry.record
            if record is None or failed_site not in record.pending_confirm_sites:
                continue
            if record.state == TxnState.DELEGATED:
                # The failed site held the COMMIT DECISION and may have
                # broadcast it before dying: run the section 3.4
                # resolution instead of aborting unilaterally.
                self._resolve_delegated(record, failed_site)
                continue
            if record.state != TxnState.AWAITING:
                continue
            # AWAITING: the decision still rests here, so nobody can have
            # committed.
            self.rerun_after_repair(record, f"primary site {failed_site} failed")

    def rerun_after_repair(self, record: Any, reason: str) -> None:
        """Abort ``record``'s attempt and re-run its transaction once graph
        repair has committed ("it is retried later after the graph update
        has committed and a new primary site is identified")."""
        engine = self.site.engine
        txn, outcome, post = record.txn, record.outcome, record.post_execute
        engine._abort_origin(record, reason, retry=False)
        # Undo the no-retry flag: we re-run after graph repair.
        outcome.aborted_no_retry = False
        outcome.abort_reason = ""
        self.deferred_retries.append(lambda: engine.run(txn, outcome, post_execute=post))

    def _resolve_delegated(self, record, failed_delegate: int) -> None:
        """Origin-run resolution for a transaction whose delegate failed."""
        others = self.survivors() - {self.site.site_id}
        query_id = self._next_id()
        state = _QueryState(
            failed_delegate, awaiting=others, kind="delegated", record=record
        )
        if self.site.engine.status.get(record.vt) is TxnState.COMMITTED:
            state.committed.add(record.vt)
        state.pending.add(record.vt)
        self.queries[query_id] = state
        if not others:
            self._finish_resolution(query_id)
            return
        for dst in sorted(others):
            self.site.send(
                dst,
                FailQueryMsg(
                    query_id=query_id,
                    failed_site=failed_delegate,
                    txn_vts=(record.vt,),
                    clock=self.site.clock.counter,
                ),
            )

    def _run_deferred_retries(self) -> None:
        retries, self.deferred_retries = self.deferred_retries, []
        for action in retries:
            self.site.defer(action)

    # ------------------------------------------------------------------
    # 2. Resolution of in-flight transactions from the failed origin
    # ------------------------------------------------------------------

    def _local_inflight_of(self, failed_site: int) -> Tuple[Set[VirtualTime], Set[VirtualTime]]:
        """(committed, pending) transactions of ``failed_site`` known locally."""
        engine = self.site.engine
        committed = {
            vt for vt, state in engine.resolved()
            if vt.site == failed_site and state is TxnState.COMMITTED
        }
        pending = {
            vt for vt, entry in engine.txns.items()
            if vt.site == failed_site and entry.applied and vt not in engine.status
        }
        return committed, pending

    def _start_resolution(self, failed_site: int) -> None:
        committed, pending = self._local_inflight_of(failed_site)
        others = self.survivors() - {self.site.site_id}
        query_id = self._next_id()
        state = _QueryState(failed_site, awaiting=others)
        state.committed |= committed
        state.pending |= pending
        self.queries[query_id] = state
        if not others:
            self._finish_resolution(query_id)
            return
        for dst in sorted(others):
            self.site.send(
                dst,
                FailQueryMsg(
                    query_id=query_id,
                    failed_site=failed_site,
                    txn_vts=tuple(sorted(pending)),
                    clock=self.site.clock.counter,
                ),
            )

    def on_query(self, src: int, msg: FailQueryMsg) -> None:
        committed, pending = self._local_inflight_of(msg.failed_site)
        # Also report on explicitly listed transactions (delegated-commit
        # resolution asks about VTs whose origin is the ASKER, not the
        # failed site).
        engine = self.site.engine
        for vt in msg.txn_vts:
            state = engine.status.get(vt)
            if state is TxnState.COMMITTED:
                committed.add(vt)
            elif state is None and vt in engine.txns and engine.txns[vt].applied:
                pending.add(vt)
        self.site.send(
            src,
            FailQueryReplyMsg(
                query_id=msg.query_id,
                committed=tuple(sorted(committed)),
                pending=tuple(sorted(pending)),
                clock=self.site.clock.counter,
            ),
        )

    def on_query_reply(self, src: int, msg: FailQueryReplyMsg) -> None:
        state = self.queries.get(msg.query_id)
        if state is None:
            return
        state.awaiting.discard(src)
        state.committed |= set(msg.committed)
        state.pending |= set(msg.pending)
        if not state.awaiting:
            self._finish_resolution(msg.query_id)

    def _finish_resolution(self, query_id: Tuple[int, int]) -> None:
        state = self.queries.pop(query_id)
        if state.kind == "delegated":
            self._finish_delegated_resolution(state)
            return
        commit_vts = tuple(sorted(state.committed & state.pending | state.committed))
        abort_vts = tuple(sorted(state.pending - state.committed))
        # Drawn after every survivor's reply clock was merged: the repair
        # lands above every in-flight VT this round resolves.
        apply_vt = self.site.clock.tick()
        resolution = FailResolutionMsg(
            query_id=query_id,
            commit_vts=commit_vts,
            abort_vts=abort_vts,
            apply_vt=apply_vt,
            failed_sites=tuple(sorted(self.failed)),
            clock=self.site.clock.counter,
        )
        for dst in sorted(self.survivors() - {self.site.site_id}):
            self.site.send(dst, resolution)
        self._apply_resolution(resolution)

    def _finish_delegated_resolution(self, state: _QueryState) -> None:
        """Commit or abort a delegated transaction after polling survivors."""
        from repro.core.messages import AbortMsg, CommitMsg

        engine = self.site.engine
        record = state.record
        vt = record.vt
        if vt in engine.status:
            return  # resolved while we were querying
        survivors = sorted(self.survivors() - {self.site.site_id})
        if vt in state.committed:
            # Someone logged the delegate's COMMIT: commit everywhere.
            record.state = TxnState.COMMITTED
            for dst in survivors:
                self.site.send(dst, CommitMsg(txn_vt=vt, clock=self.site.clock.counter))
            engine._apply_commit_locally(vt)
            engine.record_commit_outcome(record.outcome)
            return
        # Nobody saw a commit: abort everywhere and re-run after repair.
        record.state = TxnState.AWAITING
        for dst in survivors:
            self.site.send(
                dst,
                AbortMsg(
                    txn_vt=vt,
                    clock=self.site.clock.counter,
                    reason=f"delegate {state.failed_site} failed before committing",
                ),
            )
        record.involved_sites = set()  # aborts already sent above
        self.rerun_after_repair(record, f"delegate {state.failed_site} failed")
        # The resolution that repaired the delegate's graphs may have run
        # this site's retries already; a retry that still finds a dead
        # primary waits again.
        self.site.defer(self._run_deferred_retries)

    def on_resolution(self, src: int, msg: FailResolutionMsg) -> None:
        self._apply_resolution(msg)

    def _apply_resolution(self, msg: FailResolutionMsg) -> None:
        engine = self.site.engine
        for vt in msg.commit_vts:
            if vt not in engine.status:
                engine._apply_commit_locally(vt)
                self.site.metrics.inc("fail.resolutions_committed")
        for vt in msg.abort_vts:
            if vt not in engine.status:
                self.site.views.begin_batch()
                try:
                    engine._apply_abort_locally(vt)
                finally:
                    self.site.views.end_batch()
                self.site.metrics.inc("fail.resolutions_aborted")
        self._repair_dead_primary_graphs(msg)
        self._run_deferred_retries()

    # ------------------------------------------------------------------
    # 3. Graph repair
    # ------------------------------------------------------------------

    def _repair_graphs(self, failed_site: int) -> None:
        me = self.site.site_id
        awaiting_resolution = False
        for obj in list(self.site.objects.values()):
            if not obj.has_own_graph() or failed_site not in obj.graph().sites():
                continue
            primary = self.site.primary_site_of(obj.graph())
            if primary in self.failed:
                # The circularity case — possibly via an EARLIER failure
                # whose round died with its coordinator: the coordinator's
                # resolution repairs this graph.
                awaiting_resolution = True
            elif primary == me:
                # Ordinary timestamped transaction: the surviving primary
                # coordinates the graph update.
                self.site.defer(lambda o=obj, f=failed_site: self._repair_by_txn(o, f))
        if not awaiting_resolution:
            # No resolution to wait for; blocked transactions can retry as
            # soon as the deferred repair transactions have run.
            self.site.defer(self._run_deferred_retries)

    def _repair_by_txn(self, obj: "ModelObject", failed_site: int) -> None:
        graph = obj.graph()
        if failed_site not in graph.sites():
            return  # already repaired
        new_graph = graph
        for dead in sorted(self.failed):
            if new_graph is not None and dead in new_graph.sites():
                new_graph = new_graph.without_site(dead)
        if new_graph is None or new_graph.sites() == graph.sites():
            return

        def body() -> None:
            ctx = self.site.require_txn("graph repair")
            ctx.write(obj, OpPayload(kind="graph", args=(new_graph,)))

        self.site.transact(body)
        self.site.metrics.inc("fail.graphs_repaired")
        bus = self.site.bus
        if bus.active:
            bus.emit(
                "repair_committed",
                site=self.site.site_id,
                time_ms=self.site.transport.now(),
                method="txn",
                obj=obj.uid,
                failed_site=failed_site,
            )

    def _repair_dead_primary_graphs(self, msg: FailResolutionMsg) -> None:
        """Rewrite every local graph whose primary is in ``msg.failed_sites``
        without those sites, as a committed write at ``msg.apply_vt``.

        The removal set comes from the message, not from local knowledge,
        so every survivor applies the same graph whatever order its failure
        notices arrived in.  A site with no such graph records nothing at
        ``apply_vt``; it only observes the clock.
        """
        from repro.core import propagation

        dead = set(msg.failed_sites)
        self.site.clock.observe(msg.apply_vt)
        repairs = []
        removed: Set[int] = set()
        for obj in list(self.site.objects.values()):
            if not obj.has_own_graph():
                continue
            graph = obj.graph()
            if self.site.primary_site_of(graph) not in dead:
                continue  # a live primary repairs this one by txn
            gone = dead.intersection(graph.sites())
            for d in sorted(gone):
                graph = graph.without_site(d)
            repairs.append((obj, graph))
            removed |= gone
        if not repairs:
            return
        engine = self.site.engine
        # Mark the repair committed *before* applying: the apply events
        # reach attached views, and a pessimistic proxy creating a snapshot
        # at apply_vt must see committed status rather than registering an
        # RC wait that nothing would ever resolve.
        engine.status[tuple(msg.apply_vt)] = TxnState.COMMITTED
        self.site.views.begin_batch()
        try:
            for obj, new_graph in repairs:
                propagation.apply_op(
                    obj, OpPayload(kind="graph", args=(new_graph,)), msg.apply_vt, committed=True
                )
                self.site.metrics.inc("fail.graphs_repaired")
        finally:
            self.site.views.end_batch()
        # The repair commits outside the normal commit path; fire any
        # dependents waiting on apply_vt (parked snapshot checks among
        # them).
        engine.deps.resolve_commit(msg.apply_vt)
        engine._garbage_collect(msg.apply_vt)
        bus = self.site.bus
        if bus.active:
            for failed_site in sorted(removed):
                bus.emit(
                    "repair_committed",
                    site=self.site.site_id,
                    time_ms=self.site.transport.now(),
                    txn_vt=msg.apply_vt,
                    method="consensus",
                    failed_site=failed_site,
                )
