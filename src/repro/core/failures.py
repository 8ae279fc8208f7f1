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
   failed (the circularity case), the coordinator runs a two-round
   consensus: propose an apply-VT, collect acknowledgements from all
   survivors, then order the graph update applied as a committed write at
   that common virtual time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.messages import (
    FailQueryMsg,
    FailQueryReplyMsg,
    FailResolutionMsg,
    GraphRepairAckMsg,
    GraphRepairApplyMsg,
    GraphRepairProposeMsg,
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


class _RepairState:
    """Coordinator-side aggregation for one graph-repair consensus round."""

    def __init__(self, failed_site: int, apply_vt: VirtualTime, awaiting: Set[int]) -> None:
        self.failed_site = failed_site
        self.apply_vt = apply_vt
        self.awaiting = set(awaiting)


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
        self.repairs: Dict[Tuple[int, int], _RepairState] = {}
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
        for state in list(self.repairs.values()):
            state.awaiting.discard(failed_site)
        for proposal_id, state in list(self.repairs.items()):
            if not state.awaiting:
                self._finish_repair(proposal_id)
        self._abort_blocked_transactions(failed_site)
        survivors = self.survivors()
        coordinator = min(survivors) if survivors else self.site.site_id
        if self.site.site_id == coordinator:
            # Re-run resolution for EVERY known failed site: an earlier
            # round may have died with its coordinator.
            for dead in sorted(self.failed):
                self._start_resolution(dead)
        self._repair_graphs(failed_site, coordinator)

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
                    origin=self.site.site_id,
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
                    origin=self.site.site_id,
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
                site=self.site.site_id,
                committed=tuple(sorted(committed)),
                pending=tuple(sorted(pending)),
                clock=self.site.clock.counter,
            ),
        )

    def on_query_reply(self, src: int, msg: FailQueryReplyMsg) -> None:
        state = self.queries.get(msg.query_id)
        if state is None:
            return
        state.awaiting.discard(msg.site)
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
        resolution = FailResolutionMsg(
            query_id=query_id,
            commit_vts=commit_vts,
            abort_vts=abort_vts,
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

    # ------------------------------------------------------------------
    # 3. Graph repair
    # ------------------------------------------------------------------

    def _roots_with_failed_site(self, failed_site: int) -> List["ModelObject"]:
        roots = []
        for obj in list(self.site.objects.values()):
            if not obj.has_own_graph():
                continue
            graph = obj.graph()
            if failed_site in graph.sites():
                roots.append(obj)
        return roots

    def _repair_graphs(self, failed_site: int, coordinator: int) -> None:
        me = self.site.site_id
        consensus_needed = False
        for obj in self._roots_with_failed_site(failed_site):
            graph = obj.graph()
            primary = self.site.primary_site_of(graph)
            if primary in self.failed:
                # The circularity case — possibly via an EARLIER failure
                # whose repair round died with its coordinator.
                consensus_needed = True
                continue
            if primary == me:
                # Ordinary timestamped transaction: the surviving primary
                # coordinates the graph update.
                self.site.defer(lambda o=obj, f=failed_site: self._repair_by_txn(o, f))
        if consensus_needed and me == coordinator:
            self.site.defer(lambda f=failed_site: self._start_repair_consensus(f))
        if not consensus_needed:
            # No consensus round to wait for; blocked transactions can
            # retry as soon as the deferred repair transactions have run.
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

    def _start_repair_consensus(self, failed_site: int) -> None:
        others = self.survivors() - {self.site.site_id}
        proposal_id = self._next_id()
        apply_vt = self.site.clock.tick()
        self.repairs[proposal_id] = _RepairState(failed_site, apply_vt, awaiting=others)
        if not others:
            self._finish_repair(proposal_id)
            return
        propose = GraphRepairProposeMsg(
            proposal_id=proposal_id,
            coordinator=self.site.site_id,
            failed_site=failed_site,
            object_uids=(),
            apply_vt=apply_vt,
            clock=self.site.clock.counter,
            failed_sites=tuple(sorted(self.failed)),
        )
        for dst in sorted(others):
            self.site.send(dst, propose)

    def on_repair_propose(self, src: int, msg: GraphRepairProposeMsg) -> None:
        self.site.send(
            src,
            GraphRepairAckMsg(
                proposal_id=msg.proposal_id,
                site=self.site.site_id,
                ok=True,
                clock=self.site.clock.counter,
            ),
        )

    def on_repair_ack(self, src: int, msg: GraphRepairAckMsg) -> None:
        state = self.repairs.get(msg.proposal_id)
        if state is None:
            return
        state.awaiting.discard(msg.site)
        if not state.awaiting:
            self._finish_repair(msg.proposal_id)

    def _finish_repair(self, proposal_id: Tuple[int, int]) -> None:
        state = self.repairs.pop(proposal_id)
        apply_msg = GraphRepairApplyMsg(
            proposal_id=proposal_id,
            failed_site=state.failed_site,
            object_uids=(),
            apply_vt=state.apply_vt,
            clock=self.site.clock.counter,
            failed_sites=tuple(sorted(self.failed)),
        )
        for dst in sorted(self.survivors() - {self.site.site_id}):
            self.site.send(dst, apply_msg)
        self.on_repair_apply(self.site.site_id, apply_msg)

    def on_repair_apply(self, src: int, msg: GraphRepairApplyMsg) -> None:
        """Apply the consensus graph update as a committed write at apply_vt.

        The removal set comes from the MESSAGE (not local knowledge), so
        every survivor applies exactly the same graph regardless of the
        order failure notifications reached it.
        """
        from repro.core import propagation

        dead = set(msg.failed_sites) | {msg.failed_site}
        self.site.clock.observe(msg.apply_vt)
        # Mark the consensus write committed *before* applying: the apply
        # events reach attached views, and a pessimistic proxy creating a
        # snapshot at apply_vt must see committed status rather than
        # registering an RC wait that nothing would ever resolve.
        self.site.engine.status[tuple(msg.apply_vt)] = TxnState.COMMITTED
        self.site.views.begin_batch()
        try:
            for obj in list(self.site.objects.values()):
                if not obj.has_own_graph():
                    continue
                graph = obj.graph()
                if not dead & set(graph.sites()):
                    continue
                if self.site.primary_site_of(graph) not in dead:
                    continue  # a live primary repairs this one by txn
                new_graph = graph
                for d in sorted(dead):
                    if new_graph is not None and d in new_graph.sites():
                        new_graph = new_graph.without_site(d)
                if new_graph is None or new_graph.sites() == graph.sites():
                    continue
                propagation.apply_op(
                    obj, OpPayload(kind="graph", args=(new_graph,)), msg.apply_vt, committed=True
                )
                self.site.metrics.inc("fail.graphs_repaired")
        finally:
            self.site.views.end_batch()
        # The consensus write commits outside the normal commit path; fire
        # any dependents waiting on apply_vt (parked snapshot checks among
        # them).
        self.site.engine.deps.resolve_commit(msg.apply_vt)
        self.site.engine._garbage_collect(msg.apply_vt)
        bus = self.site.bus
        if bus.active:
            bus.emit(
                "repair_committed",
                site=self.site.site_id,
                time_ms=self.site.transport.now(),
                txn_vt=msg.apply_vt,
                method="consensus",
                failed_site=msg.failed_site,
            )
        self._run_deferred_retries()
