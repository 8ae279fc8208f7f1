"""Dynamic collaboration establishment: the join/leave protocol (section 3.3).

Joining model object A to a replica relationship containing object B runs,
inside one transaction at A's site:

1. The association value is read and optimistically updated (a normal
   transactional write, confirmed by the association's primary copy).
2. A remote call carries A's replication graph g_A to B.
3. B merges g_A into g_B, applies the merged graph at the transaction's VT,
   propagates it to its replicas, and returns its exported value, the
   merged graph, and any pending-commit caveats.
4. The graph change is validated by *both* old primaries: g_B's primary
   (B checks locally or forwards with ``force_confirm``) and g_A's primary
   (likewise on A's side).  B's value-read is validated over the interval
   ``(sync_vt, txn_vt)`` so no committed straggler can hide from the joiner.
5. A imports B's state, propagates the merged graph and state to its own
   replicas, and commits once the association primary, both graph
   primaries, and all RC dependencies have confirmed.

There is no primary election: every site maps the merged graph to its
primary with the same pure function.

Leaving is simpler: a graph write removing A's node, validated by the old
primary, with the association updated in the same transaction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core import sync as syncmod
from repro.core.association import Association, Invitation
from repro.core.messages import (
    AbortMsg,
    CommitMsg,
    ConfirmMsg,
    JoinReplyMsg,
    JoinRequestMsg,
    OpPayload,
    ReadCheck,
    TxnPropagateMsg,
    WriteOp,
)
from repro.core.repgraph import ReplicationGraph
from repro.core.transaction import FunctionTransaction, TransactionOutcome, TxnRecord, TxnState
from repro.errors import ProtocolError, ReproError
from repro.vtime import VirtualTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.model import ModelObject
    from repro.core.site import SiteRuntime


class PendingJoin:
    """Joiner-side state between the remote call and its reply."""

    def __init__(
        self,
        record: TxnRecord,
        obj: "ModelObject",
        old_graph: ReplicationGraph,
        old_graph_vt: VirtualTime,
    ) -> None:
        self.record = record
        self.obj = obj
        self.old_graph = old_graph
        self.old_graph_vt = old_graph_vt


class JoinManager:
    """Implements joins, leaves, and invitation import for one site."""

    def __init__(self, site: "SiteRuntime") -> None:
        self.site = site
        self._req_seq = 0
        self.pending: Dict[Tuple[int, int], PendingJoin] = {}

    def _next_request_id(self) -> Tuple[int, int]:
        self._req_seq += 1
        return (self.site.site_id, self._req_seq)

    # ==================================================================
    # Joiner side
    # ==================================================================

    def join(
        self, assoc: Association, rel_id: str, obj: "ModelObject"
    ) -> TransactionOutcome:
        """Join ``obj`` into relationship ``rel_id`` through ``assoc``."""
        if obj.parent is not None and not obj.has_own_graph():
            # The Fig. 7 case: an embedded object joining its own
            # collaboration switches to direct propagation.
            obj.enable_direct_propagation()
        captured: Dict[str, Any] = {}

        def body() -> None:
            members = assoc.members(rel_id)
            if not any(rel_id == r for r in _rel_ids(assoc)):
                raise ReproError(f"relationship {rel_id!r} does not exist in {assoc.uid}")
            assoc.record_join(rel_id, obj.uid, self.site.site_id)
            captured["members"] = members

        def post(record: TxnRecord) -> None:
            members = [m for m in captured["members"] if m[0] != obj.uid]
            if not members:
                return  # First member: nothing to merge.
            target_uid, target_site = min(members, key=lambda m: (m[1], m[0]))
            request_id = self._next_request_id()
            self.pending[request_id] = PendingJoin(
                record=record,
                obj=obj,
                old_graph=obj.graph(),
                old_graph_vt=obj.graph_vt(),
            )
            record.pending_join = True
            record.involved_sites.add(target_site)
            self.site.send(
                target_site,
                JoinRequestMsg(
                    request_id=request_id,
                    origin=self.site.site_id,
                    txn_vt=record.vt,
                    target_uid=target_uid,
                    joiner_uid=obj.uid,
                    joiner_graph=obj.graph(),
                    clock=self.site.clock.counter,
                ),
            )

        return self.site.engine.run(FunctionTransaction(body), post_execute=post)

    def import_invitation(self, invitation: Invitation, name: str) -> Association:
        """Instantiate a local association replica from an invitation.

        The local association joins the inviter's association through the
        same join machinery (associations are model objects too); the
        association's value — all relationship memberships — arrives with
        the state sync.
        """
        local = Association(self.site, name)

        def body() -> None:
            pass  # The join transaction carries only the graph/state merge.

        def post(record: TxnRecord) -> None:
            request_id = self._next_request_id()
            self.pending[request_id] = PendingJoin(
                record=record,
                obj=local,
                old_graph=local.graph(),
                old_graph_vt=local.graph_vt(),
            )
            record.pending_join = True
            record.involved_sites.add(invitation.inviter_site)
            self.site.send(
                invitation.inviter_site,
                JoinRequestMsg(
                    request_id=request_id,
                    origin=self.site.site_id,
                    txn_vt=record.vt,
                    target_uid=invitation.assoc_uid,
                    joiner_uid=local.uid,
                    joiner_graph=local.graph(),
                    clock=self.site.clock.counter,
                ),
            )

        self.site.clock.observe_counter(invitation.clock)
        self.site.engine.run(FunctionTransaction(body), post_execute=post)
        return local

    # ==================================================================
    # Member (B) side
    # ==================================================================

    def on_join_request(self, src: int, msg: JoinRequestMsg) -> None:
        engine = self.site.engine
        target = self.site.objects.get(msg.target_uid)
        if target is None:
            self._reply_error(src, msg, f"unknown object {msg.target_uid}", retryable=False)
            return
        try:
            target.check_join(f"site{msg.origin}")
        except Exception as exc:  # noqa: BLE001
            self._reply_error(src, msg, str(exc), retryable=False)
            return
        root = target.propagation_root()
        if root is not target:
            self._reply_error(
                src, msg, f"{msg.target_uid} is not a propagation root", retryable=False
            )
            return
        gb = target.graph()
        gb_vt = target.graph_vt()
        gb_primary = self.site.primary_site_of(gb)
        merged = gb.merge(msg.joiner_graph, (msg.joiner_uid, msg.target_uid))
        spec, sync_vt, pending_vts = syncmod.export_state(target)
        graph_entry = target.graph_history().current()
        if not graph_entry.committed and graph_entry.vt not in pending_vts:
            pending_vts = list(pending_vts) + [graph_entry.vt]

        me = self.site.site_id
        vt = msg.txn_vt
        if not (sync_vt < vt and gb_vt < vt):
            # The joiner's clock lags our state; deny so it retries with a
            # fresh VT (our reply's clock merges into the joiner's clock).
            self._reply_error(
                src, msg, f"stale join VT {vt}: member state is at {sync_vt}/{gb_vt}"
            )
            return
        if gb_primary == me:
            # Validate here: graph RL/NC plus the joiner's value read over
            # (sync_vt, txn_vt).
            ok, reason, _against = engine._check_and_reserve(
                target, root, vt, read_vt=sync_vt, graph_vt=gb_vt, is_write=False
            )
            if not ok:
                self._reply_error(src, msg, reason)
                return

        # Apply the merged graph optimistically under the join transaction.
        from repro.core import propagation

        self.site.views.begin_batch()
        try:
            propagation.apply_op(target, OpPayload(kind="graph", args=(merged,)), vt, committed=False)
        finally:
            self.site.views.end_batch()

        # Propagate the merged graph to the old g_B replicas.
        for dst in gb.sites():
            if dst in (me, msg.origin):
                continue
            dst_uid = gb.uid_at_site(dst)
            if dst_uid is None:
                continue
            force = dst == gb_primary
            checks: Tuple[ReadCheck, ...] = ()
            if force:
                checks = (
                    ReadCheck(object_uid=dst_uid, read_vt=sync_vt, graph_vt=gb_vt, path=()),
                )
            self.site.send(
                dst,
                TxnPropagateMsg(
                    txn_vt=vt,
                    origin=msg.origin,
                    writes=(
                        WriteOp(
                            object_uid=dst_uid,
                            op=OpPayload(kind="graph", args=(merged,)),
                            read_vt=vt,
                            graph_vt=gb_vt,
                            path=(),
                        ),
                    ),
                    read_checks=checks,
                    clock=self.site.clock.counter,
                    force_confirm=force,
                ),
            )

        # Forward outcomes of pending transactions to the joiner ("this
        # fact is remembered at B").
        for dep_vt in pending_vts:
            state = engine.status.get(dep_vt)
            if state is TxnState.COMMITTED:
                continue
            if state is TxnState.ABORTED:
                self.site.send(
                    msg.origin,
                    AbortMsg(txn_vt=dep_vt, clock=self.site.clock.counter, reason="forwarded"),
                )
                continue
            engine.deps.wait_for(dep_vt, _OutcomeForward(self.site, msg.origin))

        self.site.send(
            src,
            JoinReplyMsg(
                request_id=msg.request_id,
                ok=True,
                sync_spec=spec,
                merged_graph=merged,
                graph_vt=gb_vt,
                sync_vt=sync_vt,
                pending_vts=tuple(pending_vts),
                gb_primary=gb_primary,
                clock=self.site.clock.counter,
            ),
        )
        if gb_primary == me:
            # Our checks passed above; confirm to the origin (after the
            # reply on the same FIFO channel, so the origin registers the
            # pending confirmation first).
            self.site.send(
                msg.origin,
                ConfirmMsg(txn_vt=vt, ok=True, clock=self.site.clock.counter),
            )

    def _reply_error(
        self, src: int, msg: JoinRequestMsg, reason: str, retryable: bool = True
    ) -> None:
        self.site.send(
            src,
            JoinReplyMsg(
                request_id=msg.request_id,
                ok=False,
                sync_spec=None,
                merged_graph=None,
                graph_vt=msg.txn_vt,
                sync_vt=msg.txn_vt,
                pending_vts=(),
                gb_primary=-1,
                clock=self.site.clock.counter,
                reason=reason,
                retryable=retryable,
            ),
        )

    # ==================================================================
    # Joiner side: reply processing
    # ==================================================================

    def on_join_reply(self, src: int, msg: JoinReplyMsg) -> None:
        pending = self.pending.pop(msg.request_id, None)
        if pending is None:
            return
        engine = self.site.engine
        record = pending.record
        if record.state in (TxnState.ABORTED,):
            # The transaction died (association conflict, RC abort) while
            # the remote call was in flight; clean up the B side.
            if msg.ok and msg.merged_graph is not None:
                for dst in msg.merged_graph.sites():
                    if dst != self.site.site_id:
                        self.site.send(
                            dst,
                            AbortMsg(
                                txn_vt=record.vt,
                                clock=self.site.clock.counter,
                                reason="join transaction aborted",
                            ),
                        )
            return
        if not msg.ok:
            record.pending_join = False
            engine._abort_origin(record, f"join denied: {msg.reason}", retry=msg.retryable)
            return

        obj = pending.obj
        merged: ReplicationGraph = msg.merged_graph
        vt = record.vt
        me = self.site.site_id
        ga = pending.old_graph
        ga_vt = pending.old_graph_vt
        ga_primary = self.site.primary_site_of(ga)

        record.involved_sites |= set(merged.sites()) - {me}
        record.pending_confirm_sites.add(msg.gb_primary)

        # RC caveats: wait for B-side pending transactions (B forwards
        # their outcomes to us).
        for dep_vt in msg.pending_vts:
            state = engine.status.get(dep_vt)
            if state is TxnState.COMMITTED:
                continue
            if state is TxnState.ABORTED:
                record.pending_join = False
                engine._abort_origin(record, f"join dependency {dep_vt} aborted")
                return
            if dep_vt not in record.pending_rc:
                record.pending_rc.add(dep_vt)
                engine.deps.wait_for(dep_vt, record)

        # Local validation of our own old graph's primary, if that is us.
        if ga_primary == me:
            ok, reason, _against = engine._check_and_reserve(
                obj, obj, vt, read_vt=vt, graph_vt=ga_vt, is_write=True
            )
            if not ok:
                record.pending_join = False
                engine._abort_origin(record, reason)
                return
        else:
            record.pending_confirm_sites.add(ga_primary)

        # Adopt B's value and the merged graph locally.
        from repro.core import propagation

        self.site.views.begin_batch()
        try:
            propagation.apply_op(obj, OpPayload(kind="graph", args=(merged,)), vt, committed=False)
            propagation.apply_op(obj, OpPayload(kind="sync", args=(msg.sync_spec,)), vt, committed=False)
        finally:
            self.site.views.end_batch()

        # Propagate graph + state to our own old replicas (g_A side).
        for dst in ga.sites():
            if dst == me:
                continue
            dst_uid = ga.uid_at_site(dst)
            if dst_uid is None:
                continue
            force = dst == ga_primary
            self.site.send(
                dst,
                TxnPropagateMsg(
                    txn_vt=vt,
                    origin=me,
                    writes=(
                        WriteOp(
                            object_uid=dst_uid,
                            op=OpPayload(kind="graph", args=(merged,)),
                            read_vt=vt,
                            graph_vt=ga_vt,
                            path=(),
                        ),
                        WriteOp(
                            object_uid=dst_uid,
                            op=OpPayload(kind="sync", args=(msg.sync_spec,)),
                            read_vt=vt,
                            graph_vt=ga_vt,
                            path=(),
                        ),
                    ),
                    read_checks=(),
                    clock=self.site.clock.counter,
                    force_confirm=force,
                ),
            )

        record.pending_join = False
        if record.state == TxnState.AWAITING and record.all_confirmed():
            engine._commit_origin(record)

    # ==================================================================
    # Leave
    # ==================================================================

    def leave(
        self, assoc: Association, rel_id: str, obj: "ModelObject"
    ) -> TransactionOutcome:
        """Withdraw ``obj`` from its replica relationship."""

        def body() -> None:
            assoc.record_leave(rel_id, obj.uid)

        def post(record: TxnRecord) -> None:
            old_graph = obj.graph()
            if old_graph.is_singleton():
                return
            old_vt = obj.graph_vt()
            old_primary = self.site.primary_site_of(old_graph)
            remaining = old_graph.without_node(obj.uid)
            me = self.site.site_id
            vt = record.vt

            from repro.core import propagation

            singleton = ReplicationGraph.singleton(obj.uid, me)
            if old_primary == me:
                ok, reason, _against = self.site.engine._check_and_reserve(
                    obj, obj, vt, read_vt=vt, graph_vt=old_vt, is_write=True
                )
                if not ok:
                    self.site.engine._abort_origin(record, reason)
                    return
            else:
                record.pending_confirm_sites.add(old_primary)
            self.site.views.begin_batch()
            try:
                propagation.apply_op(
                    obj, OpPayload(kind="graph", args=(singleton,)), vt, committed=False
                )
            finally:
                self.site.views.end_batch()
            for dst in old_graph.sites():
                if dst == me:
                    continue
                dst_uid = old_graph.uid_at_site(dst)
                if dst_uid is None or remaining is None:
                    continue
                record.involved_sites.add(dst)
                self.site.send(
                    dst,
                    TxnPropagateMsg(
                        txn_vt=vt,
                        origin=me,
                        writes=(
                            WriteOp(
                                object_uid=dst_uid,
                                op=OpPayload(kind="graph", args=(remaining,)),
                                read_vt=vt,
                                graph_vt=old_vt,
                                path=(),
                            ),
                        ),
                        read_checks=(),
                        clock=self.site.clock.counter,
                        force_confirm=dst == old_primary,
                    ),
                )

        return self.site.engine.run(FunctionTransaction(body), post_execute=post)


def _rel_ids(assoc: Association) -> List[str]:
    return assoc.relationships()


class _OutcomeForward:
    """Dependency-index target: tell the joiner how a transaction that was
    pending at B when it joined ended ("this fact is remembered at B")."""

    def __init__(self, site: "SiteRuntime", joiner: int) -> None:
        self.site = site
        self.joiner = joiner

    def on_dep_commit(self, dep_vt: VirtualTime, vouched: Any) -> None:
        self.site.send(self.joiner, CommitMsg(txn_vt=dep_vt, clock=self.site.clock.counter))

    def on_dep_abort(self, dep_vt: VirtualTime) -> None:
        self.site.send(
            self.joiner,
            AbortMsg(txn_vt=dep_vt, clock=self.site.clock.counter, reason="forwarded"),
        )
