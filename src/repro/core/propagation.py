"""Update propagation: applying, undoing, and committing operations.

This module is the single place where an :class:`~repro.core.messages.OpPayload`
touches object state.  The same functions run at the originating site
(optimistic local apply during execution) and at remote sites (applying a
``TxnPropagateMsg``), which guarantees replicas interpret every operation
identically.

It also builds the per-destination-site message batches for a transaction:
WRITE ops go to every replica site of each touched propagation root
(*indirect propagation* — child updates are addressed root-relative with
VT-tagged paths, section 3.2); CONFIRM-READ checks go only to primary
sites.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core import sync as syncmod
from repro.core.messages import OpPayload, PathStep, ReadCheck, SlotId, WriteOp
from repro.errors import InvalidPath, ProtocolError
from repro.vtime import VirtualTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.model import ModelObject
    from repro.core.site import SiteRuntime
    from repro.core.transaction import TxnRecord


# ---------------------------------------------------------------------------
# Op application / undo / commit (shared by local execute and remote apply)
# ---------------------------------------------------------------------------

# Ops are matched to objects by the class-level ``kind`` (as
# ``views._children_of`` does), so this module names no model class and no
# import statement runs per operation.
_COMPOSITE_KINDS = ("list", "map")
_STRUCTURAL_OPS = ("insert", "remove", "put", "delete", "structural")


def apply_op(obj: "ModelObject", op: OpPayload, vt: VirtualTime, committed: bool) -> Any:
    """Apply ``op`` to ``obj`` at ``vt``; returns any created child object.

    Raises :class:`InvalidPath` when a structural dependency (predecessor
    slot, remove target) has not arrived yet; callers buffer and retry.
    """
    kind = op.kind
    result: Any = None
    if kind == "set":
        if obj.history.entry_at(vt) is not None:
            obj.history.set_value_at(vt, op.args[0])
        else:
            obj.history.insert(vt, op.args[0], committed=committed)
    elif kind == "insert":
        if obj.kind != "list":
            raise ProtocolError(f"insert targeted non-list {obj.uid}")
        after_id, spec, seq = op.args
        result = obj.apply_insert(SlotId(vt, seq), after_id, spec)
        if committed:
            obj.commit_structural(vt)
    elif kind == "remove":
        if obj.kind != "list":
            raise ProtocolError(f"remove targeted non-list {obj.uid}")
        (target,) = op.args
        obj.apply_remove(vt, target)
        if committed:
            obj.commit_structural(vt)
    elif kind == "put":
        if obj.kind != "map":
            raise ProtocolError(f"put targeted non-map {obj.uid}")
        key, spec = op.args
        result = obj.apply_put(vt, key, spec)
        if committed:
            obj.commit_structural(vt)
    elif kind == "delete":
        if obj.kind != "map":
            raise ProtocolError(f"delete targeted non-map {obj.uid}")
        (key,) = op.args
        obj.apply_delete(vt, key)
        if committed:
            obj.commit_structural(vt)
    elif kind == "graph":
        (graph,) = op.args
        history = obj.graph_history()
        if history.entry_at(vt) is not None:
            history.set_value_at(vt, graph)
        else:
            history.insert(vt, graph, committed=committed)
    elif kind == "assoc":
        if obj.kind != "association":
            raise ProtocolError(f"assoc op targeted non-association {obj.uid}")
        result = obj.apply_assoc(vt, op.args, committed=committed)
    elif kind == "sync":
        (spec,) = op.args
        syncmod.import_state(obj, spec, vt)
    else:
        raise ProtocolError(f"unknown op kind {kind!r}")
    # Record which op was applied so abort/commit processing can reverse or
    # finalize it without re-deriving intent from message logs.
    obj.site.note_applied(vt, obj, op)
    bus = obj.site.bus
    if bus.active:
        bus.emit(
            "op_applied",
            site=obj.site.site_id,
            time_ms=obj.site.transport.now(),
            txn_vt=vt,
            obj=obj.uid,
            op=kind,
            committed=committed,
        )
    obj.notify_proxies("apply", vt)
    return result


def undo_op(obj: "ModelObject", op: OpPayload, vt: VirtualTime) -> None:
    """Roll back ``op`` applied at ``vt`` (transaction abort)."""
    kind = op.kind
    if kind == "set":
        obj.history.purge(vt)
    elif kind in _STRUCTURAL_OPS:
        obj.undo_structural(vt)
    elif kind == "graph":
        obj.graph_history().purge(vt)
    elif kind == "assoc":
        obj.undo_assoc(vt)
    elif kind == "sync":
        syncmod.restore_state(obj, vt)
    else:
        raise ProtocolError(f"unknown op kind {kind!r}")
    obj.notify_proxies("undo", vt)


def commit_op(obj: "ModelObject", op: OpPayload, vt: VirtualTime) -> None:
    """Mark ``op`` applied at ``vt`` as committed."""
    kind = op.kind
    if kind == "set":
        obj.history.commit(vt)
    elif kind in _STRUCTURAL_OPS:
        obj.commit_structural(vt)
    elif kind == "graph":
        obj.graph_history().commit(vt)
    elif kind == "assoc":
        obj.commit_assoc(vt)
    elif kind == "sync":
        # The imported committed entries are already final; any imported
        # uncommitted entries are finalized by their own writers' COMMITs.
        # What is left is the pre-import state kept for an abort.
        syncmod.forget_state(obj, vt)
    else:
        raise ProtocolError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# Path resolution
# ---------------------------------------------------------------------------


def resolve_path(root: "ModelObject", path: Tuple[PathStep, ...]) -> "ModelObject":
    """Walk a VT-tagged path from a propagation root to the embedded target.

    Raises :class:`InvalidPath` if any step's child has not arrived yet
    ("the propagation will block until the earlier update is received" —
    section 3.2.1); the commit engine buffers the operation and retries.
    """
    node = root
    for step in path:
        if node.kind not in _COMPOSITE_KINDS:
            raise ProtocolError(f"path step {step} descends into non-composite {node.uid}")
        child = node.resolve_step(step)
        if child is None:
            raise InvalidPath(f"path step {step} unresolved in {node.uid}")
        node = child
    return node


# ---------------------------------------------------------------------------
# Batch construction at the originating site
# ---------------------------------------------------------------------------


def build_batches(
    record: "TxnRecord", site: "SiteRuntime"
) -> Tuple[Dict[int, Tuple[List[WriteOp], List[ReadCheck]]], Dict[int, List[Tuple[str, ...]]]]:
    """Build per-site WRITE/CONFIRM-READ batches for one transaction.

    Returns ``(batches, primary_checks)`` where ``batches`` maps each
    destination site to its ops, and ``primary_checks`` maps each *primary*
    site (possibly including the origin) to the list of check descriptors
    it must validate — used to compute the confirmation wait set.
    """
    origin = site.site_id
    batches: Dict[int, Tuple[List[WriteOp], List[ReadCheck]]] = {}
    primary_sites: Dict[int, List[Tuple[str, ...]]] = {}

    def batch_for(dst: int) -> Tuple[List[WriteOp], List[ReadCheck]]:
        if dst not in batches:
            batches[dst] = ([], [])
        return batches[dst]

    for access in record.ctx.writes:
        target = access.target
        root = target.propagation_root()
        path = target.path_from_root()
        graph = root.graph()
        primary = site.primary_site_of(graph)
        primary_sites.setdefault(primary, []).append(("write", target.uid))
        for dst in graph.sites():
            if dst == origin:
                continue
            dst_uid = graph.uid_at_site(dst)
            if dst_uid is None:
                raise ProtocolError(f"graph of {root.uid} lacks a replica at site {dst}")
            writes, _ = batch_for(dst)
            writes.append(
                WriteOp(
                    object_uid=dst_uid,
                    op=access.op,
                    read_vt=access.read_vt,
                    graph_vt=access.graph_vt,
                    path=path,
                )
            )

    for access in record.ctx.read_only_accesses():
        target = access.target
        root = target.propagation_root()
        path = target.path_from_root()
        graph = root.graph()
        primary = site.primary_site_of(graph)
        primary_sites.setdefault(primary, []).append(("read", target.uid))
        if primary == origin:
            continue
        dst_uid = graph.uid_at_site(primary)
        if dst_uid is None:
            raise ProtocolError(f"graph of {root.uid} lacks a replica at primary {primary}")
        _, checks = batch_for(primary)
        checks.append(
            ReadCheck(
                object_uid=dst_uid,
                read_vt=access.read_vt,
                graph_vt=access.graph_vt,
                path=path,
            )
        )

    return batches, primary_sites
