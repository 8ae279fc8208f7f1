"""State synchronization for the join protocol (paper section 3.3).

When object A joins a collaboration containing object B, B returns its
value to A.  For scalars this is one value; for composites the exported
state must preserve the VT tags of embedded children (slot identities), or
future indirect-propagation paths would not resolve at the joiner.

``export_state`` serializes a subtree — including commit flags and any
uncommitted suffix of each history — into a wire-encodable spec;
``import_state`` replaces the local subtree with that state, registering
uncommitted entries with the site's applied-op log so the standard
commit/abort machinery finalizes or rolls them back.  The previous state is
stashed so an abort of the joining transaction restores it exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.core.history import ValueHistory
from repro.core.messages import OpPayload
from repro.errors import ProtocolError
from repro.vtime import VT_ZERO, VirtualTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.model import ModelObject


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def export_state(obj: "ModelObject") -> Tuple[Any, VirtualTime, List[VirtualTime]]:
    """Serialize ``obj``'s subtree.

    Returns ``(spec, sync_vt, pending_vts)`` where ``sync_vt`` is the latest
    VT appearing anywhere in the exported state (the joiner's effective read
    time of B's value) and ``pending_vts`` are the uncommitted transaction
    VTs the state depends on.
    """
    pending: List[VirtualTime] = []
    spec = _export_node(obj, pending)
    sync_vt = obj.current_value_vt()
    # Deduplicate while preserving order.
    seen = set()
    unique = []
    for vt in pending:
        if vt not in seen:
            seen.add(vt)
            unique.append(vt)
    return spec, sync_vt, unique


def _export_history(history: ValueHistory, pending: List[VirtualTime]) -> Tuple:
    """Export the committed-current entry plus everything after it."""
    base = history.committed_current()
    entries = []
    for entry in history:
        if entry.vt < base.vt:
            continue
        entries.append((entry.vt, entry.value, entry.committed))
        if not entry.committed:
            pending.append(entry.vt)
    return tuple(entries)


def _export_node(obj: "ModelObject", pending: List[VirtualTime]) -> Tuple:
    from repro.core.association import Association
    from repro.core.composites import DList, DMap
    from repro.core.scalars import ScalarObject

    if isinstance(obj, DList):
        slots = []
        for slot in obj._slots:
            if not slot.embed_committed:
                pending.append(slot.slot_id.vt)
            for event in slot.removes:
                if not event.committed:
                    pending.append(event.vt)
            slots.append(
                (
                    slot.slot_id,
                    slot.embed_committed,
                    tuple((e.vt, e.committed) for e in slot.removes),
                    _export_node(slot.child, pending),
                )
            )
        return ("list", _export_history(obj.history, pending), tuple(slots))
    if isinstance(obj, DMap):
        keys = []
        for key, key_slots in sorted(obj._keys.items(), key=lambda kv: repr(kv[0])):
            exported = []
            for slot in key_slots:
                if not slot.committed:
                    pending.append(slot.vt)
                child_spec = (
                    _export_node(slot.child, pending) if slot.child is not None else None
                )
                exported.append((slot.vt, slot.committed, child_spec))
            keys.append((key, tuple(exported)))
        return ("map", _export_history(obj.history, pending), tuple(keys))
    if isinstance(obj, Association):
        return ("association", _export_history(obj.history, pending))
    if isinstance(obj, ScalarObject):
        return (obj.kind, _export_history(obj.history, pending))
    raise ProtocolError(f"cannot export state of {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Import
# ---------------------------------------------------------------------------


def import_state(obj: "ModelObject", spec: Tuple, sync_txn_vt: VirtualTime) -> None:
    """Replace ``obj``'s subtree with the exported state.

    The previous state is stashed under ``sync_txn_vt`` so
    :func:`restore_state` (abort) can bring it back.  Uncommitted imported
    entries are registered with the site's applied-op log under *their own*
    VTs, so forwarded COMMIT/ABORT messages for those transactions finalize
    them through the normal machinery.
    """
    stash = getattr(obj, "_sync_undo", None)
    if stash is None:
        stash = {}
        obj._sync_undo = stash  # type: ignore[attr-defined]
    undo_pending: List[VirtualTime] = []
    stash[sync_txn_vt] = _export_node(obj, undo_pending)
    _import_node(obj, spec)


def restore_state(obj: "ModelObject", sync_txn_vt: VirtualTime) -> None:
    """Abort path: restore the state stashed by :func:`import_state`."""
    old_spec = _unstash(obj, sync_txn_vt)
    if old_spec is None:
        raise ProtocolError(f"no stashed state for sync at {sync_txn_vt} on {obj.uid}")
    _import_node(obj, old_spec)


def forget_state(obj: "ModelObject", sync_txn_vt: VirtualTime) -> None:
    """Commit path: the state stashed by :func:`import_state` can never be
    restored now, so the object stops holding it."""
    _unstash(obj, sync_txn_vt)


def _unstash(obj: "ModelObject", sync_txn_vt: VirtualTime) -> Optional[Tuple]:
    stash = getattr(obj, "_sync_undo", None)
    if stash is None:
        return None
    spec = stash.pop(sync_txn_vt, None)
    if not stash:
        del obj._sync_undo  # type: ignore[attr-defined]
    return spec


def _import_history(obj: "ModelObject", entries: Tuple) -> None:
    first_vt, first_value, first_committed = entries[0]
    history = ValueHistory(first_value, initial_vt=first_vt)
    if not first_committed:
        raise ProtocolError("imported history must begin with a committed entry")
    for vt, value, committed in entries[1:]:
        history.insert(vt, value, committed=committed)
        if not committed:
            # Register with the applied log so the writer's forwarded
            # COMMIT/ABORT finalizes this entry.
            obj.site.note_applied(vt, obj, OpPayload(kind="set", args=(value,)))
    obj.history = history


def _import_node(obj: "ModelObject", spec: Tuple) -> None:
    from repro.core.composites import CompositeObject, DList, DMap, ListSlot, KeySlot

    kind = spec[0]
    if kind == "list":
        if not isinstance(obj, DList):
            raise ProtocolError(f"sync spec kind list does not match {type(obj).__name__}")
        _, entries, slots = spec
        _import_structure_history(obj, entries)
        for slot in obj._slots:
            obj.site.unregister_subtree(slot.child)
        obj._slots = []
        from repro.core.composites import RemoveEvent

        for slot_id, embed_committed, removes, child_spec in slots:
            child = _build_imported_child(obj, None, slot_id, child_spec)
            obj._slots.append(
                ListSlot(
                    slot_id=slot_id,
                    child=child,
                    embed_committed=embed_committed,
                    removes=[RemoveEvent(vt=vt, committed=c) for vt, c in removes],
                )
            )
    elif kind == "map":
        if not isinstance(obj, DMap):
            raise ProtocolError(f"sync spec kind map does not match {type(obj).__name__}")
        _, entries, keys = spec
        _import_structure_history(obj, entries)
        for key_slots in obj._keys.values():
            for slot in key_slots:
                if slot.child is not None:
                    obj.site.unregister_subtree(slot.child)
        obj._keys = {}
        for key, exported in keys:
            rebuilt = []
            for slot_vt, committed, child_spec in exported:
                child = (
                    _build_imported_child(obj, key, slot_vt, child_spec)
                    if child_spec is not None
                    else None
                )
                rebuilt.append(KeySlot(vt=slot_vt, child=child, committed=committed))
            obj._keys[key] = rebuilt
    else:
        # Scalar or association: kinds must match the local object.
        if obj.kind != kind:
            raise ProtocolError(f"sync spec kind {kind!r} does not match {obj.kind!r}")
        _import_history(obj, spec[1])


def _import_structure_history(obj: "ModelObject", entries: Tuple) -> None:
    if not entries:
        obj.history = ValueHistory("init")
        return
    first_vt, first_value, first_committed = entries[0]
    history = ValueHistory(first_value, initial_vt=first_vt)
    for vt, value, committed in entries[1:]:
        history.insert(vt, value, committed=committed)
        if not committed:
            # Pseudo-op: only the kind matters for undo/commit dispatch.
            obj.site.note_applied(vt, obj, OpPayload(kind="structural", args=()))
    obj.history = history


def build_from_spec(
    site: Any, name: str, spec: Tuple, parent: Any = None, embed: Any = None, key: Any = None
) -> "ModelObject":
    """Construct a fresh object of ``spec``'s kind and import ``spec`` into it.

    With ``parent`` it is an embedded child (the join's import); without,
    a root object named ``name`` at ``site`` (checkpoint restore).
    """
    from repro.core.association import Association
    from repro.core.composites import DList, DMap
    from repro.core.scalars import scalar_class_for

    kind = spec[0]
    if kind == "list":
        obj = DList(site, name, parent=parent, embed_vt=embed, key=key)
    elif kind == "map":
        obj = DMap(site, name, parent=parent, embed_vt=embed, key=key)
    elif kind in ("int", "float", "string"):
        first_value = spec[1][0][1]
        obj = scalar_class_for(kind)(site, name, first_value, parent=parent, embed_vt=embed, key=key)
    elif kind == "association" and parent is None:
        obj = Association(site, name)
    else:
        raise ProtocolError(f"cannot import object of kind {kind!r}")
    _import_node(obj, spec)
    return obj


def _build_imported_child(
    parent: "ModelObject", key: Any, embed: Any, child_spec: Tuple
) -> "ModelObject":
    from repro.core.model import embed_tag

    child_name = f"{parent.name}.{key if key is not None else embed_tag(embed)}"
    return build_from_spec(parent.site, child_name, child_spec, parent, embed, key)
