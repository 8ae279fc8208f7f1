"""Composite model objects: lists and keyed tuples (paper section 2.1, 3.2).

Composites embed child model objects.  Two kinds are provided:

* :class:`DList` — a linearly indexed sequence of children,
* :class:`DMap`  — a collection of children indexed by a key (the paper's
  *tuples*).

**Identity and fragile paths.**  Every embedded list child is tagged with a
:class:`~repro.core.messages.SlotId` — the VT of the embedding transaction
(the paper's index tag, section 3.2.1) extended with a per-transaction
sequence number so one transaction can embed several children.  Map
children are identified by their key plus put VT.  Propagation messages
address children by these VT-tagged paths, so they resolve correctly
regardless of the order in which structure-changing operations arrive; an
operation whose path references a not-yet-arrived insert blocks (is
buffered) until the earlier update arrives.

**Ordering.**  List inserts are positioned relative to the identity of
their predecessor element (``after_id``), not a raw index, and removed
slots remain as invisible tombstones, so element order is stable and
convergent even while optimistic stragglers are in flight (the RGA skip
rule orders same-predecessor siblings by descending SlotId).  Conflicting
*committed* structural updates cannot interleave at all: list structural
writes record a read of the structure, so concurrent edits fail their RL
guess at the primary and one aborts and retries.

**MVCC.**  Slots record insert/remove VTs and map keys keep a VT-sorted
slot list, so snapshots can materialize the composite's value as of any VT,
optimistically or committed-only.

**Structure history.**  Each composite keeps one history entry per
*transaction* that changed its structure (idempotent across that
transaction's several ops); RL/NC checks at the primary run against this
history plus the object's reservation table, exactly like a scalar's value
history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.history import ValueHistory
from repro.core.messages import OpPayload, PathStep, SlotId
from repro.core.model import ModelObject, embed_tag
from repro.core.scalars import scalar_class_for
from repro.errors import InvalidPath, ProtocolError, ReproError
from repro.vtime import VirtualTime

# ---------------------------------------------------------------------------
# Child specifications (wire-encodable nested initial values)
# ---------------------------------------------------------------------------

#: A child spec is ``(kind, payload)`` where payload is the initial value
#: for scalars, a tuple of child specs for lists, and a tuple of
#: ``(key, child spec)`` pairs for maps.
ChildSpec = Tuple[str, Any]


def make_spec(kind: str, initial: Any) -> ChildSpec:
    """Normalize a user-provided initial value into a wire-encodable spec."""
    if kind in ("int", "float", "string"):
        return (kind, initial)
    if kind == "list":
        items = tuple(make_spec(k, v) for k, v in (initial or ()))
        return ("list", items)
    if kind == "map":
        entries = initial.items() if hasattr(initial, "items") else (initial or ())
        pairs = tuple((key, make_spec(k, v)) for key, (k, v) in entries)
        return ("map", pairs)
    raise ReproError(f"unknown model object kind {kind!r}")


# ---------------------------------------------------------------------------
# Slot records
# ---------------------------------------------------------------------------


@dataclass
class RemoveEvent:
    """One tombstoning of a list slot, with its own commit status."""

    vt: VirtualTime
    committed: bool = False


@dataclass
class ListSlot:
    """One (possibly tombstoned) element of a :class:`DList`.

    ``slot_id`` is the element's identity; ``slot_id.vt`` its insertion
    time.  ``removes`` records remove operations (normally at most one); a
    remove is undone by deleting its event on abort.  Commit status lives
    ON the events — the structure history's entries are garbage-collected
    once stable, so visibility cannot depend on their presence.
    """

    slot_id: SlotId
    child: ModelObject
    embed_committed: bool = False
    removes: List[RemoveEvent] = field(default_factory=list)

    def visible_at(self, vt: VirtualTime, committed_only: bool = False) -> bool:
        """Is this slot visible at ``vt`` (optionally committed-events-only)?"""
        if not self.slot_id.vt <= vt:
            return False
        if committed_only and not self.embed_committed:
            return False
        for event in self.removes:
            if event.vt <= vt and (event.committed or not committed_only):
                return False
        return True


@dataclass
class KeySlot:
    """One version of a :class:`DMap` key: a child, or a tombstone (None)."""

    vt: VirtualTime
    child: Optional[ModelObject]
    committed: bool = False


# ---------------------------------------------------------------------------
# Composite base
# ---------------------------------------------------------------------------


class CompositeObject(ModelObject):
    """Shared machinery for :class:`DList` and :class:`DMap`."""

    kind = "composite"

    def __init__(
        self,
        site: Any,
        name: str,
        parent: Optional[ModelObject] = None,
        embed_vt: Any = None,
        key: Any = None,
    ) -> None:
        super().__init__(site, name, parent=parent, embed_vt=embed_vt, key=key)
        #: Structural-op history: one entry per transaction that changed
        #: this composite's structure (string values are debug text).
        self.history: ValueHistory = ValueHistory("init")

    # -- transaction-context plumbing ----------------------------------

    def _read_structure(self) -> None:
        ctx = self.site.current_txn
        if ctx is not None:
            ctx.read(self)

    def _write_structure(self, op: OpPayload) -> Any:
        ctx = self.site.require_txn(op.kind)
        return ctx.write(self, op)

    def _note_structure(self, vt: VirtualTime, desc: str) -> None:
        """Record a structural event at ``vt`` (idempotent per transaction)."""
        if self.history.entry_at(vt) is None:
            self.history.insert(vt, desc)

    # -- child construction --------------------------------------------

    def _build_child(self, child_key: Any, embed: Any, spec: ChildSpec) -> ModelObject:
        """Construct a child object from a spec.

        ``embed`` is the child's identity (SlotId for list children, put VT
        for map children).  Nested initial children receive negative
        sequence numbers, a namespace disjoint from transaction-assigned
        ones.
        """
        kind, payload = spec
        vt = getattr(embed, "vt", embed)
        child_name = f"{self.name}.{child_key if child_key is not None else embed_tag(embed)}"
        if kind in ("int", "float", "string"):
            cls = scalar_class_for(kind)
            child = cls(self.site, child_name, payload, parent=self, embed_vt=embed, key=child_key)
            # The child's initial value is born at its embed time; its
            # visibility to pessimistic readers is gated by the *slot's*
            # commit status, so the entry itself can be marked committed.
            child.history = ValueHistory(payload, initial_vt=vt)
            return child
        if kind == "list":
            child = DList(self.site, child_name, parent=self, embed_vt=embed, key=child_key)
            for i, item_spec in enumerate(payload):
                child.apply_insert(SlotId(vt, -(i + 1)), child._last_slot_id(), item_spec)
            return child
        if kind == "map":
            child = DMap(self.site, child_name, parent=self, embed_vt=embed, key=child_key)
            for entry_key, entry_spec in payload:
                child.apply_put(vt, entry_key, entry_spec)
            return child
        raise ReproError(f"unknown child kind {kind!r}")

    # -- interface for the apply/undo/commit engine --------------------

    def resolve_step(self, step: PathStep) -> Optional[ModelObject]:
        """Resolve one VT-tagged path step to a child, or None if missing."""
        raise NotImplementedError

    def undo_structural(self, vt: VirtualTime) -> None:
        """Roll back ALL structural events applied at ``vt`` (idempotent).

        A transaction's several structural ops on one composite share its
        VT; abort processing calls this once per recorded op, and every
        call after the first is a no-op.
        """
        raise NotImplementedError

    def _children_embedded_at(self, vt: VirtualTime) -> List[ModelObject]:
        """Children whose embedding event happened at ``vt`` (subclass hook)."""
        raise NotImplementedError

    def commit_structural(self, vt: VirtualTime) -> None:
        """Mark the structural events at ``vt`` committed (idempotent).

        Composite children built from nested initial-value specs carry
        structure entries at the same VT; committing the embedding commits
        them recursively.
        """
        self.history.commit(vt)
        for child in self._children_embedded_at(vt):
            if isinstance(child, CompositeObject):
                child.commit_structural(vt)


# ---------------------------------------------------------------------------
# DList
# ---------------------------------------------------------------------------


class DList(CompositeObject):
    """A linearly indexed sequence of embedded model objects."""

    kind = "list"

    def __init__(self, site: Any, name: str, parent=None, embed_vt=None, key=None) -> None:
        super().__init__(site, name, parent=parent, embed_vt=embed_vt, key=key)
        self._slots: List[ListSlot] = []

    # -- reading --------------------------------------------------------

    def _visible_slots(
        self, vt: Optional[VirtualTime] = None, committed_only: bool = False
    ) -> List[ListSlot]:
        if vt is None:
            vt = self._max_vt()
        return [s for s in self._slots if s.visible_at(vt, committed_only)]

    def _max_vt(self) -> VirtualTime:
        top = self.history.current().vt
        for slot in self._slots:
            if slot.slot_id.vt > top:
                top = slot.slot_id.vt
            for event in slot.removes:
                if event.vt > top:
                    top = event.vt
        return top

    def __len__(self) -> int:
        self._read_structure()
        return len(self._visible_slots())

    def children(self) -> List[ModelObject]:
        """The currently visible children, in order (records a read)."""
        self._read_structure()
        return [s.child for s in self._visible_slots()]

    def child_at(self, index: int) -> ModelObject:
        """The visible child at ``index`` (records a read)."""
        self._read_structure()
        visible = self._visible_slots()
        return visible[index].child

    def index_of(self, child: ModelObject) -> int:
        self._read_structure()
        for i, slot in enumerate(self._visible_slots()):
            if slot.child is child:
                return i
        raise InvalidPath(f"{child.uid} is not a visible element of {self.uid}")

    # -- writing (user API, inside a transaction) -----------------------

    def insert(self, index: int, kind: str, initial: Any = None) -> ModelObject:
        """Insert a new child at ``index``; returns the child object."""
        ctx = self.site.require_txn("insert")
        self._read_structure()
        visible = self._visible_slots()
        if not 0 <= index <= len(visible):
            raise IndexError(f"insert index {index} out of range 0..{len(visible)}")
        after_id = visible[index - 1].slot_id if index > 0 else None
        spec = make_spec(kind, initial)
        seq = ctx.next_slot_seq()
        return self._write_structure(OpPayload(kind="insert", args=(after_id, spec, seq)))

    def append(self, kind: str, initial: Any = None) -> ModelObject:
        self._read_structure()
        return self.insert(len(self._visible_slots()), kind, initial)

    def remove(self, index: int) -> None:
        """Remove the visible child at ``index``."""
        self._read_structure()
        visible = self._visible_slots()
        if not 0 <= index < len(visible):
            raise IndexError(f"remove index {index} out of range 0..{len(visible) - 1}")
        target = visible[index].slot_id
        self._write_structure(OpPayload(kind="remove", args=(target,)))

    # -- apply engine (local execute and remote propagation) ------------

    def _last_slot_id(self) -> Optional[SlotId]:
        return self._slots[-1].slot_id if self._slots else None

    def _find_slot(self, slot_id: SlotId) -> Optional[ListSlot]:
        for slot in self._slots:
            if slot.slot_id == slot_id:
                return slot
        return None

    def apply_insert(
        self, slot_id: SlotId, after_id: Optional[SlotId], spec: ChildSpec
    ) -> ModelObject:
        """Insert a child identified by ``slot_id`` after ``after_id``.

        Placement uses the RGA rule: start just after the predecessor and
        skip over any sibling slots with a greater SlotId, so concurrent
        optimistic inserts converge to the same order at every site.
        Raises :class:`InvalidPath` if the predecessor has not arrived yet
        (the caller buffers and retries — paper section 3.2.1 blocking).
        """
        if self._find_slot(slot_id) is not None:
            raise ProtocolError(f"duplicate insert {slot_id} in {self.uid}")
        if after_id is None:
            pos = 0
        else:
            pred = self._find_slot(after_id)
            if pred is None:
                raise InvalidPath(f"predecessor {after_id} not yet present in {self.uid}")
            pos = self._slots.index(pred) + 1
        while pos < len(self._slots) and self._slots[pos].slot_id > slot_id:
            pos += 1
        child = self._build_child(None, slot_id, spec)
        self._slots.insert(pos, ListSlot(slot_id=slot_id, child=child))
        self._note_structure(slot_id.vt, f"insert@{slot_id.vt}")
        return child

    def apply_remove(self, vt: VirtualTime, target: SlotId) -> None:
        """Tombstone the slot identified by ``target`` at ``vt``."""
        slot = self._find_slot(target)
        if slot is None:
            raise InvalidPath(f"remove target {target} not yet present in {self.uid}")
        slot.removes.append(RemoveEvent(vt=vt))
        self._note_structure(vt, f"remove@{vt}")

    def undo_structural(self, vt: VirtualTime) -> None:
        survivors = []
        for slot in self._slots:
            if slot.slot_id.vt == vt:
                self.site.unregister_subtree(slot.child)
                continue
            slot.removes = [e for e in slot.removes if e.vt != vt]
            survivors.append(slot)
        self._slots = survivors
        self.history.purge(vt)

    def commit_structural(self, vt: VirtualTime) -> None:
        for slot in self._slots:
            if slot.slot_id.vt == vt:
                slot.embed_committed = True
            for event in slot.removes:
                if event.vt == vt:
                    event.committed = True
        super().commit_structural(vt)

    def _children_embedded_at(self, vt: VirtualTime) -> List[ModelObject]:
        return [s.child for s in self._slots if s.slot_id.vt == vt]

    def uncommitted_deps(self, upto: VirtualTime) -> List[VirtualTime]:
        """A structure is an operation log: a read as of ``upto`` folds every
        insert and remove at or before it, so it depends on each uncommitted
        one.  The slot events hold the commit status (the history's GC drops
        an uncommitted entry below a stable committed one); children answer
        for themselves."""
        found = []
        for slot in self._slots:
            if not slot.embed_committed and slot.slot_id.vt <= upto:
                found.append(slot.slot_id.vt)
            found.extend(e.vt for e in slot.removes if not e.committed and e.vt <= upto)
        return found

    def resolve_step(self, step: PathStep) -> Optional[ModelObject]:
        slot = self._find_slot(step.embed_vt)
        return slot.child if slot is not None else None

    # -- snapshots -------------------------------------------------------

    def value_at(self, vt: VirtualTime, committed_only: bool = False) -> List[Any]:
        return [
            slot.child.value_at(vt, committed_only)
            for slot in self._visible_slots(vt, committed_only)
        ]

    def current_value_vt(self) -> VirtualTime:
        top = self.history.current().vt
        for slot in self._slots:
            child_vt = slot.child.current_value_vt()
            if child_vt > top:
                top = child_vt
        return top


# ---------------------------------------------------------------------------
# DMap
# ---------------------------------------------------------------------------


class DMap(CompositeObject):
    """A collection of embedded model objects indexed by key (paper "tuples").

    Puts and deletes are **blind writes**: they do not record a structure
    read, so concurrent puts to the same key never conflict — the one with
    the later VT wins (the scalar blind-write semantics of section 3.1,
    applied per key).  Reads of the map record a structure read as usual.
    """

    kind = "map"

    def __init__(self, site: Any, name: str, parent=None, embed_vt=None, key=None) -> None:
        super().__init__(site, name, parent=parent, embed_vt=embed_vt, key=key)
        self._keys: Dict[Any, List[KeySlot]] = {}

    # -- reading --------------------------------------------------------

    def _visible_slot(
        self, key: Any, vt: VirtualTime, committed_only: bool = False
    ) -> Optional[KeySlot]:
        best: Optional[KeySlot] = None
        for slot in self._keys.get(key, []):
            if slot.vt <= vt and (slot.committed or not committed_only):
                if best is None or slot.vt > best.vt:
                    best = slot
        return best

    def _now_vt(self) -> VirtualTime:
        top = self.history.current().vt
        for slots in self._keys.values():
            for slot in slots:
                if slot.vt > top:
                    top = slot.vt
        return top

    def keys(self) -> List[Any]:
        """Currently visible keys, sorted by repr for determinism (a read)."""
        self._read_structure()
        vt = self._now_vt()
        out = []
        for key in self._keys:
            slot = self._visible_slot(key, vt)
            if slot is not None and slot.child is not None:
                out.append(key)
        return sorted(out, key=repr)

    def has(self, key: Any) -> bool:
        self._read_structure()
        slot = self._visible_slot(key, self._now_vt())
        return slot is not None and slot.child is not None

    def child(self, key: Any) -> ModelObject:
        """The visible child at ``key`` (records a read)."""
        self._read_structure()
        slot = self._visible_slot(key, self._now_vt())
        if slot is None or slot.child is None:
            raise KeyError(key)
        return slot.child

    # -- writing ---------------------------------------------------------

    def put(self, key: Any, kind: str, initial: Any = None) -> ModelObject:
        """Blind-write a fresh child at ``key``; returns the child."""
        spec = make_spec(kind, initial)
        return self._write_structure(OpPayload(kind="put", args=(key, spec)))

    def delete(self, key: Any) -> None:
        """Blind-write a tombstone at ``key``."""
        self._write_structure(OpPayload(kind="delete", args=(key,)))

    # -- apply engine ------------------------------------------------------

    def apply_put(self, vt: VirtualTime, key: Any, spec: ChildSpec) -> ModelObject:
        child = self._build_child(key, vt, spec)
        slots = self._keys.setdefault(key, [])
        for slot in slots:
            if slot.vt == vt:
                # Same transaction re-put the same key: replace the child.
                if slot.child is not None:
                    self.site.unregister_subtree(slot.child)
                slot.child = child
                self._note_structure(vt, f"put@{vt}")
                return child
        slots.append(KeySlot(vt=vt, child=child))
        slots.sort(key=lambda s: (s.vt.counter, s.vt.site))
        self._note_structure(vt, f"put@{vt}")
        return child

    def apply_delete(self, vt: VirtualTime, key: Any) -> None:
        slots = self._keys.setdefault(key, [])
        for slot in slots:
            if slot.vt == vt:
                if slot.child is not None:
                    self.site.unregister_subtree(slot.child)
                slot.child = None
                self._note_structure(vt, f"delete@{vt}")
                return
        slots.append(KeySlot(vt=vt, child=None))
        slots.sort(key=lambda s: (s.vt.counter, s.vt.site))
        self._note_structure(vt, f"delete@{vt}")

    def undo_structural(self, vt: VirtualTime) -> None:
        for key in list(self._keys):
            kept = []
            for slot in self._keys[key]:
                if slot.vt == vt:
                    if slot.child is not None:
                        self.site.unregister_subtree(slot.child)
                    continue
                kept.append(slot)
            if kept:
                self._keys[key] = kept
            else:
                del self._keys[key]
        self.history.purge(vt)

    def commit_structural(self, vt: VirtualTime) -> None:
        for slots in self._keys.values():
            for slot in slots:
                if slot.vt == vt:
                    slot.committed = True
        super().commit_structural(vt)

    def uncommitted_deps(self, upto: VirtualTime) -> List[VirtualTime]:
        """Every uncommitted put and delete at or before ``upto``, as for
        :meth:`DList.uncommitted_deps`."""
        return [
            s.vt for slots in self._keys.values() for s in slots if not s.committed and s.vt <= upto
        ]

    def _children_embedded_at(self, vt: VirtualTime) -> List[ModelObject]:
        out = []
        for slots in self._keys.values():
            for slot in slots:
                if slot.vt == vt and slot.child is not None:
                    out.append(slot.child)
        return out

    def resolve_step(self, step: PathStep) -> Optional[ModelObject]:
        for slot in self._keys.get(step.key, []):
            if slot.vt == step.embed_vt and slot.child is not None:
                return slot.child
        return None

    # -- snapshots ---------------------------------------------------------

    def value_at(self, vt: VirtualTime, committed_only: bool = False) -> Dict[Any, Any]:
        out: Dict[Any, Any] = {}
        for key in self._keys:
            slot = self._visible_slot(key, vt, committed_only)
            if slot is not None and slot.child is not None:
                out[key] = slot.child.value_at(vt, committed_only)
        return out

    def current_value_vt(self) -> VirtualTime:
        top = self.history.current().vt
        for slots in self._keys.values():
            for slot in slots:
                if slot.vt > top:
                    top = slot.vt
                if slot.child is not None:
                    child_vt = slot.child.current_value_vt()
                    if child_vt > top:
                        top = child_vt
        return top
