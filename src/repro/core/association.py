"""Association model objects: tracking membership in collaborations.

An association object's value is "a set of replica relationships that are
bundled together for some application purpose"; each relationship contains
the set of model objects that have joined, together with their sites
(paper section 2.1).  Associations are themselves model objects: they can
be replicated (so every participant sees membership), can have views
attached, and membership changes flow through the normal transactional
update machinery — "changes in membership in associations are signaled as
update notifications in exactly the same way as changes in values of data
objects" (section 2.6).

An :class:`Invitation` is the external token that publicizes the right to
make replicas (section 2.6): it names the inviting site and its
association object, and carries the inviter's Lamport clock as any message
does, so a join drawn after importing it is later than the state it joins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.history import ValueHistory
from repro.core.messages import OpPayload
from repro.core.model import ModelObject
from repro.errors import ProtocolError, ReproError
from repro.vtime import VirtualTime

#: Association value: relationship id -> sorted tuple of (member uid, site).
AssocValue = Tuple[Tuple[str, Tuple[Tuple[str, int], ...]], ...]


def _to_mapping(value: AssocValue) -> Dict[str, Tuple[Tuple[str, int], ...]]:
    return {rel_id: members for rel_id, members in value}


def _from_mapping(mapping: Dict[str, Tuple[Tuple[str, int], ...]]) -> AssocValue:
    return tuple(sorted((rel_id, tuple(sorted(members))) for rel_id, members in mapping.items()))


@dataclass(frozen=True)
class Invitation:
    """An external token granting the right to replicate via an association."""

    inviter_site: int
    assoc_uid: str
    note: str = ""
    clock: int = 0


class Association(ModelObject):
    """A model object whose value is a bundle of replica relationships."""

    kind = "association"

    def __init__(self, site: Any, name: str) -> None:
        super().__init__(site, name)
        self.history: ValueHistory = ValueHistory(())  # empty AssocValue

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def relationships(self) -> List[str]:
        """All relationship ids in this association (a transactional read)."""
        return sorted(_to_mapping(self._read_value()))

    def members(self, rel_id: str) -> List[Tuple[str, int]]:
        """The (uid, site) members of one relationship."""
        mapping = _to_mapping(self._read_value())
        return list(mapping.get(rel_id, ()))

    def _read_value(self) -> AssocValue:
        ctx = self.site.current_txn
        if ctx is not None:
            return ctx.read(self)
        return self.history.current().value

    # ------------------------------------------------------------------
    # Writing (inside a transaction)
    # ------------------------------------------------------------------

    def create_relationship(self, rel_id: str) -> None:
        """Create an (initially empty) replica relationship."""
        ctx = self.site.require_txn("create_relationship")
        ctx.write(self, OpPayload(kind="assoc", args=(rel_id, "create", "", -1)))

    def record_join(self, rel_id: str, member_uid: str, member_site: int) -> None:
        """Record that ``member_uid`` joined ``rel_id`` (used by the join protocol)."""
        ctx = self.site.require_txn("record_join")
        ctx.write(self, OpPayload(kind="assoc", args=(rel_id, "join", member_uid, member_site)))

    def record_leave(self, rel_id: str, member_uid: str) -> None:
        """Record that ``member_uid`` left ``rel_id``."""
        ctx = self.site.require_txn("record_leave")
        ctx.write(self, OpPayload(kind="assoc", args=(rel_id, "leave", member_uid, -1)))

    def make_invitation(self, note: str = "") -> Invitation:
        """Publicize the right to replicate through this association.

        Mint one per joiner: each join moves the graph's VT past the clock
        an earlier token carried."""
        return Invitation(self.site.site_id, self.uid, note, self.site.clock.counter)

    # ------------------------------------------------------------------
    # Apply engine (shared local/remote semantics)
    # ------------------------------------------------------------------

    def apply_assoc(self, vt: VirtualTime, args: Tuple[Any, ...], committed: bool) -> AssocValue:
        rel_id, action, member_uid, member_site = args
        mapping = _to_mapping(self.history.current().value)
        if action == "create":
            mapping.setdefault(rel_id, ())
        elif action == "join":
            members = dict(mapping.get(rel_id, ()))
            members[member_uid] = member_site
            mapping[rel_id] = tuple(sorted(members.items()))
        elif action == "leave":
            members = dict(mapping.get(rel_id, ()))
            members.pop(member_uid, None)
            mapping[rel_id] = tuple(sorted(members.items()))
        else:
            raise ProtocolError(f"unknown association action {action!r}")
        new_value = _from_mapping(mapping)
        if self.history.entry_at(vt) is not None:
            self.history.set_value_at(vt, new_value)
        else:
            self.history.insert(vt, new_value, committed=committed)
        return new_value

    def undo_assoc(self, vt: VirtualTime) -> None:
        self.history.purge(vt)

    def commit_assoc(self, vt: VirtualTime) -> None:
        self.history.commit(vt)

    # ------------------------------------------------------------------
    # Snapshot interface
    # ------------------------------------------------------------------

    def value_at(self, vt: VirtualTime, committed_only: bool = False) -> AssocValue:
        if committed_only:
            return self.history.committed_read_at(vt).value
        return self.history.read_at(vt).value

    def current_value_vt(self) -> VirtualTime:
        return self.history.current().vt
