"""The model-object base class.

Model objects hold application state (paper section 2.1).  Every model
object — scalar, composite, or association — carries:

* a **value history** (VT-sorted versions; for composites the history
  records structure versions and children carry their own histories),
* a **replication graph history** (roots and direct-propagation nodes only;
  embedded objects inherit the root's graph by default — section 3.2),
* **reservation tables** used when the local site is the object's primary
  copy (write-free value intervals and change-free graph intervals),
* the set of attached **view proxies** notified on updates and commits.

Reads and writes inside a transaction route through the site's current
transaction context, which records read times and propagates writes; reads
outside a transaction return the current (optimistic) value directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from repro.core.history import ValueHistory
from repro.core.messages import PathStep
from repro.core.repgraph import GraphNode, ReplicationGraph
from repro.errors import NotAuthorized, ProtocolError
from repro.vtime import IntervalSet, VT_ZERO, VirtualTime
from repro.vtime.intervals import NO_RESERVATIONS

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.auth import AuthorizationMonitor
    from repro.core.site import SiteRuntime
    from repro.core.views import View, ViewProxy


def embed_tag(embed: Any) -> str:
    """A stable textual tag for an embed identity (SlotId or VirtualTime)."""
    vt = getattr(embed, "vt", embed)
    seq = getattr(embed, "seq", None)
    base = f"{vt.counter}@{vt.site}"
    return f"{base}.{seq}" if seq is not None else base


class ModelObject:
    """Base class for all DECAF model objects.

    Subclasses define the value representation and the user-facing
    operations; this base owns identity, replication-graph plumbing,
    reservations, and view attachment.
    """

    kind: str = "abstract"

    #: Primary copy: some other site has asked this copy to confirm a
    #: pessimistic snapshot, so blind writes reserve and vouch ``(prev,
    #: t_T)`` on their COMMIT.  Sticky, site-local (``sync`` never exports
    #: it); a new primary relearns it from the first CONFIRM-READ.
    watched: bool = False
    #: Replica: the last blind write's COMMIT applied to this object here
    #: carried such a vouch, so the next one is expected to as well.
    vouch_expected: bool = False

    def __init__(
        self,
        site: "SiteRuntime",
        name: str,
        parent: Optional["ModelObject"] = None,
        embed_vt: Optional[VirtualTime] = None,
        key: Any = None,
    ) -> None:
        self.site = site
        self.name = name
        self.parent = parent
        #: VT of the transaction that embedded this object in its parent
        #: (None for root objects).  This is the paper's fragile-path tag.
        self.embed_vt = embed_vt
        #: The key under which this object sits in its parent (list slot
        #: identity is the embed VT itself; map children carry their key).
        self.key = key
        if parent is None:
            self.uid = f"s{site.site_id}:{name}"
        else:
            tag = embed_tag(embed_vt) if embed_vt is not None else "?"
            self.uid = f"{parent.uid}[{key if key is not None else ''}#{tag}]"
        # Replication graph history: roots always have one (initially a
        # singleton graph); embedded objects have None until they switch to
        # direct propagation by joining their own collaboration.
        self._graph_history: Optional[ValueHistory[ReplicationGraph]] = None
        if parent is None:
            self._graph_history = ValueHistory(ReplicationGraph.singleton(self.uid, site.site_id))
        #: Reservation tables, consulted when this site holds the primary
        #: copy: write-free value intervals, change-free graph intervals, and
        #: the subtree-wide write-free intervals of *pessimistic view
        #: snapshots*, which block writes anywhere in this object's subtree
        #: (monotonicity protection, section 4.2).  Only a primary copy ever
        #: reserves, so every object starts on the one shared empty table
        #: and :meth:`reserve` gives it its own on its first interval.  (All
        #: three are assigned here, in one order, so replacing one later
        #: keeps the instance's attributes inline instead of forcing a
        #: ``__dict__`` into being.)
        self.value_reservations: IntervalSet = NO_RESERVATIONS
        self.graph_reservations: IntervalSet = NO_RESERVATIONS
        self.subtree_reservations: IntervalSet = NO_RESERVATIONS
        #: Attached view proxies (always local — section 4); a list of its
        #: own from the first ``attach`` on.
        self.proxies: Sequence["ViewProxy"] = ()
        #: Optional authorization monitor gating access (section 1).
        self.auth: Optional["AuthorizationMonitor"] = None
        site.register_object(self)

    # ------------------------------------------------------------------
    # Replication graph plumbing
    # ------------------------------------------------------------------

    def has_own_graph(self) -> bool:
        """True for roots and embedded nodes switched to direct propagation."""
        return self._graph_history is not None

    def propagation_root(self) -> "ModelObject":
        """The nearest ancestor (or self) that owns a replication graph.

        Updates to this object propagate indirectly through that root
        unless the object itself has switched to direct propagation
        (paper section 3.2).
        """
        node: ModelObject = self
        # Tested on ``_graph_history`` itself, never on a remembered root, so
        # ``enable_direct_propagation`` takes effect at once.
        while node._graph_history is None:
            if node.parent is None:
                raise ProtocolError(f"object {self.uid} has no propagation root")
            node = node.parent
        return node

    def graph_history(self) -> ValueHistory:
        """The replication graph history of this object's propagation root."""
        history = self._graph_history
        if history is None:
            history = self.propagation_root()._graph_history
            assert history is not None
        return history

    def graph(self) -> ReplicationGraph:
        """The current replication graph (possibly uncommitted)."""
        history = self._graph_history
        if history is None:
            history = self.graph_history()
        return history.current().value

    def graph_vt(self) -> VirtualTime:
        """The VT at which the replication graph was last changed."""
        return self.graph_history().current().vt

    def reserve(self, table: str, lo: VirtualTime, hi: VirtualTime, owner: Any) -> None:
        """Reserve the open interval ``(lo, hi)`` for ``owner`` in the
        reservation table named ``table`` (``"value_reservations"``, ...).

        An empty interval (a blind write's, ``lo == hi``) can never block
        anything and reserves nothing, so it leaves the object on the shared
        empty table.
        """
        if lo < hi:
            reservations = getattr(self, table)
            if reservations is NO_RESERVATIONS:
                reservations = IntervalSet()
                setattr(self, table, reservations)
            reservations.reserve(lo, hi, owner)

    def enable_direct_propagation(self) -> None:
        """Give this embedded object its own graph (the Fig. 7 switch).

        Called when an embedded node joins a collaboration of its own, so
        its replicas can differ from its root's.  The node starts with a
        singleton graph; the join protocol then merges in the peer's graph.
        """
        if self._graph_history is None:
            self._graph_history = ValueHistory(
                ReplicationGraph.singleton(self.uid, self.site.site_id)
            )

    def replica_sites(self) -> List[int]:
        """All sites holding replicas of this object's propagation root."""
        return self.graph().sites()

    def primary_site(self) -> int:
        """The site of this object's primary copy under the session selector."""
        return self.site.primary_site_of(self.graph())

    def is_primary_here(self) -> bool:
        return self.primary_site() == self.site.site_id

    # ------------------------------------------------------------------
    # Paths (indirect propagation addressing)
    # ------------------------------------------------------------------

    def path_from_root(self) -> Tuple[PathStep, ...]:
        """The VT-tagged path from this object's propagation root to itself."""
        steps: List[PathStep] = []
        node: ModelObject = self
        root = self.propagation_root()
        while node is not root:
            if node.embed_vt is None:
                raise ProtocolError(f"embedded object {node.uid} lacks an embed VT tag")
            steps.append(PathStep(key=node.key, embed_vt=node.embed_vt))
            assert node.parent is not None
            node = node.parent
        steps.reverse()
        return tuple(steps)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def attach(self, view: "View", mode: str = "optimistic") -> "ViewProxy":
        """Attach a view to this object (and, for composites, its subtree).

        ``mode`` is ``"optimistic"`` or ``"pessimistic"`` (section 2.5.1).
        Returns the proxy managing the view's notifications.
        """
        return self.site.views.attach(view, [self], mode)

    def notify_proxies(self, event: str, vt: VirtualTime) -> None:
        """Inform attached proxies (and ancestors' proxies) of an event at ``vt``.

        ``event`` is ``"apply"`` (a value arrived, possibly uncommitted) or
        ``"undo"`` (an abort rolled a value back) — the two that change what
        a view can read.  How the writing transaction *resolves* is not an
        object event: it reaches the proxies' snapshot records through the
        engine's dependency index (``DependencyIndex``), where they wait.
        Proxies attached to any ancestor also observe the event, because a
        view attached to a composite tracks "changes to the composite as
        well as to any of its children" (section 2.5).
        """
        if self.parent is None:
            # A root: only its own proxies observe it, so there is no ancestor
            # walk and nothing to de-duplicate across levels.
            for proxy in self.proxies:
                proxy.on_object_event(self, event, vt)
            return
        node: Optional[ModelObject] = self
        seen = set()
        while node is not None:
            for proxy in node.proxies:
                if id(proxy) not in seen:
                    seen.add(id(proxy))
                    proxy.on_object_event(self, event, vt)
            node = node.parent

    # ------------------------------------------------------------------
    # Authorization
    # ------------------------------------------------------------------

    def set_authorization(self, monitor: Optional["AuthorizationMonitor"]) -> None:
        """Install (or clear) an authorization monitor for this object."""
        self.auth = monitor

    def check_read(self, principal: str) -> None:
        if self.auth is not None and not self.auth.can_read(principal, self):
            raise NotAuthorized(f"{principal} may not read {self.uid}")

    def check_write(self, principal: str) -> None:
        if self.auth is not None and not self.auth.can_write(principal, self):
            raise NotAuthorized(f"{principal} may not write {self.uid}")

    def check_join(self, principal: str) -> None:
        if self.auth is not None and not self.auth.can_join(principal, self):
            raise NotAuthorized(f"{principal} may not join {self.uid}")

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------

    def value_at(self, vt: VirtualTime, committed_only: bool = False) -> Any:
        """Materialize this object's value as of ``vt`` (snapshot read)."""
        raise NotImplementedError

    def current_value_vt(self) -> VirtualTime:
        """The VT of the latest update affecting this object's value."""
        raise NotImplementedError

    def uncommitted_deps(self, upto: VirtualTime) -> List[VirtualTime]:
        """The uncommitted writes a read of this object as of ``upto`` folds.

        A value is the one entry in effect at ``upto``: the read depends on
        its writer if that is uncommitted, and on no write it overwrote.
        """
        entry = self.history.read_at(upto)
        return [] if entry.committed else [entry.vt]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.uid})"
