"""The DECAF wire protocol.

One dataclass per message type.  The protocol follows section 3 of the
paper:

* ``TxnPropagateMsg`` carries, per destination site, the batched WRITE ops
  and CONFIRM-READ checks of one transaction (the paper's Fig. 5 sends
  "CONFIRM-READ" to primary-only sites and "WRITE" to replica sites; we
  bundle both kinds into one message per site).
* ``ConfirmMsg`` is the primary's confirmation (or denial) of the RL and NC
  guesses it was asked to check.  It is sent only to the originating site —
  the paper's specialization of Strom–Yemini guess propagation.
* ``CommitMsg`` / ``AbortMsg`` are the originating site's (or delegate's)
  summary decision, sent to every involved site.
* ``SnapshotConfirmMsg`` / ``SnapshotReplyMsg`` implement the CONFIRM-READ
  traffic of view snapshots (section 4).  One reply answers one request
  (snapshot id).  A pessimistic check whose interval holds uncommitted
  entries waits at the primary, in the dependency index, until they
  resolve.  A request whose primary failed is not re-sent under its id:
  the snapshot is revised under a fresh id once graph repair has
  committed, so a late reply to the old id is stale.
* ``JoinRequestMsg`` / ``JoinReplyMsg`` implement the remote call of the
  dynamic collaboration establishment protocol (section 3.3).
* ``FailQueryMsg`` / ``FailQueryReplyMsg`` / ``FailResolutionMsg``
  implement failure handling (section 3.4): one coordinator round resolves
  a failed site's in-flight transactions and orders the repair of the
  graphs whose primary it was.

Every message carries the sender's Lamport ``clock`` counter so receivers
can merge virtual time.  All messages are frozen dataclasses: the simulator
passes them by reference, and immutability guarantees a site can never
mutate another site's state through a shared payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.vtime import VirtualTime

# ---------------------------------------------------------------------------
# Operation payloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class SlotId:
    """The identity of one embedded child: its embed VT plus a per-
    transaction sequence number.

    The paper tags fragile indices with the VT of the embedding transaction
    (section 3.2.1); because one transaction may embed several children,
    the tag is extended with an operation sequence number assigned at the
    originating site (negative numbers are reserved for children created
    inside nested initial-value specs, so the two namespaces never clash).
    """

    vt: VirtualTime
    seq: int = 0


@dataclass(frozen=True)
class PathStep:
    """One step of a composite path: an index hint plus its VT embed tag.

    The paper (section 3.2.1) tags fragile list indices with the VT of the
    transaction that embedded the child, so receivers can resolve paths
    regardless of the order in which structure-changing operations arrive.
    ``embed_vt`` is a :class:`SlotId` for list children and the put VT for
    map children.
    """

    key: Any  # None for list children, the map key for map children
    embed_vt: Any  # SlotId (lists) or VirtualTime (maps)


@dataclass(frozen=True)
class OpPayload:
    """A single model-object mutation.

    ``kind`` is one of:

    * ``"set"``       — scalar assignment; ``args = (value,)``
    * ``"insert"``    — list insert; ``args = (index, child_spec)``
    * ``"remove"``    — list removal; ``args = (index, embed_vt)``
    * ``"put"``       — map put; ``args = (key, child_spec)``
    * ``"delete"``    — map removal; ``args = (key, embed_vt)``
    * ``"graph"``     — replication-graph replacement; ``args = (graph,)``
    * ``"assoc"``     — association membership delta; ``args = (rel_id, action, member)``
    """

    kind: str
    args: Tuple[Any, ...]


@dataclass(frozen=True)
class WriteOp:
    """A WRITE of one (possibly embedded) object, addressed to one site.

    ``object_uid`` names the destination site's replica.  For indirect
    propagation into composites, ``path`` walks from that root replica down
    to the embedded target (empty for root-level writes).  ``read_vt`` and
    ``graph_vt`` are the transaction's recorded read times, checked by the
    primary copy (RL guesses); blind writes carry ``read_vt == txn_vt``.
    """

    object_uid: str
    op: OpPayload
    read_vt: VirtualTime
    graph_vt: VirtualTime
    path: Tuple[PathStep, ...] = ()


@dataclass(frozen=True)
class ReadCheck:
    """A CONFIRM-READ item: object read (not written) by the transaction."""

    object_uid: str
    read_vt: VirtualTime
    graph_vt: VirtualTime
    path: Tuple[PathStep, ...] = ()


@dataclass(frozen=True)
class DelegateGrant:
    """Delegated-commit optimization (section 3.1).

    When a transaction has exactly one remote primary site and no RC
    guesses, the originating site delegates the commit decision: the
    grantee checks its guesses and directly broadcasts COMMIT/ABORT to
    ``all_sites`` instead of confirming back to the origin.
    """

    all_sites: Tuple[int, ...]


# ---------------------------------------------------------------------------
# Transaction protocol messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TxnPropagateMsg:
    """Per-site batch of WRITEs and CONFIRM-READ checks for one transaction."""

    txn_vt: VirtualTime
    origin: int
    writes: Tuple[WriteOp, ...]
    read_checks: Tuple[ReadCheck, ...]
    clock: int
    delegate: Optional[DelegateGrant] = None
    #: Force a confirmation from this site even if it does not consider
    #: itself primary under the current (already merged) graph — used by the
    #: join protocol so the *old* graph primaries validate the graph change
    #: (section 3.3).
    force_confirm: bool = False


@dataclass(frozen=True)
class ConfirmMsg:
    """Primary-site confirmation or denial of a transaction's guesses.

    The confirming site is the frame's sender, so the message does not name
    it.
    """

    txn_vt: VirtualTime
    ok: bool
    clock: int
    reason: str = ""
    #: What this primary vouches for (see :class:`CommitMsg`); the origin
    #: forwards it on its COMMIT.
    vouched: Tuple[Tuple[str, VirtualTime], ...] = ()


@dataclass(frozen=True)
class CommitMsg:
    """Summary commit of the transaction at ``txn_vt`` (origin or delegate).

    ``vouched`` pairs ``(uid of the primary copy, prev)``: for a blind write
    the primary found ``prev`` to be the latest entry below ``txn_vt`` in
    its history and reserved ``(prev, txn_vt)`` write-free, so a pessimistic
    snapshot at ``txn_vt`` whose RL guess starts at or above ``prev`` needs
    no CONFIRM-READ (section 5.1.2: "confirmations are eagerly distributed
    by the primary copy").  Empty unless some other site has asked that
    primary to confirm a pessimistic snapshot of the object.
    """

    txn_vt: VirtualTime
    clock: int
    vouched: Tuple[Tuple[str, VirtualTime], ...] = ()


@dataclass(frozen=True)
class AbortMsg:
    """Summary abort of the transaction at ``txn_vt`` (origin or delegate)."""

    txn_vt: VirtualTime
    clock: int
    reason: str = ""


# ---------------------------------------------------------------------------
# View snapshot protocol messages (section 4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnapshotCheck:
    """An RL guess for a snapshot: interval ``(lo_vt, hi_vt)`` update-free.

    ``committed_only`` distinguishes pessimistic snapshots (interval must be
    free of *committed* updates; uncommitted in-interval values defer the
    answer until they resolve) from optimistic snapshots (any in-interval
    value denies immediately).
    """

    object_uid: str
    lo_vt: VirtualTime
    hi_vt: VirtualTime
    committed_only: bool
    path: Tuple[PathStep, ...] = ()


@dataclass(frozen=True)
class SnapshotConfirmMsg:
    """CONFIRM-READ request from a view proxy to a primary copy."""

    snap_id: Tuple[int, int]  # (site, per-site sequence number)
    origin: int
    checks: Tuple[SnapshotCheck, ...]
    clock: int


@dataclass(frozen=True)
class SnapshotReplyMsg:
    """Primary's verdict on a snapshot's RL guesses at this site."""

    snap_id: Tuple[int, int]
    ok: bool
    clock: int


# ---------------------------------------------------------------------------
# Collaboration establishment messages (section 3.3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinRequestMsg:
    """The remote call from joiner A to member B: "here is my graph g_A"."""

    request_id: Tuple[int, int]
    origin: int
    txn_vt: VirtualTime
    target_uid: str  # B, the object already in the relationship
    joiner_uid: str  # A, the joining object
    joiner_graph: Any  # ReplicationGraph of A
    clock: int


@dataclass(frozen=True)
class JoinReplyMsg:
    """B's reply: its exported state, the merged graph, and pending caveats.

    ``sync_vt`` is the latest VT in the exported subtree state; the joiner's
    read of B's value is validated at B's primary over ``(sync_vt, txn_vt)``.
    ``pending_vts`` are the uncommitted transactions contributing to the
    exported state; the joiner must wait for them to commit (B forwards
    their outcomes — "this fact is remembered at B", section 3.3).
    """

    request_id: Tuple[int, int]
    ok: bool
    sync_spec: Any
    merged_graph: Any  # ReplicationGraph
    graph_vt: VirtualTime
    sync_vt: VirtualTime
    pending_vts: Tuple[VirtualTime, ...]
    gb_primary: int
    clock: int
    reason: str = ""
    #: False for permanent denials (authorization, unknown object) where
    #: automatic re-execution cannot help.
    retryable: bool = True


# ---------------------------------------------------------------------------
# Failure handling messages (section 3.4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FailQueryMsg:
    """Coordinator asks survivors whether they logged commits for in-flight txns."""

    query_id: Tuple[int, int]
    failed_site: int
    txn_vts: Tuple[VirtualTime, ...]
    clock: int


@dataclass(frozen=True)
class FailQueryReplyMsg:
    """Survivor's logged outcomes plus its own in-flight list.

    ``committed`` are transactions of the failed origin this site logged a
    COMMIT for; ``pending`` are ones it applied but whose outcome it does
    not know.  The coordinator commits any transaction some survivor saw
    commit and aborts the rest (section 3.4).
    """

    query_id: Tuple[int, int]
    committed: Tuple[VirtualTime, ...]
    pending: Tuple[VirtualTime, ...]
    clock: int


@dataclass(frozen=True)
class FailResolutionMsg:
    """Coordinator's decision for each in-flight transaction of a failed site,
    and the order that repairs the graphs whose primary failed.

    Every survivor rewrites each graph whose primary is in ``failed_sites``
    without those sites, as a committed write at ``apply_vt`` (the
    circularity case of section 3.4).  The removal set comes from the
    coordinator, so every survivor applies the same graph whatever order
    its own failure notices arrived in.
    """

    query_id: Tuple[int, int]
    commit_vts: Tuple[VirtualTime, ...]
    abort_vts: Tuple[VirtualTime, ...]
    clock: int
    apply_vt: VirtualTime
    failed_sites: Tuple[int, ...]


# ---------------------------------------------------------------------------
# Transport envelopes (message-plane batching)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """One network frame carrying several protocol messages to one peer.

    The batching layer (:class:`repro.wire.batch.Outbox`) coalesces every
    message a site emits to the same destination within one protocol turn —
    a commit fan-out, a burst of view confirms — into a single envelope, so
    the transport pays one frame (one latency sample, one wire header) for
    the whole burst.  Inner
    message order is the send order, and an envelope travels as one unit
    on the per-pair channel, so per-pair FIFO is preserved exactly.

    Envelopes never nest, and carry no ``clock`` of their own: receivers
    unpack and dispatch each inner message (merging its Lamport clock)
    exactly as if it had arrived alone.
    """

    messages: Tuple[Any, ...]

    def __len__(self) -> int:
        return len(self.messages)

    @property
    def txn_vt(self):
        """The leading inner message's transaction VT (or ``None``).

        An envelope is one frame, and frame-level telemetry (trace ids,
        head sampling, event attribution) keys off ``payload.txn_vt``.
        Delegating to the first inner message gives the frame the identity
        of the transaction that opened the batch — without it, every
        envelope would fall into the control-plane bucket (empty trace
        id, never sampled out), so a head sampler could not shed load on
        the batched message plane at all.  Not a dataclass field: the
        wire format is unchanged.
        """
        for msg in self.messages:
            vt = getattr(msg, "txn_vt", None)
            if vt is not None:
                return vt
        return None
