"""Unit tests for wire-protocol message types."""

import dataclasses

import pytest

from repro.core.messages import (
    AbortMsg,
    CommitMsg,
    ConfirmMsg,
    DelegateGrant,
    OpPayload,
    PathStep,
    ReadCheck,
    SlotId,
    SnapshotCheck,
    SnapshotConfirmMsg,
    SnapshotReplyMsg,
    TxnPropagateMsg,
    WriteOp,
)
from repro.vtime import VirtualTime


def vt(counter, site=0):
    return VirtualTime(counter, site)


class TestSlotId:
    def test_ordering_by_vt_then_seq(self):
        assert SlotId(vt(1), 0) < SlotId(vt(2), 0)
        assert SlotId(vt(1), 0) < SlotId(vt(1), 1)
        assert SlotId(vt(1, 0), 5) < SlotId(vt(1, 1), 0)

    def test_hashable_identity(self):
        assert SlotId(vt(3), 2) == SlotId(vt(3), 2)
        assert len({SlotId(vt(3), 2), SlotId(vt(3), 2), SlotId(vt(3), 3)}) == 2

    def test_negative_seq_namespace(self):
        # Spec-built children use negative seqs; they never collide with
        # transaction-assigned non-negative ones.
        assert SlotId(vt(1), -1) != SlotId(vt(1), 0)
        assert SlotId(vt(1), -1) < SlotId(vt(1), 0)


class TestImmutability:
    def test_messages_are_frozen(self):
        msg = CommitMsg(txn_vt=vt(1), clock=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            msg.clock = 2

    def test_ops_are_frozen(self):
        op = OpPayload(kind="set", args=(1,))
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.kind = "other"

    def test_write_op_frozen(self):
        write = WriteOp(object_uid="u", op=OpPayload("set", (1,)), read_vt=vt(1), graph_vt=vt(0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            write.object_uid = "x"


class TestDefaults:
    def test_propagate_defaults(self):
        msg = TxnPropagateMsg(txn_vt=vt(1), origin=0, writes=(), read_checks=(), clock=1)
        assert msg.delegate is None
        assert msg.force_confirm is False

    def test_write_op_default_path(self):
        write = WriteOp(object_uid="u", op=OpPayload("set", (1,)), read_vt=vt(1), graph_vt=vt(0))
        assert write.path == ()

    def test_snapshot_check_default_path(self):
        check = SnapshotCheck(object_uid="u", lo_vt=vt(1), hi_vt=vt(2), committed_only=True)
        assert check.path == ()

    def test_confirm_reason_default(self):
        msg = ConfirmMsg(txn_vt=vt(1), ok=True, clock=1)
        assert msg.reason == ""

    def test_abort_reason_default(self):
        msg = AbortMsg(txn_vt=vt(1), clock=1)
        assert msg.reason == ""


class TestStructure:
    def test_delegate_grant_sites(self):
        grant = DelegateGrant(all_sites=(0, 2, 3))
        assert grant.all_sites == (0, 2, 3)

    def test_path_step_carries_slot_id(self):
        step = PathStep(key=None, embed_vt=SlotId(vt(5), 1))
        assert step.embed_vt.vt == vt(5)

    def test_snapshot_messages(self):
        req = SnapshotConfirmMsg(snap_id=(1, 7), origin=1, checks=(), clock=9)
        reply = SnapshotReplyMsg(snap_id=(1, 7), ok=False, clock=10)
        assert req.snap_id == reply.snap_id
        assert not reply.ok

    def test_read_check_fields(self):
        check = ReadCheck(object_uid="u", read_vt=vt(1), graph_vt=vt(0))
        assert check.object_uid == "u"
