"""Wire codec tests: golden bytes, full round-trip properties, rejection.

The golden-bytes cases pin the exact encoding of representative payloads:
any change to the byte layout (tag values, varint scheme, field order,
canonical collection ordering) fails here and forces a deliberate
``WIRE_VERSION`` bump.  The Hypothesis properties check, for every
registered message type, that ``decode(encode(x)) == x`` and that
re-encoding is byte-identical (the determinism the cross-process digest
comparison relies on).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.association import Invitation
from repro.core.messages import (
    AbortMsg,
    CommitMsg,
    ConfirmMsg,
    DelegateGrant,
    Envelope,
    FailQueryMsg,
    FailQueryReplyMsg,
    FailResolutionMsg,
    JoinReplyMsg,
    JoinRequestMsg,
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
from repro.core.repgraph import GraphNode, ReplicationGraph
from repro.errors import WireError
from repro.vtime import VT_ZERO, VirtualTime
from repro.wire import (
    FRAME_VERSION,
    MESSAGE_TYPES,
    WIRE_STRUCTS,
    WIRE_VERSION,
    TraceContext,
    decode,
    decode_frame,
    encode,
    encode_frame,
    register_struct,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

vts = st.builds(
    VirtualTime,
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=-1, max_value=64),
)
uids = st.from_regex(r"s[0-9]{1,2}:[a-z]{1,8}", fullmatch=True)
small_ints = st.integers(min_value=-(2**34), max_value=2**34)
clocks = st.integers(min_value=0, max_value=2**32)
ids = st.tuples(st.integers(min_value=0, max_value=64), st.integers(min_value=0, max_value=2**20))
texts = st.text(max_size=12)

slot_ids = st.builds(SlotId, vts, st.integers(min_value=0, max_value=1000))
path_steps = st.builds(PathStep, st.one_of(st.none(), texts), st.one_of(vts, slot_ids))
paths = st.tuples(*[path_steps] * 0) | st.builds(tuple, st.lists(path_steps, max_size=3))

#: Scalars + the structured values that appear inside op args / sync specs.
wire_scalars = st.one_of(
    st.none(),
    st.booleans(),
    small_ints,
    st.floats(allow_nan=False),
    texts,
    st.binary(max_size=8),
    vts,
    slot_ids,
)
wire_values = st.recursive(
    wire_scalars,
    lambda children: st.one_of(
        st.builds(tuple, st.lists(children, max_size=3)),
        st.lists(children, max_size=3),
        st.dictionaries(st.one_of(texts, small_ints, vts), children, max_size=3),
        st.frozensets(st.one_of(texts, small_ints, vts), max_size=3),
    ),
    max_leaves=8,
)

op_payloads = st.builds(
    OpPayload,
    st.sampled_from(["set", "insert", "remove", "put", "delete", "graph", "assoc", "sync", "structural"]),
    st.builds(tuple, st.lists(wire_values, max_size=3)),
)
write_ops = st.builds(WriteOp, uids, op_payloads, vts, vts, paths)
read_checks = st.builds(ReadCheck, uids, vts, vts, paths)
delegate_grants = st.builds(DelegateGrant, st.builds(tuple, st.lists(st.integers(0, 32), max_size=5)))
graph_nodes = st.builds(GraphNode, st.integers(min_value=0, max_value=64), uids)
graphs = st.builds(
    ReplicationGraph,
    st.frozensets(graph_nodes, min_size=1, max_size=4),
    st.frozensets(st.frozensets(uids, min_size=2, max_size=2), max_size=3),
)
snapshot_checks = st.builds(SnapshotCheck, uids, vts, vts, st.booleans(), paths)
vt_tuples = st.builds(tuple, st.lists(vts, max_size=4))
int_tuples = st.builds(tuple, st.lists(st.integers(0, 32), max_size=4))
vouches = st.builds(tuple, st.lists(st.tuples(uids, vts), max_size=3))

#: One strategy per wire-registered message type, covering every field.
MESSAGE_STRATEGIES = {
    TxnPropagateMsg: st.builds(
        TxnPropagateMsg,
        vts,
        st.integers(0, 64),
        st.builds(tuple, st.lists(write_ops, max_size=3)),
        st.builds(tuple, st.lists(read_checks, max_size=3)),
        clocks,
        st.one_of(st.none(), delegate_grants),
        st.booleans(),
    ),
    ConfirmMsg: st.builds(ConfirmMsg, vts, st.booleans(), clocks, texts, vouches),
    CommitMsg: st.builds(CommitMsg, vts, clocks, vouches),
    AbortMsg: st.builds(AbortMsg, vts, clocks, texts),
    SnapshotConfirmMsg: st.builds(
        SnapshotConfirmMsg, ids, st.integers(0, 64),
        st.builds(tuple, st.lists(snapshot_checks, max_size=3)), clocks,
    ),
    SnapshotReplyMsg: st.builds(SnapshotReplyMsg, ids, st.booleans(), clocks),
    JoinRequestMsg: st.builds(
        JoinRequestMsg, ids, st.integers(0, 64), vts, uids, uids, graphs, clocks,
    ),
    JoinReplyMsg: st.builds(
        JoinReplyMsg, ids, st.booleans(), wire_values, st.one_of(st.none(), graphs),
        vts, vts, vt_tuples, st.integers(0, 64), clocks, texts, st.booleans(),
    ),
    FailQueryMsg: st.builds(FailQueryMsg, ids, st.integers(0, 64), vt_tuples, clocks),
    FailQueryReplyMsg: st.builds(FailQueryReplyMsg, ids, vt_tuples, vt_tuples, clocks),
    FailResolutionMsg: st.builds(
        FailResolutionMsg, ids, vt_tuples, vt_tuples, clocks, vts, int_tuples
    ),
}
MESSAGE_STRATEGIES[Envelope] = st.builds(
    Envelope,
    st.builds(
        tuple,
        st.lists(
            st.one_of(*[MESSAGE_STRATEGIES[t] for t in (CommitMsg, ConfirmMsg, AbortMsg)]),
            min_size=1,
            max_size=4,
        ),
    ),
)


def test_every_message_type_has_a_strategy():
    assert set(MESSAGE_STRATEGIES) == set(MESSAGE_TYPES)


# ---------------------------------------------------------------------------
# Round-trip properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("msg_type", MESSAGE_TYPES, ids=lambda t: t.__name__)
def test_roundtrip_every_message_type(msg_type):
    @settings(max_examples=40)
    @given(MESSAGE_STRATEGIES[msg_type])
    def check(msg):
        data = encode(msg)
        back = decode(data)
        assert back == msg
        assert encode(back) == data

    check()


@settings(max_examples=60)
@given(wire_values)
def test_roundtrip_arbitrary_wire_values(value):
    data = encode(value)
    back = decode(data)
    assert back == value
    assert encode(back) == data


@settings(max_examples=30)
@given(graphs)
def test_roundtrip_replication_graphs(graph):
    data = encode(graph)
    assert decode(data) == graph
    assert encode(decode(data)) == data


def test_dict_and_frozenset_encoding_is_order_independent():
    assert encode({"b": 1, "a": 2}) == encode({"a": 2, "b": 1})
    assert encode(frozenset({"x", "y", "z"})) == encode(frozenset({"z", "x", "y"}))


def test_invitation_roundtrip():
    inv = Invitation(inviter_site=3, assoc_uid="s3:doc.assoc", note="join me", clock=2**40)
    assert decode(encode(inv)) == inv


def test_negative_and_large_ints():
    for n in (0, -1, 1, -(2**40), 2**40, 2**70, -(2**70)):
        assert decode(encode(n)) == n


def test_bool_is_not_confused_with_int():
    assert decode(encode(True)) is True
    assert decode(encode(False)) is False
    assert decode(encode(1)) == 1 and decode(encode(1)) is not True


# ---------------------------------------------------------------------------
# Golden bytes
# ---------------------------------------------------------------------------

GOLDEN = [
    (VirtualTime(7, 2), "010b0e04"),
    (CommitMsg(VirtualTime(5, 1), 12), "01280b0a0203180700"),
    (ConfirmMsg(VirtualTime(3, 0), True, 9, ""), "01270b060001031205000700"),
    (SnapshotReplyMsg((2, 7), False, 14), "012c07020304030e02031c"),
    (
        TxnPropagateMsg(
            txn_vt=VirtualTime(9, 1),
            origin=1,
            writes=(
                WriteOp(
                    "s0:x",
                    OpPayload("set", (5,)),
                    VT_ZERO,
                    VirtualTime(9, 1),
                    (),
                ),
            ),
            read_checks=(ReadCheck("s1:y", VirtualTime(4, 0), VirtualTime(2, 0)),),
            clock=11,
            delegate=DelegateGrant((0, 1, 2)),
            force_confirm=False,
        ),
        "01260b12020302070123050473303a782205037365740701030a0b00010b12"
        "020700070124050473313a790b08000b04000700031625070303000302030402",
    ),
    (
        Envelope((CommitMsg(VirtualTime(5, 1), 12), AbortMsg(VirtualTime(6, 1), 13, "x"))),
        "01390702280b0a0203180700290b0c02031a050178",
    ),
    # Trace headers: the sampled flag (head-based sampling decision) is
    # the last field, so pre-sampling captures differ only in the one
    # trailing bool byte.
    (TraceContext(3, "5@1", 42), "013a03060503354031035401"),
    (TraceContext(3, "5@1", 42, False), "013a03060503354031035402"),
]


# One instance of every struct (and generic container) that carries a
# VirtualTime, with multi-byte varints among them.  Recorded from the build
# whose VirtualTime was a slotted object stamped with its own encoding: the
# tuple-backed VirtualTime and the codec's VT -> bytes cache must reproduce
# every byte.
_V = VirtualTime
_GRAPH = ReplicationGraph(
    frozenset({GraphNode(0, "s0:x"), GraphNode(1, "s1:x")}),
    frozenset({frozenset({"s0:x", "s1:x"})}),
)
_STEP_LIST = PathStep(None, SlotId(_V(4, 1), 2))
_STEP_MAP = PathStep("k", _V(300, 1))
GOLDEN_VT_CARRIERS = [
    (SlotId(_V(4, 1), 2), "01200b08020304"),
    (_STEP_LIST, "012100200b08020304"),
    (_STEP_MAP, "012105016b0bd80402"),
    (
        WriteOp("s0:x", OpPayload("set", (_V(6, 2),)), _V(5, 1), VT_ZERO, (_STEP_LIST, _STEP_MAP)),
        "0123050473303a7822050373657407010b0c040b0a020b000107022100200b080203042105016b0bd80402",
    ),
    (ReadCheck("s1:y", _V(4, 0), _V(2, 0), (_STEP_MAP,)), "0124050473313a790b08000b040007012105016b0bd80402"),
    (
        TxnPropagateMsg(
            _V(9, 1), 1, (WriteOp("s0:x", OpPayload("set", (5,)), VT_ZERO, _V(9, 1)),),
            (ReadCheck("s1:y", _V(4, 0), _V(2, 0)),), 11, DelegateGrant((0, 2)), True,
        ),
        "01260b12020302070123050473303a782205037365740701030a0b00010b12020700070124050473313a79"
        "0b08000b0400070003162507020300030401",
    ),
    (ConfirmMsg(_V(3, 0), False, 9, "RL denied"), "01270b06000203120509524c2064656e6965640700"),
    (CommitMsg(_V(70000, 129), 12), "01280be0c508820203180700"),
    (AbortMsg(_V(6, 1), 13, "x"), "01290b0c02031a050178"),
    (
        SnapshotCheck("s0:x", _V(1, 0), _V(8, 3), True, (_STEP_LIST,)),
        "012a050473303a780b02000b10060107012100200b08020304",
    ),
    (
        SnapshotConfirmMsg((2, 7), 2, (SnapshotCheck("s0:x", VT_ZERO, _V(8, 3), False),), 14),
        "012b07020304030e030407012a050473303a780b00010b1006020700031c",
    ),
    (
        JoinRequestMsg((1, 1), 1, _V(10, 1), "s0:x", "s1:x", _GRAPH, 16),
        "012e07020302030203020b1402050473303a78050473313a78370a02360300050473303a78360302050473"
        "313a780a010a02050473303a78050473313a780320",
    ),
    (
        JoinReplyMsg(
            (1, 1), True, ("scalar", 5, _V(3, 0)), _GRAPH, _V(10, 1), _V(3, 0),
            (_V(11, 0), _V(12, 2)), 0, 17,
        ),
        "012f07020302030201070305067363616c6172030a0b0600370a02360300050473303a7836030205047331"
        "3a780a010a02050473303a78050473313a780b14020b060007020b16000b180403000322050001",
    ),
    (FailQueryMsg((0, 1), 2, (_V(5, 2), _V(6, 2)), 18), "0130070203000302030407020b0a040b0c040324"),
    (FailQueryReplyMsg((0, 1), (_V(5, 2),), (_V(6, 2),), 19), "013107020300030207010b0a0407010b0c040326"),
    (
        FailResolutionMsg((0, 1), (_V(5, 2),), (_V(6, 2),), 20, _V(21, 0), (2,)),
        "013207020300030207010b0a0407010b0c0403280b2a0007010304",
    ),
    ({_V(2, 1): "b", _V(1, 1): "a"}, "0109020b02020501610b0402050162"),
    (frozenset({_V(2, 1), _V(1, 1)}), "010a020b02020b0402"),
    ((_V(1, 1), [_V(2, 1)]), "0107020b020208010b0402"),
]


@pytest.mark.parametrize("value,hex_bytes", GOLDEN, ids=[type(v).__name__ for v, _ in GOLDEN])
def test_golden_bytes(value, hex_bytes):
    assert encode(value).hex() == hex_bytes
    assert decode(bytes.fromhex(hex_bytes)) == value


@pytest.mark.parametrize(
    "value,hex_bytes", GOLDEN_VT_CARRIERS, ids=[type(v).__name__ for v, _ in GOLDEN_VT_CARRIERS]
)
def test_golden_bytes_of_vt_carriers(value, hex_bytes):
    assert encode(value).hex() == hex_bytes  # first encode fills the VT cache
    assert encode(value).hex() == hex_bytes  # second one is served from it
    assert decode(bytes.fromhex(hex_bytes)) == value


# A primary's vouches: (uid of the primary copy, prev) pairs at the end of
# the two summary messages (two bytes, ``0700``, when there are none).
GOLDEN_VOUCHES = [
    (CommitMsg(_V(9, 2), 12, (("s0:x", _V(7, 1)),)), "01280b1204031807010702050473303a780b0e02"),
    (
        ConfirmMsg(_V(9, 2), True, 9, "", (("s0:x", _V(7, 1)), ("s0:y", _V(300, 1)))),
        "01270b1204010312050007020702050473303a780b0e020702050473303a790bd80402",
    ),
]


@pytest.mark.parametrize(
    "value,hex_bytes", GOLDEN_VOUCHES, ids=[type(v).__name__ for v, _ in GOLDEN_VOUCHES]
)
def test_golden_bytes_and_roundtrip_of_a_vouch(value, hex_bytes):
    assert encode(value).hex() == hex_bytes
    decoded = decode(bytes.fromhex(hex_bytes))
    assert decoded == value and decoded.vouched == value.vouched
    assert encode(decoded).hex() == hex_bytes


@given(st.integers(-(2**40), 2**40), st.integers(-1, 2**20))
def test_virtual_time_never_encodes_as_a_tuple(counter, site):
    # A VT is a tuple subclass and equals its (counter, site) pair, but on
    # the wire they stay distinct: tag 0x0B, never the generic tuple 0x07 —
    # bare, as a struct field, and as a container element.
    vt = VirtualTime(counter, site)
    assert encode(vt)[1] == 0x0B and encode(tuple(vt))[1] == 0x07
    assert encode(vt) != encode(tuple(vt))
    for carrier in (CommitMsg(vt, 1), (vt,), [vt], {vt: vt}, frozenset({vt})):
        decoded = decode(encode(carrier))
        assert decoded == carrier
        inner = decoded.txn_vt if isinstance(decoded, CommitMsg) else next(iter(decoded))
        assert type(inner) is VirtualTime
    assert type(decode(encode(tuple(vt)))) is tuple


def test_version_byte_leads_every_payload():
    assert encode(None)[0] == WIRE_VERSION


# ---------------------------------------------------------------------------
# Rejection
# ---------------------------------------------------------------------------


def test_rejects_empty_payload():
    with pytest.raises(WireError):
        decode(b"")


def test_rejects_unknown_version():
    good = encode(42)
    with pytest.raises(WireError, match="version"):
        decode(bytes([WIRE_VERSION + 1]) + good[1:])


def test_rejects_unknown_tag():
    with pytest.raises(WireError, match="unknown wire tag"):
        decode(bytes([WIRE_VERSION, 0xFF]))


def test_rejects_retired_tag():
    # 0x2D carried the eager write-confirmation broadcast; these are the
    # golden bytes of its last encoding, and the tag is not reused.
    with pytest.raises(WireError, match="unknown wire tag"):
        decode(bytes.fromhex("012d050473313a780b10060b0a020b1006031e"))


def test_rejects_trailing_garbage():
    with pytest.raises(WireError, match="trailing"):
        decode(encode(1) + b"\x00")


def test_rejects_truncated_struct():
    data = encode(CommitMsg(VirtualTime(5, 1), 12))
    with pytest.raises(WireError):
        decode(data[:-1])


def test_rejects_unencodable_value():
    with pytest.raises(WireError, match="not wire-encodable"):
        encode(object())


def test_rejects_invalid_struct_payload():
    # An encoded ReplicationGraph with zero nodes violates the class
    # invariant; the decoder must surface it as a WireError.
    import repro.wire.codec as codec

    tag = codec._STRUCTS_BY_CLASS[ReplicationGraph][0]
    bad = bytes([WIRE_VERSION, tag, codec._T_FROZENSET, 0, codec._T_FROZENSET, 0])
    with pytest.raises(WireError, match="ReplicationGraph"):
        decode(bad)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_register_struct_rejects_conflicts():
    @dataclasses.dataclass(frozen=True)
    class Other:
        x: int

    with pytest.raises(WireError, match="already registered"):
        register_struct(0x20, Other)  # 0x20 belongs to SlotId
    with pytest.raises(WireError, match="tags must be"):
        register_struct(0x05, Other)  # primitive range
    register_struct(0x20, SlotId)  # re-registering the same pair is a no-op


def test_register_struct_extension_roundtrips():
    @dataclasses.dataclass(frozen=True)
    class CustomPing:
        nonce: int
        tag: str

    register_struct(0xFE, CustomPing)
    msg = CustomPing(nonce=99, tag="hi")
    assert decode(encode(msg)) == msg


def test_all_structs_are_dataclasses_in_field_order():
    for cls in WIRE_STRUCTS:
        assert dataclasses.is_dataclass(cls)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def _frame_body(value):
    """A frame body whose routed tuple is ``value`` (for malformed cases)."""
    return bytes([FRAME_VERSION]) + encode(value)[1:]


def test_frame_roundtrip():
    msg = CommitMsg(VirtualTime(5, 1), 12)
    frame = encode_frame(3, 7, msg)
    length = int.from_bytes(frame[:4], "big")
    assert length == len(frame) - 4
    assert frame[4] == FRAME_VERSION
    assert decode_frame(frame[4:]) == (0, 3, 7, msg, None)


def test_frame_rejects_non_triple_body():
    # A body that is not a routed tuple at all — a bare value, or the
    # retired (src, dst, payload) triple — is rejected.
    msg = CommitMsg(VirtualTime(5, 1), 12)
    for value in ("just a string", (3, 7, msg)):
        with pytest.raises(WireError, match="5-tuple"):
            decode_frame(_frame_body(value))


# Golden frames: version byte 0x03 + (tenant, src, dst, payload,
# trace-or-None) 5-tuple.  The untraced frame ends in the None tag; the
# traced ones end in the TraceContext struct, whose last byte is the
# sampled flag (True=0x01, head-dropped=0x02).
GOLDEN_FRAME = "0000001203070503000306030e280b0a020318070000"
GOLDEN_FRAME_TRACED = "0000001c03070503000306030e280b0a02031807003a03060503354031035401"
GOLDEN_FRAME_DROPPED = "0000001c03070503000306030e280b0a02031807003a03060503354031035402"
#: Tenant 9, untraced: identical but for the tenant varint.
GOLDEN_FRAME_TENANT = "0000001203070503120306030e280b0a020318070000"


def test_golden_frame_bytes_both_versions():
    # "Both": the untraced and the traced variant of the one frame layout
    # (plus the sampled-out trace and a non-zero tenant).
    msg = CommitMsg(VirtualTime(5, 1), 12)
    trace = TraceContext(3, "5@1", 42)
    assert encode_frame(3, 7, msg).hex() == GOLDEN_FRAME
    assert encode_frame(3, 7, msg, trace).hex() == GOLDEN_FRAME_TRACED
    dropped = TraceContext(3, "5@1", 42, sampled=False)
    assert encode_frame(3, 7, msg, dropped).hex() == GOLDEN_FRAME_DROPPED
    assert encode_frame(3, 7, msg, tenant=9).hex() == GOLDEN_FRAME_TENANT
    assert decode_frame(bytes.fromhex(GOLDEN_FRAME)[4:]) == (0, 3, 7, msg, None)
    assert decode_frame(bytes.fromhex(GOLDEN_FRAME_TRACED)[4:]) == (0, 3, 7, msg, trace)


def test_sampled_out_trace_rides_the_frame():
    # The origin's head-drop decision must survive the wire so every
    # receiving process skips the same trace (repro.obs.sample).
    frame = bytes.fromhex(GOLDEN_FRAME_DROPPED)
    trace = decode_frame(frame[4:])[4]
    assert trace == TraceContext(3, "5@1", 42, sampled=False)
    assert trace.sampled is False


def test_traced_frame_roundtrip_and_msg_id():
    msg = CommitMsg(VirtualTime(5, 1), 12)
    trace = TraceContext(origin=3, trace_id="5@1", parent_span=42)
    frame = encode_frame(3, 7, msg, trace)
    length = int.from_bytes(frame[:4], "big")
    assert length == len(frame) - 4
    tenant, src, dst, payload, got = decode_frame(frame[4:])
    assert (tenant, src, dst, payload) == (0, 3, 7, msg)
    assert got == trace
    assert got.msg_id == "3:42"


def test_traced_frame_rejects_malformed_4_tuple():
    # The retired traced layout — (src, dst, payload, trace) with no
    # tenant — has the wrong arity, whatever its last element is.
    msg = CommitMsg(VirtualTime(5, 1), 12)
    for last in (TraceContext(3, "5@1", 42), "oops"):
        with pytest.raises(WireError, match="5-tuple"):
            decode_frame(_frame_body((3, 7, msg, last)))


def test_traced_frame_rejects_trailing_bytes():
    traced = bytes.fromhex(GOLDEN_FRAME_TRACED)
    with pytest.raises(WireError, match="trailing"):
        decode_frame(traced[4:] + b"\x00")


def test_tenant_frame_roundtrip_with_and_without_trace():
    msg = CommitMsg(VirtualTime(5, 1), 12)
    trace = TraceContext(3, "5@1", 42)
    plain = encode_frame(3, 7, msg, tenant=9)
    assert plain[4] == FRAME_VERSION
    assert int.from_bytes(plain[:4], "big") == len(plain) - 4
    assert decode_frame(plain[4:]) == (9, 3, 7, msg, None)
    traced = encode_frame(3, 7, msg, trace, tenant=9)
    assert decode_frame(traced[4:]) == (9, 3, 7, msg, trace)


def test_tenant_zero_is_byte_identical_to_default():
    # Tenant 0 has no spelling of its own: omitting the tenant and passing
    # tenant=0 write the same bytes, in the layout every tenant uses.
    msg = CommitMsg(VirtualTime(5, 1), 12)
    trace = TraceContext(3, "5@1", 42)
    assert encode_frame(3, 7, msg, tenant=0) == encode_frame(3, 7, msg)
    assert encode_frame(3, 7, msg, trace, tenant=0) == encode_frame(3, 7, msg, trace)
    assert encode_frame(3, 7, msg, tenant=0).hex() == GOLDEN_FRAME


def test_tenant_frame_accepts_tenant_zero():
    msg = CommitMsg(VirtualTime(5, 1), 12)
    trace = TraceContext(3, "5@1", 42)
    assert decode_frame(_frame_body((0, 3, 7, msg, None))) == (0, 3, 7, msg, None)
    assert decode_frame(encode_frame(3, 7, msg, tenant=0)[4:]) == (0, 3, 7, msg, None)
    assert decode_frame(encode_frame(3, 7, msg, trace, tenant=0)[4:]) == (0, 3, 7, msg, trace)


def test_decode_frame_rejects_retired_versions():
    # The v1 (bare triple) and v2 (traced 4-tuple) bodies earlier builds
    # wrote, byte for byte: there are no deployed peers, so they are
    # corruption now, as is any other version byte.
    retired_v1 = bytes.fromhex("0000000d0107030306030e280b0a020318")
    retired_v2 = bytes.fromhex("000000180207040306030e280b0a0203183a03060503354031035401")
    for frame in (retired_v1, retired_v2):
        with pytest.raises(WireError, match="frame version"):
            decode_frame(frame[4:])
    good = bytes.fromhex(GOLDEN_FRAME)[4:]
    for version in set(range(256)) - {FRAME_VERSION}:
        with pytest.raises(WireError, match="frame version"):
            decode_frame(bytes([version]) + good[1:])
    with pytest.raises(WireError, match="empty"):
        decode_frame(b"")


def test_tenant_frame_rejects_malformed_5_tuple():
    msg = CommitMsg(VirtualTime(5, 1), 12)
    trace = TraceContext(3, "5@1", 42)
    malformed = [
        (9, 3, 7, msg, "oops"),  # trace is neither None nor a TraceContext
        (9, 3, 7, msg, msg),
        ("9", 3, 7, msg, None),  # non-int tenant
        (9.0, 3, 7, msg, None),
        (None, 3, 7, msg, None),
        (True, 3, 7, msg, None),
        (9, "3", 7, msg, None),  # non-int src / dst
        (9, 3, None, msg, None),
        (9, 3, 7, msg),  # wrong arity
        (9, 3, 7, msg, None, None),
        (9, 3, 7, msg, trace, trace),
        [9, 3, 7, msg, None],  # right shape, wrong container
    ]
    for value in malformed:
        with pytest.raises(WireError, match="5-tuple"):
            decode_frame(_frame_body(value))


def test_tenant_frame_rejects_negative_tenant():
    msg = CommitMsg(VirtualTime(5, 1), 12)
    for tenant in (-1, -(2**40)):
        with pytest.raises(WireError, match="negative tenant"):
            decode_frame(_frame_body((tenant, 3, 7, msg, None)))
    # encode_frame does not police its caller; the decoder is the boundary.
    with pytest.raises(WireError, match="negative tenant"):
        decode_frame(encode_frame(3, 7, msg, tenant=-1)[4:])
