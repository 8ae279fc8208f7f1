"""Equivalence of the codec's struct packers against the reference codec.

:mod:`repro.wire.codec` encodes through an exact-type table with fused byte
constants, a zero-copy decode cursor, and two bounded caches (virtual times
and short strings).  :mod:`tests.reference_wire` keeps the original
recursive implementation as the executable specification of the wire
format.  These properties pin the two together for every registered struct:
byte-identical encodings, identical decodes (in both directions),
well-behaved caches, and values left untouched by encoding.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.association import Invitation
from repro.core.messages import (
    DelegateGrant,
    OpPayload,
    PathStep,
    ReadCheck,
    SlotId,
    SnapshotCheck,
    WriteOp,
)
from repro.core.repgraph import GraphNode, ReplicationGraph
from repro.vtime import VirtualTime
from repro.wire import codec
from repro.wire.codec import WIRE_STRUCTS, decode, encode

from tests import reference_wire as reference
from tests.test_wire import (
    MESSAGE_STRATEGIES,
    clocks,
    delegate_grants,
    graph_nodes,
    graphs,
    op_payloads,
    path_steps,
    read_checks,
    slot_ids,
    snapshot_checks,
    uids,
    vts,
    wire_values,
    write_ops,
)

# ---------------------------------------------------------------------------
# One strategy per registered struct (messages reuse tests.test_wire's)
# ---------------------------------------------------------------------------

invitations = st.builds(Invitation, st.integers(0, 64), uids, st.text(max_size=12), clocks)

trace_contexts = st.builds(
    codec.TraceContext,
    st.integers(0, 64),
    st.text(max_size=16),
    st.integers(min_value=0, max_value=2**40),
    st.booleans(),
)

STRUCT_STRATEGIES = dict(MESSAGE_STRATEGIES)
STRUCT_STRATEGIES.update(
    {
        SlotId: slot_ids,
        PathStep: path_steps,
        OpPayload: op_payloads,
        WriteOp: write_ops,
        ReadCheck: read_checks,
        DelegateGrant: delegate_grants,
        SnapshotCheck: snapshot_checks,
        GraphNode: graph_nodes,
        ReplicationGraph: graphs,
        Invitation: invitations,
        codec.TraceContext: trace_contexts,
    }
)


def test_every_registered_struct_has_a_strategy():
    assert set(STRUCT_STRATEGIES) == set(WIRE_STRUCTS)


# ---------------------------------------------------------------------------
# Byte-for-byte equivalence with the reference codec
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("struct_type", WIRE_STRUCTS, ids=lambda t: t.__name__)
def test_packer_encoding_matches_reference(struct_type):
    @settings(max_examples=30)
    @given(STRUCT_STRATEGIES[struct_type])
    def check(value):
        fast = encode(value)
        assert fast == reference.encode(value)
        # and both decoders agree on both encodings
        assert decode(fast) == value
        assert reference.decode(fast) == value

    check()


@pytest.mark.parametrize("struct_type", WIRE_STRUCTS, ids=lambda t: t.__name__)
def test_packer_decoding_matches_reference(struct_type):
    @settings(max_examples=30)
    @given(STRUCT_STRATEGIES[struct_type])
    def check(value):
        ref_bytes = reference.encode(value)
        assert decode(ref_bytes) == reference.decode(ref_bytes) == value

    check()


@settings(max_examples=60)
@given(wire_values)
def test_generic_values_match_reference(value):
    fast = encode(value)
    assert fast == reference.encode(value)
    assert decode(fast) == reference.decode(fast) == value


@settings(max_examples=40)
@given(MESSAGE_STRATEGIES[list(MESSAGE_STRATEGIES)[0]])
def test_reencoding_a_decoded_message_is_byte_identical(msg):
    raw = encode(msg)
    assert encode(decode(raw)) == raw


# ---------------------------------------------------------------------------
# Interning semantics
# ---------------------------------------------------------------------------


def test_interning_does_not_conflate_distinct_values():
    a = OpPayload(kind="set", args=(1,))
    b = OpPayload(kind="set", args=(2,))
    assert decode(encode(a)) == a
    assert decode(encode(b)) == b
    assert decode(encode(a)) != decode(encode(b))


def test_interning_is_invisible_to_equality_and_hash():
    op = OpPayload(kind="put", args=("k", 1))
    decoded = decode(encode(op))
    assert decoded == op
    assert hash(decoded) == hash(op)
    assert dataclasses.asdict(decoded) == dataclasses.asdict(op)


def test_encoding_leaves_the_value_untouched():
    # Encoding is a pure function of the value: two encodes are byte-identical
    # and write nothing into the frozen value or any struct nested in it.
    w = WriteOp(
        object_uid="s1:obj",
        op=OpPayload(kind="set", args=(1,)),
        read_vt=VirtualTime(5, 1),
        graph_vt=VirtualTime(2, 0),
        path=(PathStep(key=None, embed_vt=SlotId(VirtualTime(3, 1), 2)),),
    )
    first = encode(w)
    assert encode(w) == first
    for struct in (w, w.op, w.path[0], w.path[0].embed_vt):
        assert vars(struct) == {
            f.name: getattr(struct, f.name) for f in dataclasses.fields(struct)
        }


def test_overlong_varint_decodes_but_reencodes_canonically():
    # The decoder tolerates non-minimal varints; re-encoding the decoded
    # value must still produce the canonical (minimal) bytes.
    canonical = encode(7)
    overlong = bytes([canonical[0], canonical[1], 0x8E, 0x00])  # 14 -> 0x8E 0x00
    assert decode(overlong) == 7
    assert encode(decode(overlong)) == canonical


def test_vt_decode_cache_handles_multibyte_varints():
    for counter in (0, 1, 63, 64, 127, 128, 1000, 2**40):
        vt = VirtualTime(counter, 2)
        assert decode(encode(vt)) == vt


# ---------------------------------------------------------------------------
# Cache bounds: a burst of unique values must not grow caches without bound
# ---------------------------------------------------------------------------


def test_vt_cache_is_bounded():
    for i in range(1000):
        decode(encode(VirtualTime(i, i % 64)))
    assert len(codec._VT_CACHE) <= codec._VT_CACHE_MAX
    assert len(codec._VT_WIRE) <= codec._VT_CACHE_MAX


def test_vt_encode_cache_clears_when_full_and_stays_canonical(monkeypatch):
    monkeypatch.setattr(codec, "_VT_CACHE_MAX", 8)
    codec._VT_WIRE.clear()
    expected = [encode(VirtualTime(i, 3)) for i in range(40)]
    assert 0 < len(codec._VT_WIRE) <= 8
    assert [encode(VirtualTime(i, 3)) for i in range(40)] == expected
    assert [decode(raw) for raw in expected] == [VirtualTime(i, 3) for i in range(40)]


def test_str_cache_is_bounded():
    for i in range(1000):
        decode(encode(f"unique-string-{i}"))
    assert len(codec._STR_CACHE) <= codec._STR_CACHE_MAX
    # long strings are never interned
    big = "x" * (codec._STR_INTERN_MAX_LEN + 1)
    assert decode(encode(big)) == big


def test_reference_shares_the_live_registry():
    # structs registered after import are visible to the reference codec
    assert reference._STRUCTS_BY_CLASS is codec._STRUCTS_BY_CLASS
    assert reference._STRUCTS_BY_TAG is codec._STRUCTS_BY_TAG
