"""Adversarial decode fuzzing: malformed bytes must fail *cleanly*.

The decoder's contract is that any byte string either decodes to a value or
raises :class:`WireError` — never IndexError, struct.error, UnicodeError,
RecursionError, or a hang.  The decoder takes speculative fast paths (fused
tag reads, inline varints and virtual times), so these properties hammer it
with arbitrary bytes, mutated valid frames, and truncations of valid
frames; overlong varints must be refused in bounded time.
"""

import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.messages import OpPayload, TxnPropagateMsg, WriteOp
from repro.errors import WireError
from repro.vtime import VirtualTime
from repro.wire import TraceContext, decode, decode_frame, encode, encode_frame
from repro.wire.codec import _VARINT_MAX_BYTES, FRAME_VERSION, WIRE_VERSION


def _decode_or_wire_error(data):
    """decode() may succeed or raise WireError; anything else is a bug."""
    try:
        decode(data)
    except WireError:
        pass


def _sample_frames():
    writes = tuple(
        WriteOp(
            object_uid=f"s{i}:ctr",
            op=OpPayload(kind="set", args=(i,)),
            read_vt=VirtualTime(40, 2),
            graph_vt=VirtualTime(12, 0),
        )
        for i in range(3)
    )
    msg = TxnPropagateMsg(
        txn_vt=VirtualTime(41, 2), origin=2, writes=writes, read_checks=(), clock=57
    )
    return [
        encode(msg),
        encode((0, 1, msg)),
        encode({"k": (VirtualTime(1, 0), b"\x00\xff")}),
        encode([None, True, -(2**40), 2.5, frozenset({1, 2})]),
    ]


SAMPLE_FRAMES = _sample_frames()


def _sample_frame_bodies():
    """Routed frame bodies: both tenants 0 and 9, with and without trace."""
    msg = decode(SAMPLE_FRAMES[0])
    traces = (None, TraceContext(2, "41@2", 7), TraceContext(2, "41@2", 7, sampled=False))
    return [
        encode_frame(2, 0, msg, trace, tenant=tenant)[4:]
        for tenant in (0, 9)
        for trace in traces
    ]


SAMPLE_FRAME_BODIES = _sample_frame_bodies()


def _decode_frame_or_wire_error(body):
    """decode_frame() yields a well-typed routed 5-tuple or raises WireError."""
    try:
        tenant, src, dst, _payload, trace = decode_frame(body)
    except WireError:
        return
    assert type(tenant) is int and tenant >= 0
    assert type(src) is int and type(dst) is int
    assert trace is None or type(trace) is TraceContext


@settings(max_examples=300)
@given(st.binary(max_size=256))
@example(b"")
@example(bytes([WIRE_VERSION]))
@example(bytes([WIRE_VERSION, 0x0B]))  # VT tag, no varints
@example(bytes([WIRE_VERSION, 0x05, 0x7F]))  # str header, no payload
@example(bytes([WIRE_VERSION, 0x07, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]))  # huge tuple
@example(bytes([WIRE_VERSION, 0x80]))  # continuation bit, no next byte
@example(bytes([WIRE_VERSION, 0x26]))  # struct tag, no fields
def test_arbitrary_bytes_never_escape_wire_error(data):
    _decode_or_wire_error(data)


@settings(max_examples=200)
@given(
    st.sampled_from(SAMPLE_FRAMES),
    st.data(),
)
def test_mutated_valid_frames_never_escape_wire_error(frame, data):
    pos = data.draw(st.integers(0, len(frame) - 1))
    new_byte = data.draw(st.integers(0, 255))
    mutated = frame[:pos] + bytes([new_byte]) + frame[pos + 1 :]
    _decode_or_wire_error(mutated)


@settings(max_examples=200)
@given(st.sampled_from(SAMPLE_FRAMES), st.data())
def test_truncated_valid_frames_never_escape_wire_error(frame, data):
    cut = data.draw(st.integers(0, len(frame) - 1))
    _decode_or_wire_error(frame[:cut])


@settings(max_examples=100)
@given(st.sampled_from(SAMPLE_FRAMES), st.binary(min_size=1, max_size=8))
def test_trailing_garbage_raises_wire_error(frame, suffix):
    with pytest.raises(WireError):
        decode(frame + suffix)


@settings(max_examples=200)
@given(st.binary(max_size=64))
def test_memoryview_input_behaves_like_bytes(data):
    try:
        from_bytes = decode(data)
        bytes_ok = True
    except WireError as exc:
        from_bytes = str(exc)
        bytes_ok = False
    try:
        from_view = decode(memoryview(data))
        view_ok = True
    except WireError as exc:
        from_view = str(exc)
        view_ok = False
    assert bytes_ok == view_ok
    if bytes_ok:
        assert from_view == from_bytes


@settings(max_examples=200)
@given(st.binary(max_size=128))
def test_frame_body_decoder_never_escapes_wire_error(body):
    _decode_frame_or_wire_error(body)
    # Most arbitrary bytes die at the version check; get past it too.
    _decode_frame_or_wire_error(bytes([FRAME_VERSION]) + body)
    _decode_frame_or_wire_error(memoryview(bytes([FRAME_VERSION]) + body))


@settings(max_examples=300)
@given(st.sampled_from(SAMPLE_FRAME_BODIES), st.data())
def test_mutated_frame_bodies_never_escape_wire_error(body, data):
    pos = data.draw(st.integers(0, len(body) - 1))
    new_byte = data.draw(st.integers(0, 255))
    _decode_frame_or_wire_error(body[:pos] + bytes([new_byte]) + body[pos + 1 :])
    _decode_frame_or_wire_error(body[: data.draw(st.integers(0, len(body) - 1))])
    with pytest.raises(WireError):
        decode_frame(body + bytes([new_byte]))


OVERLONG = b"\xff" * 200_000 + b"\x01"  # one varint, 200,001 bytes


@pytest.mark.parametrize(
    "payload",
    [
        bytes([WIRE_VERSION, 0x03]) + OVERLONG,  # an int
        bytes([WIRE_VERSION, 0x05]) + OVERLONG,  # a string length
        bytes([WIRE_VERSION, 0x07]) + OVERLONG,  # a tuple count
    ],
    ids=["int", "str-length", "tuple-count"],
)
def test_overlong_varint_is_refused_in_linear_time(payload):
    # Unbounded, each byte shifts a wider integer: 3 s for this one frame.
    start = time.perf_counter()
    with pytest.raises(WireError, match="varint"):
        decode(payload)
    assert time.perf_counter() - start < 0.05


def test_encoder_refuses_what_the_decoder_would_refuse():
    widest = 2 ** (7 * _VARINT_MAX_BYTES) - 1  # the largest varint payload
    assert decode(encode(widest // 2)) == widest // 2  # zigzag doubles it
    assert decode(encode(VirtualTime(widest // 2, 0))) == VirtualTime(widest // 2, 0)
    for value in (2 ** (7 * _VARINT_MAX_BYTES), -(2 ** (7 * _VARINT_MAX_BYTES))):
        with pytest.raises(WireError, match="varint"):
            encode(value)
    with pytest.raises(WireError, match="varint"):
        encode(VirtualTime(2 ** (7 * _VARINT_MAX_BYTES), 0))


def test_deep_nesting_does_not_blow_the_stack():
    # 2000 nested single-element tuples: decode must either succeed or fail
    # cleanly, not die with RecursionError.
    depth = 2000
    payload = bytes([WIRE_VERSION]) + bytes([0x07, 0x01]) * depth + bytes([0x00])
    try:
        value = decode(payload)
    except WireError:
        return
    for _ in range(depth):
        assert isinstance(value, tuple) and len(value) == 1
        value = value[0]
    assert value is None
