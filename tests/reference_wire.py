"""The reference wire codec: the original generic tag-dispatch implementation.

:mod:`repro.wire.codec` dispatches on exact types and takes several fast
paths (fused tag+payload byte constants, inline element loops, bounded
caches, a zero-copy cursor).  This module keeps the
*original* recursive implementation — one generic ``isinstance`` chain for
encode, one tag ``if`` ladder for decode — as the executable specification
of the wire format, mirroring ``tests/reference_hotpaths.py``: the
optimized codec must be byte-identical to this one on every encodable
value, and ``tests/test_wire_packers.py`` enforces that with Hypothesis
property tests over every registered struct.

It shares the live struct registry with the optimized codec (the dicts are
mutated in place by :func:`repro.wire.codec.register_struct`), so structs
registered after import are covered automatically.
"""

from __future__ import annotations

import struct
from typing import Any, List, Tuple

from repro.errors import WireError
from repro.vtime import VirtualTime
from repro.wire.codec import (
    _STRUCTS_BY_CLASS,
    _STRUCTS_BY_TAG,
    _T_BYTES,
    _T_DICT,
    _T_FALSE,
    _T_FLOAT,
    _T_FROZENSET,
    _T_INT,
    _T_LIST,
    _T_NONE,
    _T_STR,
    _T_TRUE,
    _T_TUPLE,
    _T_VT,
    WIRE_VERSION,
)

# ---------------------------------------------------------------------------
# Varints
# ---------------------------------------------------------------------------


def _write_uvarint(out: List[bytes], value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(bytes((byte | 0x80,)))
        else:
            out.append(bytes((byte,)))
            return


def _write_svarint(out: List[bytes], value: int) -> None:
    # ZigZag: interleave sign so small magnitudes stay small on the wire.
    _write_uvarint(out, (value << 1) if value >= 0 else ((-value << 1) - 1))


def _read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    shift = 0
    value = 0
    while True:
        if pos >= len(data):
            raise WireError("truncated varint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def _read_svarint(data: bytes, pos: int) -> Tuple[int, int]:
    raw, pos = _read_uvarint(data, pos)
    return ((raw >> 1) if not raw & 1 else -((raw + 1) >> 1)), pos


# ---------------------------------------------------------------------------
# Value encoding
# ---------------------------------------------------------------------------


def _encode_value(out: List[bytes], value: Any) -> None:
    if value is None:
        out.append(bytes((_T_NONE,)))
    elif value is True:
        out.append(bytes((_T_TRUE,)))
    elif value is False:
        out.append(bytes((_T_FALSE,)))
    elif isinstance(value, VirtualTime):
        out.append(bytes((_T_VT,)))
        _write_svarint(out, value.counter)
        _write_svarint(out, value.site)
    elif isinstance(value, int):  # after bool/VT checks
        out.append(bytes((_T_INT,)))
        _write_svarint(out, value)
    elif isinstance(value, float):
        out.append(bytes((_T_FLOAT,)))
        out.append(struct.pack(">d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(bytes((_T_STR,)))
        _write_uvarint(out, len(raw))
        out.append(raw)
    elif isinstance(value, bytes):
        out.append(bytes((_T_BYTES,)))
        _write_uvarint(out, len(value))
        out.append(value)
    elif isinstance(value, tuple):
        out.append(bytes((_T_TUPLE,)))
        _write_uvarint(out, len(value))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, list):
        out.append(bytes((_T_LIST,)))
        _write_uvarint(out, len(value))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, dict):
        # Canonical order: entries sorted by their encoded key bytes, so
        # two equal dicts always encode identically.
        out.append(bytes((_T_DICT,)))
        _write_uvarint(out, len(value))
        entries = []
        for key, val in value.items():
            kparts: List[bytes] = []
            _encode_value(kparts, key)
            vparts: List[bytes] = []
            _encode_value(vparts, val)
            entries.append((b"".join(kparts), b"".join(vparts)))
        for kbytes, vbytes in sorted(entries):
            out.append(kbytes)
            out.append(vbytes)
    elif isinstance(value, frozenset):
        # Canonical order: elements sorted by their encoded bytes.
        out.append(bytes((_T_FROZENSET,)))
        _write_uvarint(out, len(value))
        items = []
        for item in value:
            parts: List[bytes] = []
            _encode_value(parts, item)
            items.append(b"".join(parts))
        for raw in sorted(items):
            out.append(raw)
    else:
        entry = _STRUCTS_BY_CLASS.get(type(value))
        if entry is None:
            raise WireError(
                f"{type(value).__name__} is not wire-encodable; register it "
                "with repro.wire.register_struct"
            )
        tag, fields = entry
        out.append(bytes((tag,)))
        for name in fields:
            _encode_value(out, getattr(value, name))


def _decode_value(data: bytes, pos: int) -> Tuple[Any, int]:
    if pos >= len(data):
        raise WireError("truncated payload: expected a value tag")
    tag = data[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        return _read_svarint(data, pos)
    if tag == _T_FLOAT:
        if pos + 8 > len(data):
            raise WireError("truncated float")
        return struct.unpack(">d", data[pos : pos + 8])[0], pos + 8
    if tag == _T_STR:
        n, pos = _read_uvarint(data, pos)
        if pos + n > len(data):
            raise WireError("truncated string")
        return data[pos : pos + n].decode("utf-8"), pos + n
    if tag == _T_BYTES:
        n, pos = _read_uvarint(data, pos)
        if pos + n > len(data):
            raise WireError("truncated bytes")
        return data[pos : pos + n], pos + n
    if tag == _T_TUPLE:
        n, pos = _read_uvarint(data, pos)
        items = []
        for _ in range(n):
            item, pos = _decode_value(data, pos)
            items.append(item)
        return tuple(items), pos
    if tag == _T_LIST:
        n, pos = _read_uvarint(data, pos)
        out_list = []
        for _ in range(n):
            item, pos = _decode_value(data, pos)
            out_list.append(item)
        return out_list, pos
    if tag == _T_DICT:
        n, pos = _read_uvarint(data, pos)
        mapping = {}
        for _ in range(n):
            key, pos = _decode_value(data, pos)
            val, pos = _decode_value(data, pos)
            mapping[key] = val
        return mapping, pos
    if tag == _T_FROZENSET:
        n, pos = _read_uvarint(data, pos)
        elems = []
        for _ in range(n):
            item, pos = _decode_value(data, pos)
            elems.append(item)
        fs = frozenset(elems)
        if len(fs) != n:
            raise WireError("frozenset payload contains duplicate elements")
        return fs, pos
    if tag == _T_VT:
        counter, pos = _read_svarint(data, pos)
        site, pos = _read_svarint(data, pos)
        return VirtualTime(counter, site), pos
    entry = _STRUCTS_BY_TAG.get(tag)
    if entry is None:
        raise WireError(f"unknown wire tag {tag:#x}")
    cls, fields = entry
    values = []
    for _ in fields:
        value, pos = _decode_value(data, pos)
        values.append(value)
    try:
        return cls(*values), pos
    except Exception as exc:  # constructor invariants (e.g. empty graph)
        raise WireError(f"invalid {cls.__name__} payload: {exc}") from exc


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def encode(value: Any) -> bytes:
    """Serialize ``value`` exactly as the original generic codec did."""
    out: List[bytes] = [bytes((WIRE_VERSION,))]
    _encode_value(out, value)
    return b"".join(out)


def decode(data: bytes) -> Any:
    """Parse bytes produced by :func:`encode` (reference implementation)."""
    if not data:
        raise WireError("empty payload")
    version = data[0]
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version} (this codec speaks {WIRE_VERSION})"
        )
    value, pos = _decode_value(data, 1)
    if pos != len(data):
        raise WireError(f"{len(data) - pos} trailing bytes after payload")
    return value
