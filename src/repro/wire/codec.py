"""The DECAF wire codec: a deterministic, versioned binary format.

Everything a site sends to a peer — every message dataclass in
:mod:`repro.core.messages`, the virtual times they carry, replication
graphs, invitations, nested sync/child specs — encodes to bytes through
this module, so payloads can cross a real process boundary (the
:class:`~repro.transport.tcp.TcpTransport`) instead of travelling as live
Python references through in-memory queues.

Design rules:

* **Versioned.**  Every encoded payload starts with a one-byte format
  version.  A decoder that sees an unknown version raises
  :class:`~repro.errors.WireError` immediately — no best-effort parsing.
* **Registry-tagged.**  Each value form has a one-byte tag.  Primitive
  tags (ints, strings, tuples, ...) are fixed; protocol dataclasses are
  entered in a registry mapping tag ↔ class, and encode as the tag
  followed by the dataclass fields in declaration order.  Extensions
  register new structs with :func:`register_struct`; unknown tags are a
  hard decode error.
* **Deterministic.**  Encoding is a pure function of the value: dict
  entries and frozenset elements are ordered by their encoded bytes, so
  ``encode(decode(encode(x))) == encode(x)`` byte-for-byte.  This is what
  makes golden-bytes tests, cross-process digest comparison, and
  replayable traces possible.
* **Self-contained.**  Varints for all integers (up to 448 bits),
  IEEE-754 big-endian for floats, UTF-8 for strings.  No pickling, no
  code execution on decode.

How the bytes are produced (docs/WIRE.md has the full treatment):

* **One type table.**  Encoding dispatches on the value's exact type to
  one function per primitive; :func:`register_struct` installs one generic
  packer and unpacker per dataclass — the tag byte, then the fields
  through the same element loops tuples use.  The original recursive
  implementation survives in ``tests/reference_wire.py`` and property
  tests assert byte-identical output.
* **One join per frame.**  Encoders append pre-built byte constants
  (fused tag+payload singletons for small ints, small string/collection
  headers) to one parts list; ``b"".join`` runs once per payload.
* **Zero-copy cursor decode.**  The decoder walks ``(buf, pos)`` with a
  per-tag function table; ``memoryview``/``bytearray`` inputs are
  consumed in place without intermediate slicing, and malformed input
  surfaces as :class:`WireError` at the ``decode()`` boundary — never
  ``IndexError``/``struct.error``/``RecursionError``.  Varints are
  bounded (:data:`_VARINT_MAX_BYTES`), so no single value costs a hostile
  peer's frame more than linear time.
* **Two bounded caches.**  Decoded :class:`~repro.vtime.VirtualTime`
  values and short strings (site/object uids) are shared, and the VT
  cache also remembers each ``VirtualTime``'s canonical encoding so
  fan-out and dict/frozenset canonicalization stop re-encoding timestamps.
"""

from __future__ import annotations

import dataclasses
import operator
import struct
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

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
from repro.vtime import VirtualTime

#: Current wire-format version.  Bump on any incompatible layout change;
#: decoders reject every version they do not implement.
WIRE_VERSION = 1

#: Frame-layout version: the leading byte of every frame body, followed by
#: the ``(tenant, src, dst, payload, trace-or-None)`` 5-tuple.  Distinct
#: from ``WIRE_VERSION`` so a bare ``encode()`` payload can never be
#: mistaken for a routed frame (docs/WIRE.md).
FRAME_VERSION = 3

# ---------------------------------------------------------------------------
# Primitive tags (0x00–0x1F reserved for the codec itself)
# ---------------------------------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_DICT = 0x09
_T_FROZENSET = 0x0A
_T_VT = 0x0B

# ---------------------------------------------------------------------------
# Pre-built byte constants (one object per frequent prefix, so encoders
# append shared singletons instead of constructing bytes per value)
# ---------------------------------------------------------------------------

_BYTE = tuple(bytes((i,)) for i in range(256))

_B_NONE = _BYTE[_T_NONE]
_B_TRUE = _BYTE[_T_TRUE]
_B_FALSE = _BYTE[_T_FALSE]
_B_INT = _BYTE[_T_INT]
_B_FLOAT = _BYTE[_T_FLOAT]
_B_STR = _BYTE[_T_STR]
_B_BYTES = _BYTE[_T_BYTES]
_B_TUPLE = _BYTE[_T_TUPLE]
_B_LIST = _BYTE[_T_LIST]
_B_DICT = _BYTE[_T_DICT]
_B_FROZENSET = _BYTE[_T_FROZENSET]
_B_VT = _BYTE[_T_VT]

#: Fused tag+varint singletons: a small int/length encodes as ONE append.
_INT1 = tuple(_B_INT + _BYTE[z] for z in range(128))
_STR_HDR = tuple(_B_STR + _BYTE[n] for n in range(128))
_BYTES_HDR = tuple(_B_BYTES + _BYTE[n] for n in range(128))
_TUPLE_HDR = tuple(_B_TUPLE + _BYTE[n] for n in range(128))
_LIST_HDR = tuple(_B_LIST + _BYTE[n] for n in range(128))
_DICT_HDR = tuple(_B_DICT + _BYTE[n] for n in range(128))
_FROZENSET_HDR = tuple(_B_FROZENSET + _BYTE[n] for n in range(128))

_PACK_D = struct.Struct(">d").pack
_UNPACK_D = struct.Struct(">d").unpack_from

# ---------------------------------------------------------------------------
# Struct registry (tags 0x20–0xFF)
# ---------------------------------------------------------------------------

#: tag -> (class, field names in declaration order)
_STRUCTS_BY_TAG: Dict[int, Tuple[type, Tuple[str, ...]]] = {}
#: class -> (tag, field names)
_STRUCTS_BY_CLASS: Dict[type, Tuple[int, Tuple[str, ...]]] = {}

#: Exact-type encoder dispatch: ``type(value) -> fn(out, value)``.
_ENCODERS: Dict[type, Callable[[List[bytes], Any], None]] = {}
#: Tag-indexed decoder table: ``fn(buf, pos) -> (value, pos)`` or None.
_DECODERS: List[Optional[Callable[[Any, int], Tuple[Any, int]]]] = [None] * 256

# ---------------------------------------------------------------------------
# The two caches, virtual times and short strings (bounded: cleared
# wholesale when full, so a burst of unique values cannot grow them)
# ---------------------------------------------------------------------------

#: Decoded VirtualTime instances, keyed on the raw zigzag varint values.
#: The common case (both varints single-byte) uses the fused int key
#: ``z1 * 128 + z2``; larger pairs fall back to a ``(z1, z2)`` tuple key.
#: int and tuple keys never compare equal, so one dict serves both.
_VT_CACHE: Dict[Any, VirtualTime] = {}
_VT_CACHE_MAX = 1 << 16
#: The encode half of the VT cache: canonical wire bytes (tag + two zigzag
#: varints) keyed by the VT itself — a C-level tuple hash, no attribute on
#: the (slot-free) ``VirtualTime``.  Commit fan-out re-encodes the same
#: timestamps once per destination and dict/frozenset canonicalization once
#: per containing collection; every encode after the first is one lookup and
#: one append.  Same bound and wholesale clear as the decode half.
_VT_WIRE: Dict[VirtualTime, bytes] = {}
_STR_CACHE: Dict[bytes, str] = {}
_STR_CACHE_MAX = 1 << 12
_STR_INTERN_MAX_LEN = 40


# ---------------------------------------------------------------------------
# Varint helpers (multi-byte slow paths; single bytes use the fused tables)
# ---------------------------------------------------------------------------

#: Longest varint the codec writes or reads.  Far above any count, length,
#: counter or id the protocol carries; without it one overlong varint in a
#: 16 MiB frame costs quadratic time (every byte shifts a wider integer) on
#: the event loop every tenant shares.
_VARINT_MAX_BYTES = 64
_VARINT_MAX_SHIFT = 7 * _VARINT_MAX_BYTES
#: Smallest unsigned value that needs more than ``_VARINT_MAX_BYTES`` bytes.
_VARINT_LIMIT = 1 << _VARINT_MAX_SHIFT


def _append_uvarint(out: List[bytes], value: int) -> None:
    if value >= _VARINT_LIMIT:
        raise WireError(f"integer needs more than {_VARINT_MAX_BYTES} varint bytes")
    while value > 0x7F:
        out.append(_BYTE[(value & 0x7F) | 0x80])
        value >>= 7
    out.append(_BYTE[value])


def _read_uvarint(data: Any, pos: int) -> Tuple[int, int]:
    byte = data[pos]
    pos += 1
    if byte < 0x80:
        return byte, pos
    value = byte & 0x7F
    shift = 7
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift >= _VARINT_MAX_SHIFT:
            raise WireError(f"varint longer than {_VARINT_MAX_BYTES} bytes")


# ---------------------------------------------------------------------------
# Primitive encoders
# ---------------------------------------------------------------------------


def _enc_none(out: List[bytes], value: Any) -> None:
    out.append(_B_NONE)


def _enc_bool(out: List[bytes], value: Any) -> None:
    out.append(_B_TRUE if value else _B_FALSE)


def _enc_int(out: List[bytes], value: int) -> None:
    z = (value << 1) if value >= 0 else ((-value << 1) - 1)
    if z < 0x80:
        out.append(_INT1[z])
    else:
        out.append(_B_INT)
        _append_uvarint(out, z)


def _enc_float(out: List[bytes], value: float) -> None:
    out.append(_B_FLOAT)
    out.append(_PACK_D(value))


def _enc_str(out: List[bytes], value: str) -> None:
    raw = value.encode("utf-8")
    n = len(raw)
    if n < 128:
        out.append(_STR_HDR[n])
    else:
        out.append(_B_STR)
        _append_uvarint(out, n)
    out.append(raw)


def _enc_bytes(out: List[bytes], value: bytes) -> None:
    n = len(value)
    if n < 128:
        out.append(_BYTES_HDR[n])
    else:
        out.append(_B_BYTES)
        _append_uvarint(out, n)
    out.append(value)


def _remember_vt_wire(value: VirtualTime, raw: bytes) -> None:
    if len(_VT_WIRE) >= _VT_CACHE_MAX:
        _VT_WIRE.clear()
    _VT_WIRE[value] = raw


def _enc_vt(out: List[bytes], value: VirtualTime) -> None:
    raw = _VT_WIRE.get(value)
    if raw is None:
        parts: List[bytes] = [_B_VT]
        counter = value.counter
        z = (counter << 1) if counter >= 0 else ((-counter << 1) - 1)
        if z < 0x80:
            parts.append(_BYTE[z])
        else:
            _append_uvarint(parts, z)
        site = value.site
        z = (site << 1) if site >= 0 else ((-site << 1) - 1)
        if z < 0x80:
            parts.append(_BYTE[z])
        else:
            _append_uvarint(parts, z)
        raw = b"".join(parts)
        _remember_vt_wire(value, raw)
    out.append(raw)


def _enc_value(out: List[bytes], value: Any) -> None:
    """Generic dispatch: exact-type table first, isinstance fallback after."""
    enc = _ENCODERS.get(value.__class__)
    if enc is None:
        _enc_fallback(out, value)
    else:
        enc(out, value)


def _enc_items(out: List[bytes], value: Any) -> None:
    """Shared element loop for tuples, lists and struct fields: ints and
    virtual times — the bulk of real traffic — inline; everything else via
    the dispatch."""
    encoders = _ENCODERS
    for item in value:
        cls = item.__class__
        if cls is int:
            z = (item << 1) if item >= 0 else ((-item << 1) - 1)
            if z < 0x80:
                out.append(_INT1[z])
            else:
                out.append(_B_INT)
                _append_uvarint(out, z)
        elif cls is VirtualTime:
            raw = _VT_WIRE.get(item)
            if raw is not None:
                out.append(raw)
            else:
                _enc_vt(out, item)
        else:
            enc = encoders.get(cls)
            if enc is None:
                _enc_fallback(out, item)
            else:
                enc(out, item)


def _enc_tuple(out: List[bytes], value: tuple) -> None:
    n = len(value)
    if n < 128:
        out.append(_TUPLE_HDR[n])
    else:
        out.append(_B_TUPLE)
        _append_uvarint(out, n)
    if n:
        _enc_items(out, value)


def _enc_list(out: List[bytes], value: list) -> None:
    n = len(value)
    if n < 128:
        out.append(_LIST_HDR[n])
    else:
        out.append(_B_LIST)
        _append_uvarint(out, n)
    if n:
        _enc_items(out, value)


def _enc_dict(out: List[bytes], value: dict) -> None:
    # Canonical order: entries sorted by their encoded key bytes, so two
    # equal dicts always encode identically.  (Keys with equal encodings
    # would decode equal, hence be the same key — sorting the (key, value)
    # byte pairs matches the reference codec exactly.)
    n = len(value)
    if n < 128:
        out.append(_DICT_HDR[n])
    else:
        out.append(_B_DICT)
        _append_uvarint(out, n)
    if n == 0:
        return
    if n == 1:
        ((key, val),) = value.items()
        _enc_value(out, key)
        _enc_value(out, val)
        return
    entries = []
    for key, val in value.items():
        kparts: List[bytes] = []
        _enc_value(kparts, key)
        vparts: List[bytes] = []
        _enc_value(vparts, val)
        entries.append((b"".join(kparts), b"".join(vparts)))
    entries.sort()
    for kbytes, vbytes in entries:
        out.append(kbytes)
        out.append(vbytes)


def _enc_frozenset(out: List[bytes], value: frozenset) -> None:
    # Canonical order: elements sorted by their encoded bytes.
    n = len(value)
    if n < 128:
        out.append(_FROZENSET_HDR[n])
    else:
        out.append(_B_FROZENSET)
        _append_uvarint(out, n)
    if n == 0:
        return
    items = []
    for item in value:
        parts: List[bytes] = []
        _enc_value(parts, item)
        items.append(b"".join(parts))
    items.sort()
    out.extend(items)


def _enc_fallback(out: List[bytes], value: Any) -> None:
    """Subclasses and unregistered types: the reference isinstance chain."""
    if value is None:
        out.append(_B_NONE)
    elif value is True:
        out.append(_B_TRUE)
    elif value is False:
        out.append(_B_FALSE)
    elif isinstance(value, VirtualTime):
        _enc_vt(out, value)
    elif isinstance(value, int):  # after bool/VT checks
        _enc_int(out, value)
    elif isinstance(value, float):
        _enc_float(out, value)
    elif isinstance(value, str):
        _enc_str(out, value)
    elif isinstance(value, bytes):
        _enc_bytes(out, value)
    elif isinstance(value, tuple):
        _enc_tuple(out, value)
    elif isinstance(value, list):
        _enc_list(out, value)
    elif isinstance(value, dict):
        _enc_dict(out, value)
    elif isinstance(value, frozenset):
        _enc_frozenset(out, value)
    else:
        entry = _STRUCTS_BY_CLASS.get(type(value))
        if entry is None:
            raise WireError(
                f"{type(value).__name__} is not wire-encodable; register it "
                "with repro.wire.register_struct"
            )
        _ENCODERS[type(value)](out, value)


_ENCODERS[type(None)] = _enc_none
_ENCODERS[bool] = _enc_bool
_ENCODERS[int] = _enc_int
_ENCODERS[float] = _enc_float
_ENCODERS[str] = _enc_str
_ENCODERS[bytes] = _enc_bytes
_ENCODERS[tuple] = _enc_tuple
_ENCODERS[list] = _enc_list
_ENCODERS[dict] = _enc_dict
_ENCODERS[frozenset] = _enc_frozenset
_ENCODERS[VirtualTime] = _enc_vt


# ---------------------------------------------------------------------------
# Primitive decoders — each takes (buf, pos past the tag byte) and returns
# (value, new pos).  buf is bytes or a memoryview; out-of-range reads raise
# IndexError, converted to WireError at the decode() boundary.
# ---------------------------------------------------------------------------


def _dec_none(data: Any, pos: int) -> Tuple[None, int]:
    return None, pos


def _dec_true(data: Any, pos: int) -> Tuple[bool, int]:
    return True, pos


def _dec_false(data: Any, pos: int) -> Tuple[bool, int]:
    return False, pos


def _dec_int(data: Any, pos: int) -> Tuple[int, int]:
    raw = data[pos]
    pos += 1
    if raw >= 0x80:
        raw &= 0x7F
        shift = 7
        while True:
            byte = data[pos]
            pos += 1
            raw |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift >= _VARINT_MAX_SHIFT:
                raise WireError(f"varint longer than {_VARINT_MAX_BYTES} bytes")
    return ((raw >> 1) if not raw & 1 else -((raw + 1) >> 1)), pos


def _dec_float(data: Any, pos: int) -> Tuple[float, int]:
    if pos + 8 > len(data):
        raise WireError("truncated float")
    return _UNPACK_D(data, pos)[0], pos + 8


def _dec_str(data: Any, pos: int) -> Tuple[str, int]:
    n = data[pos]
    if n < 0x80:
        pos += 1
    else:
        n, pos = _read_uvarint(data, pos)
    end = pos + n
    if end > len(data):
        raise WireError("truncated string")
    raw = data[pos:end]
    if n <= _STR_INTERN_MAX_LEN:
        # Short strings are site/object uids and op kinds that repeat across
        # a collaboration's whole message stream — intern them so repeated
        # decodes share one object (and skip the UTF-8 decode on a hit).
        # memoryview slices hash/compare like their bytes, so lookups stay
        # zero-copy; only a cache miss materializes the key.
        cached = _STR_CACHE.get(raw)
        if cached is not None:
            return cached, end
        text = sys.intern(str(raw, "utf-8"))
        if len(_STR_CACHE) >= _STR_CACHE_MAX:
            _STR_CACHE.clear()
        _STR_CACHE[bytes(raw)] = text
        return text, end
    return str(raw, "utf-8"), end


def _dec_bytes(data: Any, pos: int) -> Tuple[bytes, int]:
    n, pos = _read_uvarint(data, pos)
    end = pos + n
    if end > len(data):
        raise WireError("truncated bytes")
    return bytes(data[pos:end]), end


def _dec_items(data: Any, pos: int, n: int) -> Tuple[list, int]:
    """Shared element loop for tuples, lists and struct fields, mirroring
    :func:`_enc_items`: single-byte ints and virtual times decode inline."""
    decoders = _DECODERS
    items = []
    append = items.append
    for _ in range(n):
        tag = data[pos]
        if tag == 0x03:
            z = data[pos + 1]
            if z < 0x80:
                item = (z >> 1) if not z & 1 else -((z + 1) >> 1)
                pos += 2
            else:
                item, pos = _dec_int(data, pos + 1)
        elif tag == 0x0B:
            item, pos = _dec_vt(data, pos + 1)
        else:
            fn = decoders[tag]
            if fn is None:
                raise WireError(f"unknown wire tag {tag:#x}")
            item, pos = fn(data, pos + 1)
        append(item)
    return items, pos


def _dec_tuple(data: Any, pos: int) -> Tuple[tuple, int]:
    n = data[pos]
    if n < 0x80:
        pos += 1
    else:
        n, pos = _read_uvarint(data, pos)
    if not n:
        return (), pos
    items, pos = _dec_items(data, pos, n)
    return tuple(items), pos


def _dec_list(data: Any, pos: int) -> Tuple[list, int]:
    n = data[pos]
    if n < 0x80:
        pos += 1
    else:
        n, pos = _read_uvarint(data, pos)
    if not n:
        return [], pos
    return _dec_items(data, pos, n)


def _dec_dict(data: Any, pos: int) -> Tuple[dict, int]:
    n, pos = _read_uvarint(data, pos)
    decoders = _DECODERS
    mapping = {}
    for _ in range(n):
        fn = decoders[data[pos]]
        if fn is None:
            raise WireError(f"unknown wire tag {data[pos]:#x}")
        key, pos = fn(data, pos + 1)
        fn = decoders[data[pos]]
        if fn is None:
            raise WireError(f"unknown wire tag {data[pos]:#x}")
        val, pos = fn(data, pos + 1)
        mapping[key] = val
    return mapping, pos


def _dec_frozenset(data: Any, pos: int) -> Tuple[frozenset, int]:
    n, pos = _read_uvarint(data, pos)
    decoders = _DECODERS
    elems = []
    append = elems.append
    for _ in range(n):
        fn = decoders[data[pos]]
        if fn is None:
            raise WireError(f"unknown wire tag {data[pos]:#x}")
        item, pos = fn(data, pos + 1)
        append(item)
    fs = frozenset(elems)
    if len(fs) != n:
        raise WireError("frozenset payload contains duplicate elements")
    return fs, pos


def _dec_vt(data: Any, pos: int) -> Tuple[VirtualTime, int]:
    # The cache is keyed on the raw zigzag varint values (bijective with
    # (counter, site)), so the hit path never un-zigzags at all.
    z1 = data[pos]
    if z1 < 0x80:
        pos += 1
    else:
        z1, pos = _read_uvarint(data, pos)
    z2 = data[pos]
    if z2 < 0x80:
        pos += 1
    else:
        z2, pos = _read_uvarint(data, pos)
    key: Any = z1 * 128 + z2 if z1 < 0x80 and z2 < 0x80 else (z1, z2)
    vt = _VT_CACHE.get(key)
    if vt is None:
        if len(_VT_CACHE) >= _VT_CACHE_MAX:
            _VT_CACHE.clear()
        vt = VirtualTime(
            (z1 >> 1) if not z1 & 1 else -((z1 + 1) >> 1),
            (z2 >> 1) if not z2 & 1 else -((z2 + 1) >> 1),
        )
        if z1 < 0x80 and z2 < 0x80:
            # Single-byte varints are canonical: remember the encoding so
            # re-encoding this VT (fan out, relays) is a cached append from
            # the start.
            _remember_vt_wire(vt, bytes((_T_VT, z1, z2)))
        _VT_CACHE[key] = vt
    return vt, pos


def _dec_any(data: Any, pos: int) -> Tuple[Any, int]:
    """Decode one value of unknown type: table dispatch on the tag byte."""
    fn = _DECODERS[data[pos]]
    if fn is None:
        raise WireError(f"unknown wire tag {data[pos]:#x}")
    return fn(data, pos + 1)


_DECODERS[_T_NONE] = _dec_none
_DECODERS[_T_TRUE] = _dec_true
_DECODERS[_T_FALSE] = _dec_false
_DECODERS[_T_INT] = _dec_int
_DECODERS[_T_FLOAT] = _dec_float
_DECODERS[_T_STR] = _dec_str
_DECODERS[_T_BYTES] = _dec_bytes
_DECODERS[_T_TUPLE] = _dec_tuple
_DECODERS[_T_LIST] = _dec_list
_DECODERS[_T_DICT] = _dec_dict
_DECODERS[_T_FROZENSET] = _dec_frozenset
_DECODERS[_T_VT] = _dec_vt


# ---------------------------------------------------------------------------
# Structs: the tag byte, then the fields in declaration order through the
# element loops tuples use (small ints and virtual times inline, everything
# else by the type and tag tables above)
# ---------------------------------------------------------------------------


def _plain_init_dataclass(cls: type) -> bool:
    """True when ``cls(*values)`` only assigns fields — i.e. the generated
    ``__init__`` with no ``__post_init__`` hook — so the decoder may build
    instances directly without skipping any validation."""
    params = getattr(cls, "__dataclass_params__", None)
    return (
        params is not None
        and params.init
        and not hasattr(cls, "__post_init__")
        and "__slots__" not in cls.__dict__
    )


def _struct_encoder(tag: int, fields: Tuple[str, ...]) -> Callable[[List[bytes], Any], None]:
    head = _BYTE[tag]
    if len(fields) == 1:  # attrgetter returns the bare value for one name
        field = operator.attrgetter(fields[0])

        def _pack(out: List[bytes], value: Any) -> None:
            out.append(head)
            _enc_value(out, field(value))

    else:
        values = operator.attrgetter(*fields) if fields else lambda value: ()

        def _pack(out: List[bytes], value: Any) -> None:
            out.append(head)
            _enc_items(out, values(value))

    return _pack


def _struct_decoder(cls: type, fields: Tuple[str, ...]) -> Callable[[Any, int], Tuple[Any, int]]:
    """Plain dataclasses are built by swapping in the instance ``__dict__``
    — the constructor's result at a fraction of its cost.  Classes with
    invariants (e.g. :class:`ReplicationGraph`) go through ``cls(*values)``
    so their validation runs, and its failures surface as
    :class:`WireError`."""
    n = len(fields)
    if not _plain_init_dataclass(cls):

        def _unpack(data: Any, pos: int) -> Tuple[Any, int]:
            values, pos = _dec_items(data, pos, n)
            try:
                return cls(*values), pos
            except Exception as exc:
                raise WireError(f"invalid {cls.__name__} payload: {exc}") from exc

        return _unpack
    # The nearest ``__dict__`` descriptor, called directly: the frozen
    # dataclass ``__setattr__`` refuses even ``__dict__``.
    set_dict = next(vars(k)["__dict__"] for k in cls.__mro__ if "__dict__" in vars(k)).__set__
    new = object.__new__

    def _unpack(data: Any, pos: int) -> Tuple[Any, int]:
        values, pos = _dec_items(data, pos, n)
        value = new(cls)
        set_dict(value, dict(zip(fields, values)))
        return value, pos

    return _unpack


def register_struct(tag: int, cls: type) -> None:
    """Enter a frozen dataclass into the wire registry under ``tag``.

    The encoding is the tag byte followed by the field values in dataclass
    declaration order; decode reconstructs via the positional constructor.
    Tags below 0x20 are reserved for codec primitives.  Registering the
    same (tag, class) pair twice is a no-op; conflicting registrations are
    an error — tags are a wire contract, not a runtime convenience.
    """
    if not 0x20 <= tag <= 0xFF:
        raise WireError(f"struct tags must be in [0x20, 0xFF], got {tag:#x}")
    if not dataclasses.is_dataclass(cls):
        raise WireError(f"{cls.__name__} is not a dataclass")
    fields = tuple(f.name for f in dataclasses.fields(cls))
    existing = _STRUCTS_BY_TAG.get(tag)
    if existing is not None:
        if existing[0] is cls:
            return
        raise WireError(
            f"wire tag {tag:#x} already registered for {existing[0].__name__}"
        )
    if cls in _STRUCTS_BY_CLASS:
        raise WireError(
            f"{cls.__name__} already registered under tag {_STRUCTS_BY_CLASS[cls][0]:#x}"
        )
    _STRUCTS_BY_TAG[tag] = (cls, fields)
    _STRUCTS_BY_CLASS[cls] = (tag, fields)
    _ENCODERS[cls] = _struct_encoder(tag, fields)
    _DECODERS[tag] = _struct_decoder(cls, fields)


#: The canonical tag assignments.  Order and values are part of the wire
#: contract (docs/WIRE.md); append new structs, never renumber.
@dataclasses.dataclass(frozen=True)
class TraceContext:
    """Trace context carried in a frame's optional trace field.

    ``origin`` is the sending site (tenant-local, like the frame's ``src``);
    ``trace_id`` is the txn-VT-derived trace identifier (``counter@site``
    form, empty when the payload carries no transaction VT);
    ``parent_span`` is the sending *process's* message sequence number —
    ``f"{origin}:{parent_span}"`` is the cross-process ``msg_id`` that
    pairs a ``message_sent`` event in one process's timeline with the
    ``message_delivered`` event in another's (repro.obs.merge).

    ``sampled`` carries the origin's head-based sampling decision in-band
    (repro.obs.sample): every site on the transaction's path records or
    skips the same trace, so partial span trees cannot occur.
    """

    origin: int
    trace_id: str
    parent_span: int
    sampled: bool = True

    @property
    def msg_id(self) -> str:
        """The globally unique send identifier this context names."""
        return f"{self.origin}:{self.parent_span}"


_REGISTRY: Tuple[Tuple[int, type], ...] = (
    (0x20, SlotId),
    (0x21, PathStep),
    (0x22, OpPayload),
    (0x23, WriteOp),
    (0x24, ReadCheck),
    (0x25, DelegateGrant),
    (0x26, TxnPropagateMsg),
    (0x27, ConfirmMsg),
    (0x28, CommitMsg),
    (0x29, AbortMsg),
    (0x2A, SnapshotCheck),
    (0x2B, SnapshotConfirmMsg),
    (0x2C, SnapshotReplyMsg),
    # 0x2D is retired (the eager write-confirmation broadcast); not reused, so
    # every other tag and golden byte stays put.
    (0x2E, JoinRequestMsg),
    (0x2F, JoinReplyMsg),
    (0x30, FailQueryMsg),
    (0x31, FailQueryReplyMsg),
    (0x32, FailResolutionMsg),
    # 0x33-0x35 are retired (the graph-repair consensus round, now carried
    # by FailResolutionMsg); not reused.
    (0x36, GraphNode),
    (0x37, ReplicationGraph),
    (0x38, Invitation),
    (0x39, Envelope),
    (0x3A, TraceContext),
)

for _tag, _cls in _REGISTRY:
    register_struct(_tag, _cls)

#: The TraceContext packer, bound once — encode_frame appends a trace
#: header per traced frame, so it skips the dispatch-dict lookup.
_TRACE_ENCODER = _ENCODERS[TraceContext]

#: Every registered wire struct, in tag order (test parametrization).
WIRE_STRUCTS: Tuple[type, ...] = tuple(cls for _tag, cls in _REGISTRY)

#: The protocol message types a transport may be handed (excludes the
#: nested payload structs that only ever appear inside other messages).
MESSAGE_TYPES: Tuple[type, ...] = (
    TxnPropagateMsg,
    ConfirmMsg,
    CommitMsg,
    AbortMsg,
    SnapshotConfirmMsg,
    SnapshotReplyMsg,
    JoinRequestMsg,
    JoinReplyMsg,
    FailQueryMsg,
    FailQueryReplyMsg,
    FailResolutionMsg,
    Envelope,
)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

_VERSION_PREFIX = _BYTE[WIRE_VERSION]


def encode(value: Any) -> bytes:
    """Serialize ``value`` (a protocol message or wire-safe value) to bytes."""
    out: List[bytes] = [_VERSION_PREFIX]
    enc = _ENCODERS.get(value.__class__)
    if enc is None:
        _enc_fallback(out, value)
    else:
        enc(out, value)
    return b"".join(out)


def _decode_tagged(data: Any) -> Any:
    """Parse the one tagged value after ``data``'s leading version byte.

    Shared by :func:`decode` and :func:`decode_frame`, which differ only
    in the version byte they accept: any malformed-input shape surfaces
    as :class:`WireError`, and trailing bytes are rejected.
    """
    try:
        fn = _DECODERS[data[1]]
        if fn is None:
            raise WireError(f"unknown wire tag {data[1]:#x}")
        value, pos = fn(data, 2)
    except WireError:
        raise
    except Exception as exc:
        # Truncation (IndexError), bad floats (struct.error), invalid UTF-8,
        # unhashable keys (TypeError), pathological nesting (RecursionError):
        # all malformed-input shapes surface as WireError.
        raise WireError(f"malformed payload: {exc.__class__.__name__}: {exc}") from exc
    if pos != len(data):
        raise WireError(f"{len(data) - pos} trailing bytes after payload")
    return value


def decode(data: Any) -> Any:
    """Parse bytes produced by :func:`encode`; rejects unknown versions,
    unknown tags, truncated payloads, and trailing garbage.

    Accepts ``bytes`` or any buffer (``memoryview``/``bytearray``) — buffer
    inputs are consumed in place, without copying the payload.  Malformed
    input of any shape raises :class:`WireError`; no other exception type
    escapes this boundary.
    """
    if not data:
        raise WireError("empty payload")
    if data.__class__ is not bytes and data.__class__ is not memoryview:
        data = memoryview(data)
    if data[0] != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {data[0]} (this codec speaks {WIRE_VERSION})"
        )
    return _decode_tagged(data)


# ---------------------------------------------------------------------------
# Framing (length-prefixed, for stream transports)
# ---------------------------------------------------------------------------

#: Size of the frame length prefix in bytes (big-endian unsigned).
FRAME_HEADER_BYTES = 4

#: Upper bound on a single frame body.  A frame claiming more than this is
#: treated as stream corruption, not a legitimate payload.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Shared prefix of every frame body: version byte + 5-tuple header.
_FRAME_PREFIX = _BYTE[FRAME_VERSION] + _TUPLE_HDR[5]


def encode_frame(
    src: int,
    dst: int,
    payload: Any,
    trace: Optional[TraceContext] = None,
    tenant: int = 0,
) -> bytes:
    """One length-prefixed routed frame.

    The body is the ``FRAME_VERSION`` byte followed by the
    ``(tenant, src, dst, payload, trace-or-None)`` 5-tuple; tenant 0 (a
    bare session) is encoded like any other tenant.  The length prefix,
    version byte, routing fields, and payload all land in one parts list
    joined once — a single allocation per frame.
    """
    parts: List[bytes] = [b"", _FRAME_PREFIX]
    _enc_int(parts, tenant)
    _enc_int(parts, src)
    _enc_int(parts, dst)
    enc = _ENCODERS.get(payload.__class__)
    if enc is None:
        _enc_fallback(parts, payload)
    else:
        enc(parts, payload)
    if trace is None:
        parts.append(_B_NONE)
    else:
        _TRACE_ENCODER(parts, trace)
    body_len = sum(map(len, parts))
    if body_len > MAX_FRAME_BYTES:
        raise WireError(f"frame of {body_len} bytes exceeds MAX_FRAME_BYTES")
    parts[0] = body_len.to_bytes(FRAME_HEADER_BYTES, "big")
    return b"".join(parts)


def decode_frame(body: Any) -> Tuple[int, int, int, Any, Optional[TraceContext]]:
    """Parse a frame body into ``(tenant, src, dst, payload, trace)``.

    Like :func:`decode`, accepts ``bytes`` or a zero-copy buffer view, and
    malformed input of any shape raises :class:`WireError` only.
    """
    if not body:
        raise WireError("empty frame body")
    if body.__class__ is not bytes and body.__class__ is not memoryview:
        body = memoryview(body)
    if body[0] != FRAME_VERSION:
        raise WireError(
            f"unsupported frame version {body[0]} (this codec speaks {FRAME_VERSION})"
        )
    value = _decode_tagged(body)
    # ``__class__ is int`` rather than isinstance: a decoded bool is not
    # a routing id.
    if (
        value.__class__ is not tuple
        or len(value) != 5
        or value[0].__class__ is not int
        or value[1].__class__ is not int
        or value[2].__class__ is not int
        or not (value[4] is None or value[4].__class__ is TraceContext)
    ):
        raise WireError(
            "frame body is not a (tenant, src, dst, payload, trace) 5-tuple"
        )
    if value[0] < 0:
        raise WireError(f"frame carries negative tenant id {value[0]}")
    return value
