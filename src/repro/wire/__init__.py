"""Wire format for the DECAF message plane.

:mod:`repro.wire.codec` — deterministic, versioned binary codec for every
protocol message, one exact-type table with one generic packer per
registered struct; :mod:`repro.wire.batch` — per-destination
outbox that coalesces a protocol turn's fan-out into
:class:`~repro.core.messages.Envelope` frames.
"""

from repro.wire.codec import (
    FRAME_HEADER_BYTES,
    FRAME_VERSION,
    MAX_FRAME_BYTES,
    MESSAGE_TYPES,
    TraceContext,
    WIRE_STRUCTS,
    WIRE_VERSION,
    decode,
    decode_frame,
    encode,
    encode_frame,
    register_struct,
)
from repro.wire.batch import Outbox

__all__ = [
    "FRAME_HEADER_BYTES",
    "FRAME_VERSION",
    "MAX_FRAME_BYTES",
    "MESSAGE_TYPES",
    "TraceContext",
    "WIRE_STRUCTS",
    "WIRE_VERSION",
    "decode",
    "decode_frame",
    "encode",
    "encode_frame",
    "register_struct",
    "Outbox",
]
