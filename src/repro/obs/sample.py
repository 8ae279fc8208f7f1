"""Deterministic head-based trace sampling.

At scale the tracing plane from docs/OBSERVABILITY.md cannot record every
message: an unbounded JSONL timeline per process does not survive
millions-of-users traffic.  The standard fix (Dapper; the OpenTelemetry
``TraceIdRatioBased`` sampler) is *head-based consistent sampling*: the
origin site decides once per trace — by hashing the trace id against a
configured rate — and the decision travels in-band with every message of
that trace (the ``sampled`` flag on
:class:`repro.wire.codec.TraceContext`), so every site on the
transaction's path records or skips the *same* transaction and a
1%-sampled run still merges into complete span trees
(:mod:`repro.obs.merge`).

The hash is SHA-256 of ``salt + trace_id`` — deterministic across
processes, platforms, and Python's per-process ``PYTHONHASHSEED`` (the
builtin ``hash()`` is salted and would break cross-process consistency).
Trace ids are the transaction's origin virtual time (``counter@site``),
so the decision is a pure function of the transaction identity: two
replicas deciding independently always agree, and replaying a recorded
run samples the identical subset.

Control-plane messages carry an empty trace id (no transaction VT) and
are always sampled: joins, failure resolution, and graph repair are
low-volume and high-value, so visibility into them is never traded away.
"""

from __future__ import annotations

import hashlib
from typing import Dict

__all__ = ["TraceSampler", "sample_decision"]

_HASH_SPACE = 1 << 64


def sample_decision(trace_id: str, rate: float, salt: str = "") -> bool:
    """The pure sampling function: hash(salt + trace_id) < rate.

    Empty trace ids (control-plane messages) are always sampled.  The
    top 8 bytes of the SHA-256 digest, read big-endian, are uniform on
    [0, 2**64); comparing against ``rate * 2**64`` keeps the sampled
    fraction within one part in 2**64 of the configured rate.
    """
    if not trace_id:
        return True
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    digest = hashlib.sha256((salt + trace_id).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") < int(rate * _HASH_SPACE)


class TraceSampler:
    """Head-based sampler a :class:`~repro.transport.tcp.TcpTransport` consults.

    ``rate`` is the sampled fraction in [0, 1].  ``salt`` varies which
    trace ids land in the sample without changing the rate (useful when
    comparing two sampled runs of the same workload).  A transport with
    no sampler behaves as before: every traced frame is recorded.

    ``record_dropped`` is a debug aid: when true, the sender still emits
    a ``message_sent`` event for head-dropped traces with
    ``"sampled": False`` in its data, so a timeline shows *that* traffic
    existed without recording its deliveries.  ``repro trace --merge``
    tallies such sends as ``sampled_out`` instead of unmatched edges.
    The default (False) emits nothing for dropped traces — the
    bounded-cost configuration (``tests/test_sampling.py`` counts the
    shed sends; ``obs.overhead_ratio`` on ``tcp_turn_observed`` prices it).

    Decisions are memoized per trace id (a transaction sends many frames;
    the hash is computed once).  The memo is bounded and its eviction is
    deterministic — dropping a memo entry never changes a decision, only
    re-derives it.
    """

    __slots__ = ("rate", "salt", "record_dropped", "_threshold", "_memo", "_memo_cap")

    def __init__(
        self,
        rate: float,
        salt: str = "",
        record_dropped: bool = False,
        memo_size: int = 4096,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.rate = float(rate)
        self.salt = salt
        self.record_dropped = record_dropped
        self._threshold = int(self.rate * _HASH_SPACE)
        self._memo: Dict[str, bool] = {}
        self._memo_cap = memo_size

    def sample(self, trace_id: str) -> bool:
        """Decide (or recall) whether ``trace_id`` is sampled."""
        if not trace_id:
            return True
        if self._threshold >= _HASH_SPACE:
            return True
        if self._threshold == 0:
            return False
        decision = self._memo.get(trace_id)
        if decision is None:
            digest = hashlib.sha256((self.salt + trace_id).encode("utf-8")).digest()
            decision = int.from_bytes(digest[:8], "big") < self._threshold
            if len(self._memo) >= self._memo_cap:
                self._memo.clear()
            self._memo[trace_id] = decision
        return decision

    def __repr__(self) -> str:
        return f"TraceSampler(rate={self.rate}, salt={self.salt!r})"
