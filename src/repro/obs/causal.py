"""Offline causal analysis over recorded protocol timelines.

Three analyses, all derived purely from :class:`~repro.obs.events.ProtocolEvent`
streams (live bus recordings or timelines re-loaded from explorer violation
artifacts):

* :class:`CausalGraph` — the cross-site **happens-before DAG**: same-site
  program order plus message send→deliver edges (paired by the network's
  ``msg_id``).  Reachability over this graph *is* Lamport happens-before
  for the recorded run, which lets tests validate a causal chain
  edge-by-edge against the actual message timeline.
* :func:`commit_critical_paths` — **critical-path attribution**: each
  committed transaction's end-to-end latency decomposed into
  ``submit_fanout`` (local execution + local primary checks), ``transit``
  (fan-out send → propagate delivery at the deciding primary),
  ``validate`` (delivery → primary validation), and ``ack`` (validation →
  summary resolution).  The four segments are built as a monotone chain of
  marks between submit and resolution, so they always sum *exactly* to the
  span's ``duration_ms`` — missing marks collapse to zero-length segments
  instead of breaking the identity.
* :class:`GuessGraph` — the **guess-dependency graph**: one node per
  transaction VT, one edge per RC/RL/NC guess on another transaction's
  (uncommitted or conflicting) state, taken from ``guess_made``
  ``depends_on`` fields and from the guessed-against VT sets carried on
  ``validated`` denial events.  ``dependency_chain`` walks the transitive
  closure — the cascade that explains an abort or a straggler — and the
  graph exports as DOT and JSONL.

Everything is deterministic: inputs are seq-ordered event streams, all
iteration orders are explicit, and every serialization sorts its keys, so
a given seed produces byte-identical reports.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.events import ProtocolEvent, event_to_dict
from repro.obs.spans import TxnSpan, build_spans, origin_resolution
from repro.vtime import VirtualTime

#: Critical-path segment names, in causal order.  Ties in the dominant-hop
#: computation resolve to the earliest segment in this order.
SEGMENTS: Tuple[str, ...] = ("submit_fanout", "transit", "validate", "ack")

_VT_RE = re.compile(r"^VT\((-?\d+)@(-?\d+)\)$")
_OBJ_RE = re.compile(r" denied on (\S+?)(?=: |$)")


def parse_vt(token: Any) -> Optional[VirtualTime]:
    """A :class:`VirtualTime` from a live VT or its ``VT(c@s)`` string form.

    Returns None for anything else (e.g. snapshot-reservation owners),
    letting analyzers accept live event streams and re-loaded JSON
    timelines interchangeably.
    """
    if isinstance(token, VirtualTime):
        return token
    if isinstance(token, str):
        match = _VT_RE.match(token)
        if match:
            return VirtualTime(int(match.group(1)), int(match.group(2)))
    return None


def normalize_events(events: Iterable[ProtocolEvent]) -> List[ProtocolEvent]:
    """Seq-sort and round event times to export precision (6 decimals).

    :func:`~repro.obs.events.event_to_dict` rounds ``time_ms`` on export,
    so a timeline reloaded from JSON differs from the live stream by up to
    one ulp at the sixth decimal.  Every analysis entry point normalizes
    through here first, making live and re-imported timelines analyze
    byte-identically.
    """
    out = [
        e if e.time_ms == round(e.time_ms, 6) else e._replace(time_ms=round(e.time_ms, 6))
        for e in events
    ]
    out.sort(key=lambda e: e.seq)
    return out


def events_from_timeline(timeline: Iterable[Dict[str, Any]]) -> List[ProtocolEvent]:
    """Rebuild :class:`ProtocolEvent` objects from an exported timeline.

    Inverse of :func:`~repro.obs.events.event_to_dict` up to data-value
    stringification: ``txn_vt`` is parsed back into a :class:`VirtualTime`;
    data payloads keep their exported (JSON-safe) values, which
    :func:`parse_vt` re-interprets where a VT is expected.
    """
    events: List[ProtocolEvent] = []
    for entry in timeline:
        events.append(
            ProtocolEvent(
                seq=int(entry["seq"]),
                time_ms=float(entry["time_ms"]),
                site=int(entry["site"]),
                kind=str(entry["kind"]),
                txn_vt=parse_vt(entry.get("txn_vt")),
                data=dict(entry.get("data", {})),
            )
        )
    events.sort(key=lambda e: e.seq)
    return events


# ---------------------------------------------------------------------------
# Happens-before DAG
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HBEdge:
    """One happens-before edge between two recorded events (by ``seq``).

    ``kind`` is ``"program"`` (same-site order) or ``"message"`` (a
    ``message_sent`` → ``message_delivered`` pair sharing a ``msg_id``).
    """

    src: int
    dst: int
    kind: str
    label: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"src": self.src, "dst": self.dst, "kind": self.kind, "label": self.label}


class CausalGraph:
    """The happens-before DAG of one recorded timeline.

    Nodes are events (keyed by their bus ``seq``); edges are same-site
    program order plus message delivery edges.  Because the bus records in
    scheduler order, ``seq`` is a topological order of the DAG — every
    edge goes from a smaller to a larger seq — which both bounds the
    reachability search and guarantees acyclicity by construction.
    """

    def __init__(self, events: Sequence[ProtocolEvent]) -> None:
        self.events: List[ProtocolEvent] = sorted(events, key=lambda e: e.seq)
        self.by_seq: Dict[int, ProtocolEvent] = {e.seq: e for e in self.events}
        self.edges: List[HBEdge] = []
        self._succ: Dict[int, List[int]] = {}
        self._pred: Dict[int, List[int]] = {}
        self._build()

    # -- construction ----------------------------------------------------

    def _add_edge(self, src: int, dst: int, kind: str, label: str = "") -> None:
        if src == dst:
            return
        self.edges.append(HBEdge(src=src, dst=dst, kind=kind, label=label))
        self._succ.setdefault(src, []).append(dst)
        self._pred.setdefault(dst, []).append(src)

    def _build(self) -> None:
        last_at_site: Dict[int, int] = {}
        # msg_id is keyed as a string: the simulator uses bare ints, the
        # real transports "origin:seq" — str() unifies live and merged
        # timelines without caring which plane produced them.
        sends_by_msg_id: Dict[str, int] = {}
        for event in self.events:
            prev = last_at_site.get(event.site)
            if prev is not None:
                self._add_edge(prev, event.seq, "program")
            last_at_site[event.site] = event.seq
            msg_id = event.data.get("msg_id")
            if msg_id is None:
                continue
            if event.kind == "message_sent":
                sends_by_msg_id[str(msg_id)] = event.seq
            elif event.kind == "message_delivered":
                send_seq = sends_by_msg_id.get(str(msg_id))
                if send_seq is not None:
                    self._add_edge(
                        send_seq,
                        event.seq,
                        "message",
                        label=str(event.data.get("msg_type", "")),
                    )

    # -- queries ---------------------------------------------------------

    def successors(self, seq: int) -> List[int]:
        return list(self._succ.get(seq, ()))

    def predecessors(self, seq: int) -> List[int]:
        return list(self._pred.get(seq, ()))

    def happens_before(self, a_seq: int, b_seq: int) -> bool:
        """True iff event ``a`` causally precedes event ``b`` in this run."""
        if a_seq == b_seq:
            return False
        if a_seq > b_seq:  # seq is a topological order: edges only go forward
            return False
        frontier = [a_seq]
        seen = {a_seq}
        while frontier:
            node = frontier.pop()
            for succ in self._succ.get(node, ()):
                if succ == b_seq:
                    return True
                if succ < b_seq and succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        return False

    def path(self, a_seq: int, b_seq: int) -> Optional[List[HBEdge]]:
        """A shortest happens-before path from ``a`` to ``b`` (None if
        concurrent).  Deterministic: BFS visits successors in insertion
        order, which is seq order of edge creation."""
        if a_seq >= b_seq:
            return None
        edge_by_pair = {(e.src, e.dst): e for e in self.edges}
        parents: Dict[int, int] = {}
        frontier = [a_seq]
        seen = {a_seq}
        while frontier:
            next_frontier: List[int] = []
            for node in frontier:
                for succ in self._succ.get(node, ()):
                    if succ > b_seq or succ in seen:
                        continue
                    seen.add(succ)
                    parents[succ] = node
                    if succ == b_seq:
                        hops: List[HBEdge] = []
                        cur = b_seq
                        while cur != a_seq:
                            prev = parents[cur]
                            hops.append(edge_by_pair[(prev, cur)])
                            cur = prev
                        hops.reverse()
                        return hops
                    next_frontier.append(succ)
            frontier = next_frontier
        return None

    def txn_events(self, vt: VirtualTime) -> List[ProtocolEvent]:
        """All recorded events of one transaction, in seq order."""
        return [e for e in self.events if e.txn_vt == vt]

    def txn_chain(self, vt: VirtualTime) -> List[Dict[str, Any]]:
        """The transaction's lifecycle chain, each hop checked against the
        DAG.

        ``connected`` reports whether the recorded message timeline
        contains a happens-before path between consecutive same-VT events,
        and ``via`` lists the hop's edge kinds.  A False ``connected``
        marks genuine concurrency — e.g. a local validation racing a
        remote delivery, or parallel deliveries at two replicas — which is
        expected for fan-out protocols; use :func:`abort_causal_chain` for
        the strictly-causal submit → denial → abort story.
        """
        chain: List[Dict[str, Any]] = []
        events = self.txn_events(vt)
        for prev, cur in zip(events, events[1:]):
            if prev.site == cur.site:
                hops: Optional[List[HBEdge]] = [
                    HBEdge(src=prev.seq, dst=cur.seq, kind="program")
                ]
            else:
                hops = self.path(prev.seq, cur.seq)
            chain.append(
                {
                    "src_seq": prev.seq,
                    "dst_seq": cur.seq,
                    "src": f"{prev.kind}@s{prev.site}",
                    "dst": f"{cur.kind}@s{cur.site}",
                    "connected": hops is not None,
                    "via": [h.kind for h in hops] if hops else [],
                }
            )
        return chain

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {"events": len(self.events)}
        for edge in self.edges:
            out[f"edges_{edge.kind}"] = out.get(f"edges_{edge.kind}", 0) + 1
        return out

    def __repr__(self) -> str:
        return f"CausalGraph({len(self.events)} events, {len(self.edges)} edges)"


def build_causal_graph(events: Sequence[ProtocolEvent]) -> CausalGraph:
    """Construct the happens-before DAG for a recorded timeline."""
    return CausalGraph(events)


def _hop_dicts(graph: CausalGraph, hops: Sequence[HBEdge]) -> List[Dict[str, Any]]:
    out = []
    for hop in hops:
        src, dst = graph.by_seq[hop.src], graph.by_seq[hop.dst]
        out.append(
            {
                "src_seq": hop.src,
                "dst_seq": hop.dst,
                "src": f"{src.kind}@s{src.site}",
                "dst": f"{dst.kind}@s{dst.site}",
                "kind": hop.kind,
                "label": hop.label,
            }
        )
    return out


def abort_causal_chain(graph: CausalGraph, vt: VirtualTime) -> Dict[str, Any]:
    """The strictly-causal happens-before path explaining one abort.

    Walks the DAG from the transaction's submit to the first denial
    (``validated`` with ``ok=False``, when one was recorded) and from the
    denial to the origin-site abort — every hop is a real program-order or
    message edge of the recorded timeline, which is what the conformance
    tests validate edge-by-edge.  Without a denial event (user abort,
    join/membership denial decided off the validated path) the chain runs
    submit → abort directly.
    """
    events = graph.txn_events(vt)
    submit = next((e for e in events if e.kind == "txn_submitted"), None)
    origin_abort = next(
        (e for e in events if e.kind == "aborted" and origin_resolution(e)), None
    )
    denial = next(
        (e for e in events if e.kind == "validated" and not e.data.get("ok", True)),
        None,
    )
    if submit is None or origin_abort is None:
        return {"connected": False, "via_denial": False, "hops": []}
    hops: List[Dict[str, Any]] = []
    connected = True
    waypoints = [submit]
    if denial is not None:
        waypoints.append(denial)
    waypoints.append(origin_abort)
    for a, b in zip(waypoints, waypoints[1:]):
        leg = graph.path(a.seq, b.seq)
        if leg is None:
            connected = False
            continue
        hops.extend(_hop_dicts(graph, leg))
    return {"connected": connected, "via_denial": denial is not None, "hops": hops}


# ---------------------------------------------------------------------------
# Commit critical-path attribution
# ---------------------------------------------------------------------------


@dataclass
class CommitCriticalPath:
    """One committed transaction's latency decomposition.

    ``segments`` maps each name in :data:`SEGMENTS` to a simulated-ms
    duration; by construction ``sum(segments.values()) == duration_ms``
    exactly (the marks form a monotone chain from submit to resolution).
    ``validator_site`` is the site whose primary validation decided the
    transaction (-1 when no remote validation was recorded, e.g. a purely
    local commit).
    """

    vt: VirtualTime
    origin: int
    validator_site: int
    duration_ms: float
    segments: Dict[str, float]
    dominant: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "vt": str(self.vt),
            "origin": self.origin,
            "validator_site": self.validator_site,
            "duration_ms": round(self.duration_ms, 6),
            "segments": {name: round(self.segments[name], 6) for name in SEGMENTS},
            "dominant": self.dominant,
        }


def _first_remote_validated(
    events: Sequence[ProtocolEvent], vt: VirtualTime, origin: int
) -> Optional[ProtocolEvent]:
    for event in events:
        if event.kind == "validated" and event.txn_vt == vt and event.site != origin:
            return event
    return None


def _propagate_delivery_before(
    events: Sequence[ProtocolEvent], vt: VirtualTime, site: int, before_seq: int
) -> Optional[ProtocolEvent]:
    """The latest TxnPropagateMsg delivery at ``site`` preceding the
    validation — the message whose arrival triggered the primary checks."""
    best: Optional[ProtocolEvent] = None
    for event in events:
        if event.seq >= before_seq:
            break
        if (
            event.kind == "message_delivered"
            and event.txn_vt == vt
            and event.site == site
            and event.data.get("msg_type") == "TxnPropagateMsg"
        ):
            best = event
    return best


def commit_critical_paths(
    events: Sequence[ProtocolEvent], spans: Optional[List[TxnSpan]] = None
) -> List[CommitCriticalPath]:
    """Per-committed-VT latency decomposition (see module docstring).

    Only spans with a recorded submit and a ``committed`` resolution are
    attributed; the result is ordered by VT (total Lamport order), so the
    report is stable regardless of event interleaving.
    """
    events = normalize_events(events)
    if spans is None:
        spans = build_spans(events)
    paths: List[CommitCriticalPath] = []
    for span in spans:
        if span.resolution != "committed" or span.submit_ms is None or span.resolved_ms is None:
            continue
        submit, resolved = span.submit_ms, span.resolved_ms
        validated = _first_remote_validated(events, span.vt, span.origin)
        validator_site = validated.site if validated is not None else -1
        deliver = (
            _propagate_delivery_before(events, span.vt, validated.site, validated.seq)
            if validated is not None
            else None
        )
        # Monotone mark chain submit → fanout → deliver → validated →
        # resolved; a missing mark collapses onto its predecessor and every
        # mark is clamped into [predecessor, resolved], so the segment
        # diffs telescope to exactly (resolved - submit).
        marks = [submit]
        for value in (
            span.first_fanout_ms,
            deliver.time_ms if deliver is not None else None,
            validated.time_ms if validated is not None else None,
        ):
            mark = marks[-1] if value is None else value
            marks.append(min(max(mark, marks[-1]), resolved))
        marks.append(max(resolved, marks[-1]))
        segments = {
            name: marks[i + 1] - marks[i] for i, name in enumerate(SEGMENTS)
        }
        dominant = max(SEGMENTS, key=lambda name: (segments[name], -SEGMENTS.index(name)))
        paths.append(
            CommitCriticalPath(
                vt=span.vt,
                origin=span.origin,
                validator_site=validator_site,
                duration_ms=resolved - submit,
                segments=segments,
                dominant=dominant,
            )
        )
    paths.sort(key=lambda p: p.vt.key)
    return paths


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Deterministic nearest-rank percentile over pre-sorted values."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-int(q * len(sorted_values) * 100) // 10000))  # ceil(q*n)
    return sorted_values[min(rank, len(sorted_values)) - 1]


def critical_path_report(
    events: Sequence[ProtocolEvent], spans: Optional[List[TxnSpan]] = None
) -> Dict[str, Any]:
    """Aggregate critical-path statistics across one run.

    The report carries every per-VT decomposition plus, per segment, the
    total/mean/p50/p90/max and the share of summed end-to-end latency, and
    names the dominant hop for the run (the segment with the largest total).
    """
    paths = commit_critical_paths(events, spans)
    total_duration = sum(p.duration_ms for p in paths)
    aggregates: Dict[str, Any] = {}
    for name in SEGMENTS:
        values = sorted(p.segments[name] for p in paths)
        total = sum(values)
        aggregates[name] = {
            "total_ms": round(total, 6),
            "mean_ms": round(total / len(values), 6) if values else 0.0,
            "p50_ms": round(_percentile(values, 0.50), 6),
            "p90_ms": round(_percentile(values, 0.90), 6),
            "max_ms": round(values[-1], 6) if values else 0.0,
            "share_pct": round(100.0 * total / total_duration, 2) if total_duration else 0.0,
            "dominant_in": sum(1 for p in paths if p.dominant == name),
        }
    dominant = max(
        SEGMENTS, key=lambda name: (aggregates[name]["total_ms"], -SEGMENTS.index(name))
    )
    return {
        "format": "repro-causal/1",
        "committed": len(paths),
        "total_duration_ms": round(total_duration, 6),
        "dominant": dominant if paths else None,
        "segments": aggregates,
        "per_txn": [p.to_dict() for p in paths],
    }


def format_critical_path_report(report: Dict[str, Any], limit: int = 10) -> str:
    """A byte-stable plain-text rendering of a critical-path report."""
    lines = [
        f"commit critical path: {report['committed']} committed txns, "
        f"total {report['total_duration_ms']:.1f} ms"
    ]
    if not report["committed"]:
        lines.append("  (no committed transactions in this timeline)")
        return "\n".join(lines) + "\n"
    header = f"  {'segment':14s} {'total':>9s} {'share':>7s} {'mean':>8s} {'p50':>8s} {'p90':>8s} {'max':>8s} {'dom#':>5s}"
    lines.append(header)
    for name in SEGMENTS:
        agg = report["segments"][name]
        lines.append(
            f"  {name:14s} {agg['total_ms']:9.1f} {agg['share_pct']:6.1f}% "
            f"{agg['mean_ms']:8.1f} {agg['p50_ms']:8.1f} {agg['p90_ms']:8.1f} "
            f"{agg['max_ms']:8.1f} {agg['dominant_in']:5d}"
        )
    lines.append(f"  dominant hop: {report['dominant']}")
    slowest = sorted(
        report["per_txn"], key=lambda p: (-p["duration_ms"], p["vt"])
    )[:limit]
    if slowest:
        lines.append(f"  slowest {len(slowest)} commits:")
        for entry in slowest:
            segs = " ".join(f"{n}={entry['segments'][n]:.1f}" for n in SEGMENTS)
            lines.append(
                f"    {entry['vt']:12s} dur={entry['duration_ms']:8.1f}  {segs}"
                f"  dominant={entry['dominant']}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Guess-dependency graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GuessEdge:
    """One guess dependency: ``src`` guessed against ``dst``'s state.

    ``guess`` is the guess class (``RC`` — read of uncommitted state;
    ``RL``/``NC`` — denial evidence from a primary's ``validated`` event,
    with ``graph``/``snapshot`` variants).  ``dst`` is a VT string, or a
    ``snap:...`` token when the blocker was a pessimistic snapshot
    reservation rather than a transaction.
    """

    src: str
    dst: str
    guess: str
    obj: str
    site: int
    seq: int
    time_ms: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "src": self.src,
            "dst": self.dst,
            "guess": self.guess,
            "obj": self.obj,
            "site": self.site,
            "seq": self.seq,
            "time_ms": round(self.time_ms, 6),
        }


def _denial_guess_kind(reason: str) -> str:
    if reason.startswith("graph RL"):
        return "RL:graph"
    if reason.startswith("graph NC"):
        return "NC:graph"
    if "snapshot reservation" in reason:
        return "NC:snapshot"
    if reason.startswith("NC"):
        return "NC"
    return "RL"


def _against_token(value: Any) -> str:
    vt = parse_vt(value)
    if vt is not None:
        return str(vt)
    if isinstance(value, (list, tuple)):
        return ":".join(str(v) for v in value)
    return str(value)


class GuessGraph:
    """Guess-dependency graph over one timeline's transactions."""

    def __init__(self, spans: List[TxnSpan], edges: List[GuessEdge]) -> None:
        self.edges = edges
        self.nodes: Dict[str, Dict[str, Any]] = {}
        for span in spans:
            self.nodes[str(span.vt)] = {
                "vt": str(span.vt),
                "origin": span.origin,
                "resolution": span.resolution,
                "abort_reason": span.abort_reason,
                "attempt": span.attempt,
            }
        self._out: Dict[str, List[GuessEdge]] = {}
        for edge in edges:
            self._out.setdefault(edge.src, []).append(edge)
            for endpoint in (edge.src, edge.dst):
                if endpoint not in self.nodes:
                    self.nodes[endpoint] = {
                        "vt": endpoint,
                        "origin": -1,
                        "resolution": None,
                        "abort_reason": None,
                        "attempt": 0,
                    }

    def out_edges(self, vt: Any) -> List[GuessEdge]:
        return list(self._out.get(_against_token(vt), ()))

    def dependency_chain(self, vt: Any) -> List[GuessEdge]:
        """The transitive guess dependencies of ``vt``, breadth-first.

        This is the cascade that explains an abort or a straggler: the
        direct guesses ``vt`` made on other transactions' state, then the
        guesses *those* transactions made, and so on.  Deterministic:
        BFS in edge-seq order, each (src, dst, guess) visited once.
        """
        chain: List[GuessEdge] = []
        seen_edges = set()
        frontier = [_against_token(vt)]
        visited = {frontier[0]}
        while frontier:
            next_frontier: List[str] = []
            for node in frontier:
                for edge in sorted(self._out.get(node, ()), key=lambda e: e.seq):
                    key = (edge.src, edge.dst, edge.guess)
                    if key in seen_edges:
                        continue
                    seen_edges.add(key)
                    chain.append(edge)
                    if edge.dst not in visited:
                        visited.add(edge.dst)
                        next_frontier.append(edge.dst)
            frontier = next_frontier
        return chain

    def cascade_roots(self) -> List[str]:
        """Nodes with dependents but no dependencies of their own — the
        origin transactions straggler cascades emanate from."""
        has_in = {e.dst for e in self.edges}
        has_out = {e.src for e in self.edges}
        return sorted(has_in - has_out)

    # -- export ----------------------------------------------------------

    def to_dot(self, root: Any = None) -> str:
        """Graphviz DOT; with ``root`` given, only that VT's cascade."""
        if root is not None:
            edges = self.dependency_chain(root)
        else:
            edges = sorted(self.edges, key=lambda e: e.seq)
        node_names = sorted({e.src for e in edges} | {e.dst for e in edges})
        lines = ["digraph guesses {", "  rankdir=LR;"]
        for name in node_names:
            node = self.nodes.get(name, {})
            resolution = node.get("resolution")
            shape = "box" if name.startswith("snap:") else "ellipse"
            color = {"committed": "green", "aborted": "red"}.get(resolution, "gray")
            lines.append(
                f'  "{name}" [shape={shape}, color={color}, '
                f'label="{name}\\n{resolution or "?"}"];'
            )
        for edge in edges:
            lines.append(
                f'  "{edge.src}" -> "{edge.dst}" '
                f'[label="{edge.guess} {edge.obj}@s{edge.site}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        """One sorted-keys JSON object per edge, in evidence-seq order."""
        lines = [
            json.dumps(e.to_dict(), sort_keys=True)
            for e in sorted(self.edges, key=lambda e: e.seq)
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:
        return f"GuessGraph({len(self.nodes)} nodes, {len(self.edges)} edges)"


def build_guess_graph(
    events: Sequence[ProtocolEvent], spans: Optional[List[TxnSpan]] = None
) -> GuessGraph:
    """Extract the guess-dependency graph from a recorded timeline."""
    events = normalize_events(events)
    if spans is None:
        spans = build_spans(events)
    edges: List[GuessEdge] = []
    seen = set()

    def add(src_vt: Any, dst: str, guess: str, obj: str, event: ProtocolEvent) -> None:
        src = _against_token(src_vt)
        key = (src, dst, guess, obj)
        if src == dst or key in seen:
            return
        seen.add(key)
        edges.append(
            GuessEdge(
                src=src,
                dst=dst,
                guess=guess,
                obj=obj,
                site=event.site,
                seq=event.seq,
                time_ms=event.time_ms,
            )
        )

    for event in events:
        if event.txn_vt is None:
            continue
        if event.kind == "guess_made" and event.data.get("guess") == "RC":
            depends_on = event.data.get("depends_on")
            if depends_on is not None:
                add(
                    event.txn_vt,
                    _against_token(depends_on),
                    "RC",
                    str(event.data.get("obj", "?")),
                    event,
                )
        elif event.kind == "validated" and not event.data.get("ok", True):
            reason = str(event.data.get("reason", ""))
            guess = _denial_guess_kind(reason)
            obj_match = _OBJ_RE.search(reason.rstrip())
            obj = obj_match.group(1) if obj_match else "?"
            for token in event.data.get("against", ()) or ():
                add(event.txn_vt, _against_token(token), guess, obj, event)
    return GuessGraph(spans, edges)


# ---------------------------------------------------------------------------
# One-call timeline analysis (CLI + explorer artifacts)
# ---------------------------------------------------------------------------


def analyze_events(events: Sequence[ProtocolEvent]) -> Dict[str, Any]:
    """The full causal analysis of one timeline, as one stable dict.

    Used by ``repro trace --analyze`` and embedded (minus the DAG itself)
    in explorer violation artifacts: the critical-path report, the
    guess-dependency cascade of every aborted transaction, the lifecycle
    chain of the first abort validated against the happens-before DAG,
    and straggler cascades (the dependency chain behind each
    ``straggler_detected`` event).
    """
    events = normalize_events(events)
    spans = build_spans(events)
    graph = build_causal_graph(events)
    guesses = build_guess_graph(events, spans)
    report = critical_path_report(events, spans)

    aborts: List[Dict[str, Any]] = []
    for span in spans:
        if span.resolution != "aborted":
            continue
        aborts.append(
            {
                "vt": str(span.vt),
                "origin": span.origin,
                "reason": span.abort_reason,
                "aborted_pre_fanout": span.aborted_pre_fanout,
                "guess_chain": [e.to_dict() for e in guesses.dependency_chain(span.vt)],
                "causal_chain": abort_causal_chain(graph, span.vt),
            }
        )
    aborts.sort(key=lambda a: a["vt"])

    stragglers: List[Dict[str, Any]] = []
    for event in events:
        if event.kind != "straggler_detected" or event.txn_vt is None:
            continue
        stragglers.append(
            {
                "seq": event.seq,
                "site": event.site,
                "time_ms": round(event.time_ms, 6),
                "flavor": str(event.data.get("flavor", "?")),
                "vt": str(event.txn_vt),
                "guess_chain": [
                    e.to_dict() for e in guesses.dependency_chain(event.txn_vt)
                ],
            }
        )

    return {
        "format": "repro-causal/1",
        "dag": graph.counts(),
        "critical_path": report,
        "aborts": aborts,
        "stragglers": stragglers,
        "guess_edges": len(guesses.edges),
        "cascade_roots": guesses.cascade_roots(),
    }


def analyze_timeline(timeline: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """:func:`analyze_events` over an exported (JSON) timeline."""
    return analyze_events(events_from_timeline(timeline))


def analysis_json(analysis: Dict[str, Any]) -> str:
    """Canonical byte-stable serialization of an analysis dict."""
    return json.dumps(analysis, indent=2, sort_keys=True) + "\n"
