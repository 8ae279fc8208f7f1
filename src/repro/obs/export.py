"""Timeline exporters: JSONL event logs and Chrome trace-event JSON.

The Chrome trace format (``{"traceEvents": [...]}``) loads directly into
Perfetto / ``chrome://tracing``: each simulator site becomes a process
(one track per site), every protocol event an instant on its site's
track, and every reconstructed transaction span a complete (``ph: "X"``)
slice on the origin site's track.  Timestamps are simulated microseconds
(``time_ms * 1000``) so the viewer's ruler reads in protocol time.

Both exporters are deterministic: sorted keys, stable ordering, no wall
clock — a given seed always produces byte-identical files.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.events import ProtocolEvent, event_to_dict
from repro.obs.spans import TxnSpan, build_spans


def to_jsonl(events: Iterable[ProtocolEvent]) -> str:
    """One sorted-keys JSON object per line, newline-terminated."""
    lines = [json.dumps(event_to_dict(e), sort_keys=True) for e in events]
    return "\n".join(lines) + ("\n" if lines else "")


def _us(time_ms: float) -> int:
    return int(round(time_ms * 1000))


def to_chrome_trace(
    events: Iterable[ProtocolEvent],
    spans: Optional[List[TxnSpan]] = None,
) -> Dict[str, Any]:
    """Build a Chrome trace-event document from a recorded timeline.

    ``pid`` is the site id (named ``site N`` via metadata events), ``tid``
    1 for the event track and 2 for the span track.  Instants use site
    scope (``s: "t"`` would pin to thread; we use thread scope so tracks
    stay readable).  Spans with no resolution are exported as instants at
    submit time rather than zero-length slices.
    """
    events = list(events)
    if spans is None:
        spans = build_spans(events)

    trace_events: List[Dict[str, Any]] = []
    sites = sorted({e.site for e in events})
    for site in sites:
        for tid, name, label in (
            (0, "process_name", f"site {site}"),
            (1, "thread_name", "events"),
            (2, "thread_name", "txn spans"),
        ):
            trace_events.append(
                {"ph": "M", "pid": site, "tid": tid, "name": name, "args": {"name": label}}
            )

    for event in events:
        entry = event_to_dict(event)
        trace_events.append(
            {
                "ph": "i",
                "pid": event.site,
                "tid": 1,
                "ts": _us(event.time_ms),
                "s": "t",
                "name": event.kind,
                "args": {
                    "seq": entry["seq"],
                    "txn_vt": entry["txn_vt"],
                    **entry["data"],
                },
            }
        )

    for span in spans:
        if span.submit_ms is None:
            continue
        args = span.to_dict()
        args.pop("event_count", None)
        if span.resolved_ms is not None:
            trace_events.append(
                {
                    "ph": "X",
                    "pid": span.origin,
                    "tid": 2,
                    "ts": _us(span.submit_ms),
                    "dur": max(1, _us(span.resolved_ms) - _us(span.submit_ms)),
                    "name": f"txn {span.vt} [{span.resolution}]",
                    "args": args,
                }
            )
        else:
            trace_events.append(
                {
                    "ph": "i",
                    "pid": span.origin,
                    "tid": 2,
                    "ts": _us(span.submit_ms),
                    "s": "t",
                    "name": f"txn {span.vt} [in flight]",
                    "args": args,
                }
            )

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"format": "repro-obs/1", "clock": "simulated"},
    }


def chrome_trace_json(events: Iterable[ProtocolEvent]) -> str:
    """Serialized Chrome trace, stable byte-for-byte per seed."""
    return json.dumps(to_chrome_trace(events), indent=2, sort_keys=True) + "\n"
