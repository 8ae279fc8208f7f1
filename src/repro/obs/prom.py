"""Prometheus text-exposition rendering for MetricsRegistry snapshots.

Live processes (the two-process TCP example, ``tcp_turn_observed`` in perf/)
periodically write their registries as a Prometheus 0.0.4 text snapshot —
a plain file any scraper, ``promtool``, or a human with ``cat`` can read.
There is no HTTP server and no client library: the repo's no-new-deps
rule means export is a *file*, refreshed atomically (write to a tempfile
in the same directory, then ``os.replace``) so a concurrent reader never
sees a torn snapshot.

Rendering rules:

- dotted metric names are sanitized to the Prometheus grammar
  (``[a-zA-Z_:][a-zA-Z0-9_:]*``): every other character becomes ``_``,
  and everything is namespaced under ``repro_``;
- counters gain the conventional ``_total`` suffix; gauges are bare;
- histograms expand to cumulative ``_bucket{le="..."}`` series plus
  ``+Inf``, ``_sum`` and ``_count``, exactly the shape Prometheus
  histogram_quantile() expects;
- a registry's ``site`` becomes a ``site`` label when >= 0 (the transport
  registry uses site -1 = process-wide, rendered without the label);
- output is deterministic: metrics sorted by (name, labels), one
  ``# TYPE`` line per family.

:func:`parse_prometheus_text` is the read side — a minimal 0.0.4 parser
used by the text-format conformance test (render → parse → compare) and
by ``repro top`` to tail the ``.prom`` files live processes refresh.
"""

from __future__ import annotations

import os
import re
import tempfile
from typing import Any, Dict, Iterable, List, Tuple

_NAME_OK = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def sanitize_name(name: str) -> str:
    """Map a dotted registry name onto the Prometheus metric grammar."""
    cleaned = "".join(c if c in _NAME_OK else "_" for c in name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return "repro_" + cleaned


def _fmt_value(value: float) -> str:
    """Prometheus number formatting: integers without a trailing ``.0``."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _labels(pairs: Iterable[Tuple[str, str]]) -> str:
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}" if body else ""


def prometheus_text(snapshots: Iterable[Dict[str, Any]]) -> str:
    """Render registry snapshots (``MetricsRegistry.snapshot()``) as text.

    Accepts multiple snapshots so one process can export its per-site
    protocol registries and its transport registry in a single file;
    same-named metrics from different sites merge into one family with
    distinct ``site`` labels.
    """
    # family name -> (type, [(sort_key, line), ...])
    families: Dict[str, Tuple[str, List[Tuple[str, str]]]] = {}

    def add(family: str, mtype: str, sort_key: str, line: str) -> None:
        entry = families.get(family)
        if entry is None:
            families[family] = (mtype, [(sort_key, line)])
        else:
            entry[1].append((sort_key, line))

    for snap in snapshots:
        site = snap.get("site", -1)
        site_labels: List[Tuple[str, str]] = [("site", str(site))] if site >= 0 else []
        for name, value in snap.get("counters", {}).items():
            family = sanitize_name(name) + "_total"
            lbl = _labels(site_labels)
            add(family, "counter", lbl, f"{family}{lbl} {_fmt_value(value)}")
        for name, value in snap.get("gauges", {}).items():
            family = sanitize_name(name)
            lbl = _labels(site_labels)
            add(family, "gauge", lbl, f"{family}{lbl} {_fmt_value(value)}")
        for name, hist in snap.get("histograms", {}).items():
            family = sanitize_name(name)
            slbl = _labels(site_labels)
            # Buckets must stay in increasing-le order (what parsers and
            # histogram_quantile expect), so their sort key is the bucket
            # index, not the rendered label.
            cumulative = 0
            for i, (bound, count) in enumerate(zip(hist["bounds"], hist["counts"])):
                cumulative += count
                lbl = _labels(site_labels + [("le", _fmt_value(float(bound)))])
                add(family, "histogram", f"{slbl}|{i:06d}",
                    f"{family}_bucket{lbl} {cumulative}")
            lbl = _labels(site_labels + [("le", "+Inf")])
            add(family, "histogram", f"{slbl}|999998",
                f"{family}_bucket{lbl} {hist['total']}")
            add(family, "histogram", f"{slbl}|999999a",
                f"{family}_sum{slbl} {_fmt_value(hist['sum'])}")
            add(family, "histogram", f"{slbl}|999999b",
                f"{family}_count{slbl} {hist['total']}")

    lines: List[str] = []
    for family in sorted(families):
        mtype, series = families[family]
        lines.append(f"# TYPE {family} {mtype}")
        lines.extend(line for _, line in sorted(series))
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(path: str, snapshots: Iterable[Dict[str, Any]]) -> str:
    """Atomically (re)write ``path`` with the rendered snapshots."""
    text = prometheus_text(snapshots)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".prom-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


_LABEL_RE = re.compile(r'([a-zA-Z_:][a-zA-Z0-9_:]*)="([^"]*)"')
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$"
)


def parse_prometheus_text(
    text: str,
) -> Tuple[Dict[str, str], List[Tuple[str, Dict[str, str], float]]]:
    """Parse exposition text back into ``(types, samples)``.

    ``types`` maps family name -> metric type (from ``# TYPE`` lines);
    ``samples`` is ``(metric_name, labels, value)`` in file order.  The
    grammar covered is exactly what :func:`prometheus_text` emits (plus
    ``+Inf``/``NaN`` values); an unparseable sample line raises
    ``ValueError`` so the conformance test catches format drift.
    """
    types: Dict[str, str] = {}
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# TYPE "):
                rest = line[len("# TYPE "):]
                family, _, mtype = rest.partition(" ")
                types[family] = mtype.strip()
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable sample on line {lineno}: {line!r}")
        name, label_body, raw_value = match.groups()
        labels = dict(_LABEL_RE.findall(label_body)) if label_body else {}
        try:
            value = float(raw_value)
        except ValueError:
            raise ValueError(f"bad sample value on line {lineno}: {raw_value!r}")
        samples.append((name, labels, value))
    return types, samples


async def flush_periodically(path: str, snapshot_fns, interval_s: float = 1.0) -> None:
    """Asyncio task body: rewrite ``path`` every ``interval_s`` until cancelled.

    ``snapshot_fns`` is a list of zero-arg callables returning snapshot
    dicts (late-bound so each flush sees fresh values).  Writes one final
    snapshot on cancellation so the file reflects end-of-run state.
    """
    import asyncio

    try:
        while True:
            write_prometheus(path, [fn() for fn in snapshot_fns])
            await asyncio.sleep(interval_s)
    finally:
        write_prometheus(path, [fn() for fn in snapshot_fns])
