"""`repro top`: a live terminal dashboard over exported telemetry files.

The live processes (``examples/two_process_tcp.py --trace-dir``, any
process using :func:`repro.obs.prom.flush_periodically` plus a
:class:`~repro.obs.agg.TelemetryAggregator`) periodically rewrite two
kinds of files into a directory:

* ``metrics*.prom`` — Prometheus 0.0.4 text snapshots of their
  registries (counters, gauges, fixed-bucket histograms);
* ``agg*.json`` — windowed per-tenant rollup snapshots (``repro-agg/1``).

This module is the read side: :func:`read_dashboard` tails those files
(atomic-replace writes mean a reader never sees a torn snapshot),
fuses the per-process aggregates with
:func:`~repro.obs.agg.merge_agg_snapshots`, and derives per-tenant
commit rates, latency quantiles, and active SLO alerts;
:func:`render_dashboard` turns the result into a fixed-width text frame.
Both are pure functions of the file contents, so the CLI smoke test
(``repro top --once`` in the tcp-smoke job) is deterministic given the
files on disk.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.agg import merge_agg_snapshots
from repro.obs.prom import parse_prometheus_text

__all__ = ["DashboardState", "TenantRow", "read_dashboard", "render_dashboard"]

#: Alert when the abort burn rate (bad fraction / error budget) exceeds
#: this in both the newest window and the whole retained horizon —
#: mirroring the fast/slow multi-window rule in repro.obs.health.
ABORT_OBJECTIVE = 0.90
ABORT_BURN_THRESHOLD = 3.0
ABORT_MIN_EVENTS = 8


@dataclass
class TenantRow:
    """One tenant's line in the dashboard."""

    tenant: str
    commits: int
    aborts: int
    commits_per_s: float
    p50_ms: float
    p99_ms: float
    notify_p99_ms: float
    alerts: List[str] = field(default_factory=list)


@dataclass
class DashboardState:
    """Everything one frame renders, derived from the telemetry files."""

    directory: str
    prom_files: List[str]
    agg_files: List[str]
    #: Process-wide counters summed over all .prom files.
    transport: Dict[str, float]
    rows: List[TenantRow]
    window_ms: float
    alerts: List[str]


def _read_if_exists(path: str) -> Optional[str]:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


#: Transport counters surfaced in the header line (prom family names).
_TRANSPORT_FAMILIES = {
    "repro_transport_frames_sent_total": "frames_sent",
    "repro_transport_frames_received_total": "frames_received",
    "repro_transport_sends_sampled_out_total": "sends_sampled_out",
    "repro_transport_deliveries_sampled_out_total": "deliveries_sampled_out",
}


def _tenant_rows(merged: Dict[str, Any]) -> Tuple[List[TenantRow], List[str]]:
    windows = merged.get("windows", [])
    window_s = merged.get("window_ms", 1000.0) / 1000.0
    if not windows:
        return [], []
    latest = windows[-1]
    # Aggregate over every retained window (the "slow" horizon)...
    totals: Dict[str, Dict[str, Any]] = {}
    for window in windows:
        for tenant, cell in window["tenants"].items():
            agg = totals.setdefault(
                tenant, {"commits": 0, "aborts": 0, "latest_commits": 0,
                         "p50": 0.0, "p99": 0.0, "notify_p99": 0.0}
            )
            agg["commits"] += cell["counters"].get("commits", 0)
            agg["aborts"] += cell["counters"].get("aborts", 0)
            quantiles = cell.get("quantiles", {})
            if "commit_latency_ms" in quantiles:
                agg["p50"] = quantiles["commit_latency_ms"]["p50"]
                agg["p99"] = quantiles["commit_latency_ms"]["p99"]
            if "notify_lag_ms" in quantiles:
                agg["notify_p99"] = quantiles["notify_lag_ms"]["p99"]
    # ...and read the rate + alert fast-window from the newest one.
    rows: List[TenantRow] = []
    alerts: List[str] = []
    budget = 1.0 - ABORT_OBJECTIVE
    for tenant in sorted(totals):
        agg = totals[tenant]
        latest_cell = latest["tenants"].get(tenant, {"counters": {}})
        latest_commits = latest_cell["counters"].get("commits", 0)
        latest_aborts = latest_cell["counters"].get("aborts", 0)
        row = TenantRow(
            tenant=tenant,
            commits=agg["commits"],
            aborts=agg["aborts"],
            commits_per_s=latest_commits / window_s,
            p50_ms=agg["p50"],
            p99_ms=agg["p99"],
            notify_p99_ms=agg["notify_p99"],
        )
        fast_total = latest_commits + latest_aborts
        slow_total = agg["commits"] + agg["aborts"]
        if fast_total >= ABORT_MIN_EVENTS and slow_total:
            fast_burn = (latest_aborts / fast_total) / budget
            slow_burn = (agg["aborts"] / slow_total) / budget
            if fast_burn >= ABORT_BURN_THRESHOLD and slow_burn >= ABORT_BURN_THRESHOLD:
                msg = (
                    f"{tenant}: abort burn {fast_burn:.1f}x fast / "
                    f"{slow_burn:.1f}x slow (SLO {ABORT_OBJECTIVE:.0%})"
                )
                row.alerts.append(msg)
                alerts.append(msg)
        rows.append(row)
    rows.sort(key=lambda r: (-r.commits_per_s, -r.commits, r.tenant))
    return rows, alerts


def read_dashboard(directory: str) -> DashboardState:
    """Build one dashboard frame from the files currently in ``directory``."""
    prom_files = sorted(glob.glob(os.path.join(directory, "*.prom")))
    agg_files = sorted(glob.glob(os.path.join(directory, "agg*.json")))

    transport: Dict[str, float] = {}
    for path in prom_files:
        text = _read_if_exists(path)
        if text is None:
            continue
        _types, samples = parse_prometheus_text(text)
        for name, _labels, value in samples:
            label = _TRANSPORT_FAMILIES.get(name)
            if label is not None:
                transport[label] = transport.get(label, 0.0) + value

    snapshots = []
    for path in agg_files:
        text = _read_if_exists(path)
        if text is None:
            continue
        try:
            snap = json.loads(text)
        except ValueError:
            continue  # mid-write on a non-atomic writer; next refresh wins
        if isinstance(snap, dict) and snap.get("format") == "repro-agg/1":
            snapshots.append(snap)
    merged = merge_agg_snapshots(*snapshots) if snapshots else {"windows": []}
    rows, alerts = _tenant_rows(merged)
    return DashboardState(
        directory=directory,
        prom_files=prom_files,
        agg_files=agg_files,
        transport=transport,
        rows=rows,
        window_ms=merged.get("window_ms", 0.0) or 0.0,
        alerts=alerts,
    )


def render_dashboard(state: DashboardState, max_rows: int = 20) -> str:
    """One fixed-width text frame (no ANSI codes — the CLI adds those)."""
    lines: List[str] = []
    lines.append(
        f"repro top — {state.directory}  "
        f"({len(state.prom_files)} prom, {len(state.agg_files)} agg files)"
    )
    if state.transport:
        parts = [f"{k}={int(v)}" for k, v in sorted(state.transport.items())]
        lines.append("transport: " + "  ".join(parts))
    if state.window_ms:
        lines.append(f"window: {state.window_ms:.0f} ms")
    lines.append("")
    header = (
        f"{'tenant':<24} {'commits':>8} {'aborts':>7} {'c/s':>8} "
        f"{'p50 ms':>9} {'p99 ms':>9} {'notify p99':>11}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    if not state.rows:
        lines.append("(no per-tenant aggregates yet)")
    for row in state.rows[:max_rows]:
        flag = " !" if row.alerts else ""
        lines.append(
            f"{row.tenant:<24} {row.commits:>8} {row.aborts:>7} "
            f"{row.commits_per_s:>8.1f} {row.p50_ms:>9.2f} {row.p99_ms:>9.2f} "
            f"{row.notify_p99_ms:>11.2f}{flag}"
        )
    hidden = len(state.rows) - max_rows
    if hidden > 0:
        lines.append(f"... {hidden} more tenant(s)")
    lines.append("")
    if state.alerts:
        lines.append(f"ALERTS ({len(state.alerts)}):")
        for alert in state.alerts:
            lines.append(f"  ! {alert}")
    else:
        lines.append("alerts: none")
    return "\n".join(lines)
