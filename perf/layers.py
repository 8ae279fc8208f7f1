"""Per-layer metrics of a traced window, and the budget table.

The layers are this repository's packages.  A workload hands over what it
measured during the traced part of its window (:class:`TracedWindow`);
the metrics every workload shares (``core.``, ``views.``, ``wire.``,
``runtime.``, ``trace.``) are derived here, and the workload adds the ones
only it can know (``sim.``, ``tcp.``, ``host.``, ``obs.``).  A per-layer
metric a workload has no traffic for reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from perf.common import GcWatch, percentile
from perf.trace import SPAN_NAMES


@dataclass
class TracedWindow:
    """What the traced part of a window measured."""

    totals: Dict[str, Tuple[int, float]]  # span name -> (count, self seconds)
    commits: int
    cpu_s: float
    #: Differences over the window: ``Session`` / ``SessionHost.counters()``
    #: plus the benchmark's own ``view_updates``, ``view_commits`` and, where
    #: a codec runs, ``frames``, ``frame_bytes``, ``frame_msgs``.
    counters: Dict[str, int]
    untraced_cpu_us_per_commit: float
    commit_wall_s: List[float]  # sorted
    gc: GcWatch
    extra: Dict[str, float] = field(default_factory=dict)  # the workload's own layers


def budget(tw: TracedWindow) -> List[Tuple[str, float]]:
    """Rows of the budget table, µs of CPU per commit: the self time of each
    traced boundary, then ``unattributed`` — process CPU per commit minus all
    traced self time (asyncio, kernel, sender/reader tasks, the benchmark's
    own driver) — so the rows sum to the window's CPU per commit."""
    per_commit = 1e6 / max(tw.commits, 1)
    rows = [(name, tw.totals.get(name, (0, 0.0))[1] * per_commit) for name in SPAN_NAMES]
    rows.append(("unattributed", tw.cpu_s * per_commit - sum(us for _name, us in rows)))
    return rows


def per_layer(names: Sequence[str], tw: TracedWindow) -> Dict[str, float]:
    """Every per-layer metric named in BENCHMARK.json, 0 where not measured."""
    commits = max(tw.commits, 1)
    rows = dict(budget(tw))
    cpu_us = tw.cpu_s * 1e6 / commits

    def calls(name: str) -> int:
        return tw.totals.get(name, (0, 0.0))[0]

    def self_us(name: str) -> float:
        return tw.totals.get(name, (0, 0.0))[1] * 1e6

    def count(name: str) -> int:
        return tw.counters.get(name, 0)

    codec_us = self_us("wire.encode") + self_us("wire.decode")
    frames = max(count("frames"), 1)
    metrics = dict.fromkeys(names, 0.0)
    metrics.update({
        "core.transact_us": self_us("core.transact") / max(calls("core.transact"), 1),
        "core.dispatch_us": self_us("core.dispatch") / max(calls("core.dispatch"), 1),
        "core.dispatch_calls_per_commit": calls("core.dispatch") / commits,
        "core.busy_us_per_commit": rows["core.transact"] + rows["core.dispatch"],
        "core.retries_per_commit": count("retries") / commits,
        "core.aborts_conflict_per_commit": count("aborts_conflict") / commits,
        "views.update_calls_per_commit": count("view_updates") / commits,
        "views.commit_calls_per_commit": count("view_commits") / commits,
        "views.callback_us": rows["views.callback"],
        "views.lost_updates": count("lost_updates"),
        "views.update_inconsistencies": count("update_inconsistencies"),
        "wire.encode_us_per_frame": self_us("wire.encode") / max(calls("wire.encode"), 1),
        "wire.decode_us_per_frame": self_us("wire.decode") / max(calls("wire.decode"), 1),
        "wire.codec_us_per_commit": codec_us / commits,
        "wire.bytes_per_frame": count("frame_bytes") / frames,
        "wire.frames_per_commit": count("frames") / commits,
        "wire.bytes_per_commit": count("frame_bytes") / commits,
        "wire.msgs_per_envelope": count("frame_msgs") / frames,
        "tcp.send_us_per_frame": self_us("tcp.send") / max(calls("tcp.send"), 1),
        "tcp.unattributed_us_per_commit": rows["unattributed"],
        "runtime.gc_gen2_collections": tw.gc.gen2_collections,
        "runtime.gc_gen2_pause_max_ms": tw.gc.gen2_pause_max_s * 1e3,
        "runtime.gc_pause_total_ms": tw.gc.pause_total_s * 1e3,
        "runtime.commit_p99_ms": percentile(tw.commit_wall_s, 0.99) * 1e3,
        "runtime.commit_max_ms": tw.commit_wall_s[-1] * 1e3 if tw.commit_wall_s else 0.0,
        "trace.overhead_ratio": cpu_us / tw.untraced_cpu_us_per_commit,
        "trace.accounted_share": 1.0 - rows["unattributed"] / cpu_us,
    })
    metrics.update(tw.extra)
    unknown = set(metrics) - set(names)
    if unknown:
        raise KeyError(f"per-layer metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    return metrics
