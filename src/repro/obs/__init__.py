"""Observability layer: event bus, lifecycle spans, metrics, exporters,
causal analysis, and health detectors.

Deterministic, zero-overhead-when-disabled instrumentation for the DECAF
protocol stack.  See docs/OBSERVABILITY.md for the event taxonomy, the
span lifecycle, exporter workflows (Perfetto, JSONL), the happens-before
DAG model, and the health-detector rules.
"""

from repro.obs.causal import (
    CausalGraph,
    abort_causal_chain,
    CommitCriticalPath,
    GuessEdge,
    GuessGraph,
    HBEdge,
    analysis_json,
    analyze_events,
    analyze_timeline,
    build_causal_graph,
    build_guess_graph,
    commit_critical_paths,
    critical_path_report,
    events_from_timeline,
    format_critical_path_report,
    normalize_events,
    parse_vt,
)
from repro.obs.agg import (
    TelemetryAggregator,
    TenantTelemetry,
    merge_agg_snapshots,
)
from repro.obs.clock import Clock, SimClock, WallClock
from repro.obs.events import EVENT_KINDS, EventBus, ProtocolEvent, event_to_dict
from repro.obs.export import chrome_trace_json, to_chrome_trace, to_jsonl
from repro.obs.flight import FlightRecorder
from repro.obs.merge import MergedTimeline, load_timeline, merge_timelines
from repro.obs.prom import parse_prometheus_text, prometheus_text, write_prometheus
from repro.obs.sample import TraceSampler, sample_decision
from repro.obs.sketch import (
    DEFAULT_RELATIVE_ACCURACY,
    QuantileSketch,
    merge_sketches,
)
from repro.obs.health import (
    AbortRateBurnRate,
    AbortRateSpike,
    HealthFinding,
    HealthMonitor,
    HealthReport,
    HealthRule,
    MultiWindowBurnRate,
    NotifyLagBurnRate,
    NotifyLagSLO,
    RepairStall,
    StragglerCascade,
    burn_rules,
    default_rules,
    run_health,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS_MS,
    Histogram,
    MetricsRegistry,
    counter_property,
)
from repro.obs.spans import (
    SpanTracker,
    TxnSpan,
    build_spans,
    origin_resolution,
    span_summary,
)

__all__ = [
    "EVENT_KINDS",
    "EventBus",
    "ProtocolEvent",
    "event_to_dict",
    "Clock",
    "SimClock",
    "WallClock",
    "FlightRecorder",
    "MergedTimeline",
    "load_timeline",
    "merge_timelines",
    "prometheus_text",
    "parse_prometheus_text",
    "write_prometheus",
    "TraceSampler",
    "sample_decision",
    "QuantileSketch",
    "merge_sketches",
    "DEFAULT_RELATIVE_ACCURACY",
    "TelemetryAggregator",
    "TenantTelemetry",
    "merge_agg_snapshots",
    "to_jsonl",
    "to_chrome_trace",
    "chrome_trace_json",
    "Histogram",
    "MetricsRegistry",
    "counter_property",
    "LATENCY_BUCKETS_MS",
    "COUNT_BUCKETS",
    "SpanTracker",
    "TxnSpan",
    "build_spans",
    "origin_resolution",
    "span_summary",
    "CausalGraph",
    "HBEdge",
    "CommitCriticalPath",
    "GuessGraph",
    "GuessEdge",
    "abort_causal_chain",
    "build_causal_graph",
    "build_guess_graph",
    "commit_critical_paths",
    "critical_path_report",
    "format_critical_path_report",
    "analyze_events",
    "analyze_timeline",
    "analysis_json",
    "events_from_timeline",
    "normalize_events",
    "parse_vt",
    "HealthFinding",
    "HealthRule",
    "HealthMonitor",
    "HealthReport",
    "AbortRateSpike",
    "StragglerCascade",
    "NotifyLagSLO",
    "RepairStall",
    "MultiWindowBurnRate",
    "NotifyLagBurnRate",
    "AbortRateBurnRate",
    "default_rules",
    "burn_rules",
    "run_health",
]
