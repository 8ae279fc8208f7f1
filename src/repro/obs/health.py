"""Streaming protocol-health detectors over the event bus.

A :class:`HealthMonitor` is a pure function of an event sequence: subscribe
it live (``bus.subscribe(monitor)``) or feed it a recorded timeline
offline (:func:`run_health`) — the two produce identical findings for the
same events, because every rule keys off simulated time and the bus's
deterministic seq order, never the wall clock.

Four built-in rules watch the failure modes the DECAF protocol is actually
exposed to:

* :class:`AbortRateSpike` — the abort fraction of recent origin-site
  resolutions crossed a threshold (guess storm / livelock risk: the
  paper's quadratic backoff exists precisely because optimistic retries
  can feed each other).
* :class:`StragglerCascade` — too many straggler supersessions inside one
  window: optimistic views are being rebuilt faster than they settle,
  i.e. a chain of guesses on uncommitted state keeps collapsing.
* :class:`NotifyLagSLO` — a pessimistic view learned of a commit too long
  after the origin resolved it (stale reads beyond the SLO; the cost side
  of the paper's pessimistic-notification trade-off).
* :class:`RepairStall` — a dead-primary failure notice without a
  matching ``repair_committed`` inside the threshold: reservations held
  by the dead site are blocking progress.

Each rule fires on a *rising edge* (entering the bad state), not on every
event while the state persists, so reports stay small and stable.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.obs.events import ProtocolEvent
from repro.obs.spans import DEFAULT_MAX_SPANS, SpanTracker, origin_resolution

#: Finding severities, in increasing order of badness.
SEVERITIES: Tuple[str, ...] = ("info", "warning", "critical")


@dataclass(frozen=True)
class HealthFinding:
    """One deterministic detector verdict, anchored to the triggering event."""

    rule: str
    severity: str
    site: int
    time_ms: float
    seq: int
    vt: Optional[str]
    message: str
    data: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "site": self.site,
            "time_ms": round(self.time_ms, 6),
            "seq": self.seq,
            "vt": self.vt,
            "message": self.message,
            "data": self.data,
        }


class HealthRule:
    """Base detector: consume events, return findings as they fire.

    Subclasses override :meth:`observe` (and :meth:`finish` for rules that
    only become decidable when the stream ends, e.g. a repair that never
    arrived).  Rules must be deterministic functions of the event sequence.
    """

    name = "base"

    def observe(self, event: ProtocolEvent) -> List[HealthFinding]:
        raise NotImplementedError

    def finish(self, now_ms: float) -> List[HealthFinding]:
        return []


class AbortRateSpike(HealthRule):
    """Abort fraction of recent origin resolutions crossed ``threshold``."""

    name = "abort_rate_spike"

    def __init__(
        self,
        window_ms: float = 2000.0,
        min_resolutions: int = 8,
        threshold: float = 0.5,
    ) -> None:
        self.window_ms = window_ms
        self.min_resolutions = min_resolutions
        self.threshold = threshold
        self._window: Deque[Tuple[float, bool]] = deque()  # (time, aborted)
        self._breached = False

    def observe(self, event: ProtocolEvent) -> List[HealthFinding]:
        if not origin_resolution(event):
            return []
        aborted = event.kind == "aborted"
        self._window.append((event.time_ms, aborted))
        cutoff = event.time_ms - self.window_ms
        while self._window and self._window[0][0] < cutoff:
            self._window.popleft()
        total = len(self._window)
        aborts = sum(1 for _, a in self._window if a)
        rate = aborts / total if total else 0.0
        if total >= self.min_resolutions and rate >= self.threshold:
            if not self._breached:
                self._breached = True
                return [
                    HealthFinding(
                        rule=self.name,
                        severity="critical",
                        site=event.site,
                        time_ms=event.time_ms,
                        seq=event.seq,
                        vt=str(event.txn_vt),
                        message=(
                            f"abort rate {rate:.2f} over last {total} resolutions "
                            f"(threshold {self.threshold:.2f} in {self.window_ms:.0f} ms)"
                        ),
                        data={"aborts": aborts, "resolutions": total, "rate": round(rate, 4)},
                    )
                ]
        elif rate < self.threshold / 2:
            self._breached = False  # recovered: re-arm the rising edge
        return []


class StragglerCascade(HealthRule):
    """``depth`` or more straggler supersessions inside ``window_ms``."""

    name = "straggler_cascade"

    def __init__(self, window_ms: float = 1000.0, depth: int = 3) -> None:
        self.window_ms = window_ms
        self.depth = depth
        self._window: Deque[Tuple[float, str]] = deque()  # (time, vt)
        self._breached = False

    def observe(self, event: ProtocolEvent) -> List[HealthFinding]:
        if event.kind != "straggler_detected":
            return []
        self._window.append((event.time_ms, str(event.txn_vt)))
        cutoff = event.time_ms - self.window_ms
        while self._window and self._window[0][0] < cutoff:
            self._window.popleft()
        if len(self._window) >= self.depth:
            if not self._breached:
                self._breached = True
                vts = [vt for _, vt in self._window]
                return [
                    HealthFinding(
                        rule=self.name,
                        severity="warning",
                        site=event.site,
                        time_ms=event.time_ms,
                        seq=event.seq,
                        vt=str(event.txn_vt),
                        message=(
                            f"straggler cascade depth {len(self._window)} within "
                            f"{self.window_ms:.0f} ms (threshold {self.depth})"
                        ),
                        data={"depth": len(self._window), "vts": vts},
                    )
                ]
        else:
            self._breached = False  # depth fell below threshold: re-arm
        return []


class NotifyLagSLO(HealthRule):
    """A pessimistic view's commit notification lagged the origin commit
    by more than ``slo_ms`` (fires once per (site, VT) pair).  State is one
    bounded span table; the sites already flagged ride on the span."""

    name = "notify_lag_slo"

    def __init__(self, slo_ms: float = 120.0) -> None:
        self.slo_ms = slo_ms
        self._spans = SpanTracker(DEFAULT_MAX_SPANS)

    def observe(self, event: ProtocolEvent) -> List[HealthFinding]:
        span = self._spans.observe(event)
        lag = span.pessimistic_lag_ms(event) if span is not None else None
        if lag is None or lag <= self.slo_ms:
            return []
        if span.annotation is None:
            span.annotation = set()
        if event.site not in span.annotation:
            span.annotation.add(event.site)
            return [
                HealthFinding(
                    rule=self.name,
                    severity="warning",
                    site=event.site,
                    time_ms=event.time_ms,
                    seq=event.seq,
                    vt=str(event.txn_vt),
                    message=(
                        f"pessimistic notify lag {lag:.1f} ms exceeds "
                        f"SLO {self.slo_ms:.1f} ms"
                    ),
                    data={"lag_ms": round(lag, 6), "slo_ms": self.slo_ms},
                )
            ]
        return []


class RepairStall(HealthRule):
    """A ``failure_notice`` with no ``repair_committed`` for the same dead
    site within ``threshold_ms`` — reservations held by the dead primary
    are stalling commits.  Decided in-stream when later events push the
    clock past the deadline, or at :meth:`finish` for still-open repairs."""

    name = "repair_stall"

    def __init__(self, threshold_ms: float = 2000.0) -> None:
        self.threshold_ms = threshold_ms
        # (observer site, failed site) -> (notice time, notice seq)
        self._pending: Dict[Tuple[int, int], Tuple[float, int]] = {}
        self._fired: set = set()

    def _check_deadlines(self, now_ms: float, seq: int) -> List[HealthFinding]:
        findings: List[HealthFinding] = []
        for key in sorted(self._pending):
            noticed_ms, notice_seq = self._pending[key]
            if key in self._fired or now_ms - noticed_ms < self.threshold_ms:
                continue
            self._fired.add(key)
            site, failed_site = key
            findings.append(
                HealthFinding(
                    rule=self.name,
                    severity="critical",
                    site=site,
                    time_ms=now_ms,
                    seq=seq,
                    vt=None,
                    message=(
                        f"repair of failed site {failed_site} not committed "
                        f"{now_ms - noticed_ms:.1f} ms after notice "
                        f"(threshold {self.threshold_ms:.1f} ms)"
                    ),
                    data={
                        "failed_site": failed_site,
                        "noticed_ms": round(noticed_ms, 6),
                        "notice_seq": notice_seq,
                        "stall_ms": round(now_ms - noticed_ms, 6),
                    },
                )
            )
        return findings

    def observe(self, event: ProtocolEvent) -> List[HealthFinding]:
        findings = self._check_deadlines(event.time_ms, event.seq)
        if event.kind == "failure_notice":
            failed = event.data.get("failed_site")
            if failed is not None:
                self._pending.setdefault(
                    (event.site, int(failed)), (event.time_ms, event.seq)
                )
        elif event.kind == "repair_committed":
            failed = event.data.get("failed_site")
            if failed is not None:
                self._pending.pop((event.site, int(failed)), None)
        return findings

    def finish(self, now_ms: float) -> List[HealthFinding]:
        return self._check_deadlines(now_ms + self.threshold_ms, -1)


class MultiWindowBurnRate(HealthRule):
    """SLO error-budget burn-rate alerting over two trailing windows.

    The Google SRE-workbook construction: classify each relevant event
    good/bad against an SLO, compute the *burn rate* — the bad fraction
    divided by the error budget ``1 - objective`` (burn 1.0 = spending
    the budget exactly as fast as the SLO allows) — and alert only when
    **both** a fast and a slow window exceed ``burn_threshold``.  The
    slow window keeps one bad burst from paging; the fast window makes
    the alert reset quickly once the burn stops.  Like every rule here,
    the verdict is a pure function of the event sequence, so live
    subscription and offline replay produce byte-identical findings.

    Subclasses implement :meth:`classify`, returning ``None`` for
    irrelevant events, else ``True`` (bad) / ``False`` (good).
    """

    name = "burn_rate"
    severity = "critical"

    def __init__(
        self,
        objective: float = 0.95,
        fast_ms: float = 500.0,
        slow_ms: float = 2000.0,
        burn_threshold: float = 4.0,
        min_events: int = 6,
    ) -> None:
        if not 0.0 < objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {objective}")
        if fast_ms >= slow_ms:
            raise ValueError("fast window must be shorter than the slow window")
        self.objective = objective
        self.fast_ms = fast_ms
        self.slow_ms = slow_ms
        self.burn_threshold = burn_threshold
        self.min_events = min_events
        self._window: Deque[Tuple[float, bool]] = deque()  # (time, bad)
        self._breached = False

    def classify(self, event: ProtocolEvent) -> Optional[bool]:
        raise NotImplementedError

    def observe(self, event: ProtocolEvent) -> List[HealthFinding]:
        bad = self.classify(event)
        if bad is None:
            return []
        now = event.time_ms
        self._window.append((now, bad))
        cutoff = now - self.slow_ms
        while self._window and self._window[0][0] < cutoff:
            self._window.popleft()
        budget = 1.0 - self.objective
        slow_total = len(self._window)
        slow_bad = sum(1 for _, b in self._window if b)
        fast_cut = now - self.fast_ms
        fast_total = fast_bad = 0
        for t, b in self._window:
            if t >= fast_cut:
                fast_total += 1
                fast_bad += b
        if fast_total < self.min_events:
            return []
        fast_burn = (fast_bad / fast_total) / budget
        slow_burn = (slow_bad / slow_total) / budget
        if fast_burn >= self.burn_threshold and slow_burn >= self.burn_threshold:
            if not self._breached:
                self._breached = True
                return [
                    HealthFinding(
                        rule=self.name,
                        severity=self.severity,
                        site=event.site,
                        time_ms=event.time_ms,
                        seq=event.seq,
                        vt=str(event.txn_vt) if event.txn_vt is not None else None,
                        message=(
                            f"burn rate {fast_burn:.1f}x/{slow_burn:.1f}x "
                            f"(fast {self.fast_ms:.0f} ms / slow {self.slow_ms:.0f} ms) "
                            f"exceeds {self.burn_threshold:.1f}x of the "
                            f"{self.objective:.0%} SLO budget"
                        ),
                        data={
                            "fast_burn": round(fast_burn, 4),
                            "slow_burn": round(slow_burn, 4),
                            "fast_bad": fast_bad,
                            "fast_total": fast_total,
                            "slow_bad": slow_bad,
                            "slow_total": slow_total,
                            "objective": self.objective,
                            "burn_threshold": self.burn_threshold,
                        },
                    )
                ]
        elif fast_burn < self.burn_threshold / 2:
            self._breached = False  # burn stopped: re-arm the rising edge
        return []


class NotifyLagBurnRate(MultiWindowBurnRate):
    """Error-budget burn on the notify-lag SLO: each pessimistic commit
    notification is *bad* when it lagged the origin commit by more than
    ``slo_ms``.  Complements :class:`NotifyLagSLO` (which flags every
    individual violation): this rule fires only when violations consume
    the ``objective`` error budget ``burn_threshold`` times too fast in
    both windows — a sustained lag regression, not one slow replica."""

    name = "notify_lag_burn_rate"

    def __init__(self, slo_ms: float = 120.0, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.slo_ms = slo_ms
        self._spans = SpanTracker(DEFAULT_MAX_SPANS)

    def classify(self, event: ProtocolEvent) -> Optional[bool]:
        span = self._spans.observe(event)
        lag = span.pessimistic_lag_ms(event) if span is not None else None
        return None if lag is None else lag > self.slo_ms


class AbortRateBurnRate(MultiWindowBurnRate):
    """Error-budget burn on the abort-rate SLO: each origin resolution is
    *bad* when it aborted.  Where :class:`AbortRateSpike` pages on one
    window crossing a raw fraction, this expresses the policy as an SLO
    (``objective`` of transactions commit) and fires on sustained budget
    burn across both windows."""

    name = "abort_rate_burn_rate"

    def __init__(self, objective: float = 0.90, burn_threshold: float = 3.0,
                 min_events: int = 8, **kwargs: Any) -> None:
        super().__init__(
            objective=objective, burn_threshold=burn_threshold,
            min_events=min_events, **kwargs,
        )

    def classify(self, event: ProtocolEvent) -> Optional[bool]:
        if not origin_resolution(event):
            return None
        return event.kind == "aborted"


def default_rules() -> List[HealthRule]:
    """A fresh instance of every built-in detector, default thresholds."""
    return [AbortRateSpike(), StragglerCascade(), NotifyLagSLO(), RepairStall()]


def burn_rules(
    notify_slo_ms: float = 120.0,
    abort_objective: float = 0.90,
) -> List[HealthRule]:
    """The SLO burn-rate detector pair (notify lag + abort rate).

    Kept out of :func:`default_rules` so existing health reports stay
    byte-stable; ``repro health --burn-rate`` and ``repro top`` opt in.
    """
    return [
        NotifyLagBurnRate(slo_ms=notify_slo_ms),
        AbortRateBurnRate(objective=abort_objective),
    ]


@dataclass
class HealthReport:
    """All findings of one monitored run, plus an overall verdict."""

    findings: List[HealthFinding]
    events_seen: int

    @property
    def status(self) -> str:
        worst = 0
        for finding in self.findings:
            worst = max(worst, SEVERITIES.index(finding.severity))
        return SEVERITIES[worst] if self.findings else "ok"

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return {k: counts[k] for k in sorted(counts)}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": "repro-health/1",
            "status": self.status,
            "events_seen": self.events_seen,
            "by_rule": self.by_rule(),
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self) -> str:
        """Canonical byte-stable serialization."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def format_text(self) -> str:
        """Byte-stable plain-text rendering for the CLI."""
        lines = [
            f"health: {self.status} — {len(self.findings)} finding(s) "
            f"over {self.events_seen} events"
        ]
        for rule, count in self.by_rule().items():
            lines.append(f"  {rule}: {count}")
        for finding in self.findings:
            vt = f" vt={finding.vt}" if finding.vt else ""
            lines.append(
                f"  [{finding.severity:8s}] {finding.time_ms:9.1f}ms s{finding.site} "
                f"{finding.rule}{vt}: {finding.message}"
            )
        return "\n".join(lines) + "\n"


class HealthMonitor:
    """Runs a rule set over an event stream (live or replayed).

    The monitor is itself a valid bus subscriber: ``bus.subscribe(monitor)``
    streams events into every rule as the protocol runs.  Call
    :meth:`finish` once the run ends to flush deadline-based rules, then
    :meth:`report`.
    """

    def __init__(self, rules: Optional[List[HealthRule]] = None) -> None:
        self.rules = default_rules() if rules is None else rules
        self.findings: List[HealthFinding] = []
        self.events_seen = 0
        self._last_ms = 0.0
        self._finished = False

    def observe(self, event: ProtocolEvent) -> None:
        # Round to export precision (matching event_to_dict) so live
        # subscription and offline replay of the exported timeline yield
        # byte-identical reports.
        rounded = round(event.time_ms, 6)
        if rounded != event.time_ms:
            event = event._replace(time_ms=rounded)
        self.events_seen += 1
        self._last_ms = max(self._last_ms, event.time_ms)
        for rule in self.rules:
            self.findings.extend(rule.observe(event))

    __call__ = observe  # the instance itself is the bus subscriber

    def finish(self) -> None:
        """Flush rules whose verdict needed end-of-stream (idempotent)."""
        if self._finished:
            return
        self._finished = True
        for rule in self.rules:
            self.findings.extend(rule.finish(self._last_ms))

    def report(self) -> HealthReport:
        self.finish()
        return HealthReport(findings=list(self.findings), events_seen=self.events_seen)


def run_health(
    events: Iterable[ProtocolEvent], rules: Optional[List[HealthRule]] = None
) -> HealthReport:
    """Offline feed: identical findings to a live subscription on the
    same event sequence (the determinism tests assert exactly this)."""
    monitor = HealthMonitor(rules)
    for event in sorted(events, key=lambda e: e.seq):
        monitor.observe(event)
    return monitor.report()
