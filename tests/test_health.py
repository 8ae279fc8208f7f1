"""Tests for the streaming health detectors (repro.obs.health).

Each rule is exercised on synthetic event sequences (rising-edge firing,
re-arming, per-key dedup, end-of-stream flush), and the acceptance
criteria are pinned: over an explorer campaign with injected faults the
straggler-cascade and notify-lag detectors fire deterministically — the
same seed yields an identical HealthReport — and a monitor subscribed
live to the bus produces byte-identical findings to an offline replay of
the recorded timeline.
"""

import json

from repro.explore.plan import sample_config
from repro.explore.trial import run_trial
from repro.obs import run_health
from repro.obs.events import ProtocolEvent
from repro.obs.spans import DEFAULT_MAX_SPANS
from repro.obs.health import (
    AbortRateBurnRate,
    AbortRateSpike,
    HealthMonitor,
    NotifyLagBurnRate,
    NotifyLagSLO,
    RepairStall,
    StragglerCascade,
    burn_rules,
    default_rules,
)
from repro.vtime import VirtualTime


def make_event(seq, time_ms, site, event_kind, vt=None, **data):
    # The event's own kind is positional so data payloads may carry a
    # "kind" key of their own (view_notified's kind=update/commit).
    return ProtocolEvent(
        seq=seq, time_ms=float(time_ms), site=site, kind=event_kind, txn_vt=vt, data=data
    )


def feed(rule, events):
    findings = []
    for event in events:
        findings.extend(rule.observe(event))
    return findings


class TestAbortRateSpike:
    def _resolution(self, seq, time_ms, counter, aborted):
        vt = VirtualTime(counter, 0)
        kind = "aborted" if aborted else "committed"
        return make_event(seq, time_ms, 0, kind, vt)

    def test_fires_on_rising_edge_only(self):
        rule = AbortRateSpike(window_ms=1000.0, min_resolutions=4, threshold=0.5)
        events = [self._resolution(i, 10.0 * i, i, aborted=True) for i in range(8)]
        findings = feed(rule, events)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "abort_rate_spike"
        assert finding.severity == "critical"
        assert finding.data["rate"] == 1.0
        assert finding.seq == 3  # the event that completed the window

    def test_rearms_after_recovery(self):
        rule = AbortRateSpike(window_ms=100.0, min_resolutions=4, threshold=0.5)
        spike1 = [self._resolution(i, float(i), i, aborted=True) for i in range(4)]
        # Recovery: a burst of commits in a later window drives the rate to 0.
        recovery = [
            self._resolution(10 + i, 500.0 + i, 10 + i, aborted=False)
            for i in range(6)
        ]
        spike2 = [
            self._resolution(20 + i, 1000.0 + i, 20 + i, aborted=True)
            for i in range(4)
        ]
        findings = feed(rule, spike1 + recovery + spike2)
        assert len(findings) == 2

    def test_ignores_replica_resolutions(self):
        rule = AbortRateSpike(window_ms=1000.0, min_resolutions=2, threshold=0.5)
        # Same VTs aborting at a *replica* site (site != vt.site) don't count.
        events = [
            make_event(i, 10.0 * i, 1, "aborted", VirtualTime(i, 0)) for i in range(6)
        ]
        assert feed(rule, events) == []


class TestStragglerCascade:
    def test_depth_threshold_and_rearm(self):
        rule = StragglerCascade(window_ms=100.0, depth=3)
        burst = [
            make_event(i, float(i), 0, "straggler_detected", VirtualTime(i, 1),
                       flavor="lost_update", mode="optimistic")
            for i in range(5)
        ]
        findings = feed(rule, burst)
        assert len(findings) == 1
        assert findings[0].data["depth"] == 3
        assert len(findings[0].data["vts"]) == 3

        # After the window drains completely the rule re-arms.
        later = [
            make_event(10 + i, 1000.0 + i, 0, "straggler_detected",
                       VirtualTime(10 + i, 1), flavor="lost_update",
                       mode="optimistic")
            for i in range(3)
        ]
        assert len(feed(rule, later)) == 1

    def test_sparse_stragglers_never_fire(self):
        rule = StragglerCascade(window_ms=100.0, depth=3)
        sparse = [
            make_event(i, 500.0 * i, 0, "straggler_detected", VirtualTime(i, 1),
                       flavor="lost_update", mode="optimistic")
            for i in range(10)
        ]
        assert feed(rule, sparse) == []


class TestNotifyLagSLO:
    def test_fires_once_per_site_vt_pair(self):
        rule = NotifyLagSLO(slo_ms=100.0)
        vt = VirtualTime(3, 0)
        events = [
            make_event(0, 0.0, 0, "committed", vt, ops=1),
            make_event(1, 250.0, 1, "view_notified", vt, mode="pessimistic",
                       kind="commit", changed=1),
            make_event(2, 260.0, 1, "view_notified", vt, mode="pessimistic",
                       kind="commit", changed=1),  # same pair: deduped
            make_event(3, 270.0, 2, "view_notified", vt, mode="pessimistic",
                       kind="commit", changed=1),  # new site: fires again
        ]
        findings = feed(rule, events)
        assert [f.site for f in findings] == [1, 2]
        assert findings[0].data["lag_ms"] == 250.0

    def test_within_slo_and_optimistic_ignored(self):
        rule = NotifyLagSLO(slo_ms=100.0)
        vt = VirtualTime(3, 0)
        events = [
            make_event(0, 0.0, 0, "committed", vt, ops=1),
            make_event(1, 50.0, 1, "view_notified", vt, mode="pessimistic",
                       kind="commit", changed=1),
            make_event(2, 500.0, 1, "view_notified", vt, mode="optimistic",
                       kind="update", changed=1),
        ]
        assert feed(rule, events) == []


class TestLiveStateIsBounded:
    def test_notify_lag_rules_retain_a_bounded_span_table(self):
        """A monitor subscribed for the life of a process sees every commit:
        the notify-lag rules may remember the last ``max_spans`` of them
        (already-flagged sites included — they ride on the span), no more."""
        slo, burn = NotifyLagSLO(slo_ms=100.0), NotifyLagBurnRate(slo_ms=100.0)
        monitor = HealthMonitor([slo, burn])
        bound = slo._spans.max_spans
        assert bound == burn._spans.max_spans == DEFAULT_MAX_SPANS
        seq = 0
        for i in range(10_000):
            vt, t = VirtualTime(i + 1, 0), 10.0 * i
            for event in (
                make_event(seq, t, 0, "txn_submitted", vt, attempt=1),
                make_event(seq + 1, t + 2.0, 0, "committed", vt, ops=1),
                make_event(seq + 2, t + 4.0, 1, "view_notified", vt,
                           mode="pessimistic", kind="commit", changed=1),
                # every 10th transaction reaches site 2 beyond the SLO
                make_event(seq + 3, t + (152.0 if i % 10 == 0 else 5.0), 2,
                           "view_notified", vt, mode="pessimistic", kind="commit",
                           changed=1),
            ):
                monitor(event)
            seq += 4
        assert len(monitor.findings) == 1_000  # nothing missed, nothing twice
        assert {f.site for f in monitor.findings} == {2}
        for rule in (slo, burn):
            assert len(rule._spans.spans) <= bound
            assert not hasattr(rule, "_flagged") and not hasattr(rule, "_commit_ms")
        flagged = sum(len(s.annotation or ()) for s in slo._spans.spans.values())
        assert flagged <= bound
        assert len(burn._window) < 1_000  # two notifications per 10 ms, 2 s of them


class TestRepairStall:
    def test_stall_detected_in_stream(self):
        rule = RepairStall(threshold_ms=1000.0)
        events = [
            make_event(0, 0.0, 2, "failure_notice", failed_site=1),
            make_event(1, 1500.0, 2, "committed", VirtualTime(5, 2), ops=1),
        ]
        findings = feed(rule, events)
        assert len(findings) == 1
        assert findings[0].rule == "repair_stall"
        assert findings[0].data["failed_site"] == 1
        assert findings[0].data["stall_ms"] == 1500.0

    def test_timely_repair_suppresses(self):
        rule = RepairStall(threshold_ms=1000.0)
        events = [
            make_event(0, 0.0, 2, "failure_notice", failed_site=1),
            make_event(1, 300.0, 2, "repair_committed", method="consensus",
                       failed_site=1),
            make_event(2, 5000.0, 2, "committed", VirtualTime(5, 2), ops=1),
        ]
        assert feed(rule, events) == []
        assert rule.finish(5000.0) == []

    def test_finish_flushes_open_repairs(self):
        rule = RepairStall(threshold_ms=1000.0)
        assert feed(rule, [make_event(0, 0.0, 2, "failure_notice", failed_site=1)]) == []
        findings = rule.finish(100.0)
        assert len(findings) == 1
        assert findings[0].data["failed_site"] == 1


class TestBurnRateRules:
    def _resolution(self, seq, time_ms, counter, aborted):
        vt = VirtualTime(counter, 0)
        kind = "aborted" if aborted else "committed"
        return make_event(seq, time_ms, 0, kind, vt)

    def test_sustained_abort_burn_fires_once(self):
        rule = AbortRateBurnRate()
        # 50% aborts sustained: burn 5.0x of the 10% budget in both windows.
        events = [
            self._resolution(i, 50.0 * i, i, aborted=(i % 2 == 0)) for i in range(40)
        ]
        findings = feed(rule, events)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "abort_rate_burn_rate"
        assert finding.severity == "critical"
        assert finding.data["fast_burn"] >= 3.0
        assert finding.data["slow_burn"] >= 3.0
        assert finding.data["objective"] == 0.90

    def test_short_burst_is_absorbed_by_the_slow_window(self):
        rule = AbortRateBurnRate()
        healthy = [self._resolution(i, 50.0 * i, i, aborted=False) for i in range(39)]
        burst = [
            self._resolution(40 + i, 1910.0 + 10.0 * i, 40 + i, aborted=True)
            for i in range(8)
        ]
        # Fast window burns hot, but the slow window says the budget is
        # fine overall — no page for one transient burst.
        assert feed(rule, healthy + burst) == []

    def test_rearms_after_burn_stops(self):
        rule = AbortRateBurnRate()
        spike1 = [self._resolution(i, 50.0 * i, i, aborted=True) for i in range(10)]
        recovery = [
            self._resolution(20 + i, 1000.0 + 50.0 * i, 20 + i, aborted=False)
            for i in range(19)
        ]
        spike2 = [
            self._resolution(50 + i, 3000.0 + 50.0 * i, 50 + i, aborted=True)
            for i in range(10)
        ]
        findings = feed(rule, spike1 + recovery + spike2)
        assert len(findings) == 2

    def test_min_events_guards_small_samples(self):
        rule = AbortRateBurnRate()  # min_events=8
        events = [self._resolution(i, 50.0 * i, i, aborted=True) for i in range(7)]
        assert feed(rule, events) == []

    def test_replica_resolutions_ignored(self):
        rule = AbortRateBurnRate()
        events = [
            make_event(i, 50.0 * i, 1, "aborted", VirtualTime(i, 0)) for i in range(20)
        ]
        assert feed(rule, events) == []

    def _notify_pair(self, seq, counter, commit_ms, lag_ms):
        vt = VirtualTime(counter, 0)
        return [
            make_event(seq, commit_ms, 0, "committed", vt, ops=1),
            make_event(seq + 1, commit_ms + lag_ms, 1, "view_notified", vt,
                       mode="pessimistic", kind="commit", changed=1),
        ]

    def test_sustained_notify_lag_burn_fires(self):
        rule = NotifyLagBurnRate(slo_ms=120.0)
        events = []
        for i in range(10):
            events.extend(self._notify_pair(2 * i, i, 100.0 * i, lag_ms=200.0))
        findings = feed(rule, events)
        assert len(findings) == 1
        assert findings[0].rule == "notify_lag_burn_rate"

    def test_within_slo_notifications_never_fire(self):
        rule = NotifyLagBurnRate(slo_ms=120.0)
        events = []
        for i in range(10):
            events.extend(self._notify_pair(2 * i, i, 100.0 * i, lag_ms=50.0))
        assert feed(rule, events) == []

    def test_notification_without_recorded_commit_is_ignored(self):
        rule = NotifyLagBurnRate(slo_ms=120.0)
        vt = VirtualTime(1, 0)
        event = make_event(0, 500.0, 1, "view_notified", vt,
                           mode="pessimistic", kind="commit", changed=1)
        assert rule.observe(event) == []

    def test_burn_rules_factory_and_default_rules_unchanged(self):
        rules = burn_rules(notify_slo_ms=99.0, abort_objective=0.8)
        assert [type(r) for r in rules] == [NotifyLagBurnRate, AbortRateBurnRate]
        assert rules[0].slo_ms == 99.0
        assert rules[1].objective == 0.8
        # Burn rules are opt-in: default reports stay byte-stable.
        assert [type(r).__name__ for r in default_rules()] == [
            "AbortRateSpike", "StragglerCascade", "NotifyLagSLO", "RepairStall",
        ]

    def test_live_equals_replay_with_burn_rules(self):
        events = [
            self._resolution(i, 50.0 * i, i, aborted=(i % 2 == 0)) for i in range(40)
        ]
        live = HealthMonitor(burn_rules())
        for event in events:
            live(event)
        offline = run_health(events, rules=burn_rules())
        assert live.report().to_json() == offline.to_json()
        assert offline.by_rule().get("abort_rate_burn_rate") == 1

    def test_health_cli_burn_rate_flag_is_deterministic(self, capsys):
        from repro.cli import main

        outputs = []
        for _run in range(2):
            code = main(["health", "--seed", "0", "--trials", "1", "--json",
                         "--burn-rate"])
            assert code in (0, 1)
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])  # well-formed report


class TestHealthMonitorDeterminism:
    def test_live_subscription_equals_offline_replay(self):
        """A monitor subscribed live to the bus and an offline run over the
        recorded timeline produce byte-identical reports."""
        config = sample_config(0, 0, mutations=(), faults=True)
        live = HealthMonitor()
        result = run_trial(config, observe=True, subscribers=(live,))
        live_report = live.report()
        offline_report = run_health(result.events)
        assert live_report.to_json() == offline_report.to_json()

    def test_campaign_with_faults_fires_detectors_deterministically(self):
        """Acceptance: over an explorer campaign with injected faults the
        straggler-cascade and notify-lag detectors fire, and the same seed
        yields an identical HealthReport."""
        reports = []
        for _run in range(2):
            fired = {}
            # Trial 7 is the first whose blind writes put a CONFIRM-READ round
            # trip past the notify-lag SLO; a read-modify-write's view is
            # confirmed by its COMMIT and no longer lags that far.
            for index in range(8):
                config = sample_config(0, index, mutations=(), faults=True)
                monitor = HealthMonitor()
                run_trial(config, subscribers=(monitor,))
                fired[index] = monitor.report().to_json()
            reports.append(fired)
        assert reports[0] == reports[1]
        all_rules = set()
        for report_json in reports[0].values():
            report = json.loads(report_json)
            all_rules.update(report["by_rule"])
        assert "straggler_cascade" in all_rules
        assert "notify_lag_slo" in all_rules

    def test_report_shape_and_status(self):
        config = sample_config(0, 0, mutations=(), faults=True)
        monitor = HealthMonitor()
        run_trial(config, subscribers=(monitor,))
        report = monitor.report()
        doc = report.to_dict()
        assert doc["format"] == "repro-health/1"
        assert doc["status"] in ("ok", "info", "warning", "critical")
        assert doc["events_seen"] == report.events_seen > 0
        assert sum(doc["by_rule"].values()) == len(doc["findings"])
        text = report.format_text()
        assert text.startswith("health:")

    def test_monitor_finish_is_idempotent(self):
        monitor = HealthMonitor([RepairStall(threshold_ms=1000.0)])
        monitor.observe(make_event(0, 0.0, 2, "failure_notice", failed_site=1))
        first = monitor.report()
        second = monitor.report()
        assert first.to_json() == second.to_json()
        assert len(first.findings) == 1


class TestHealthCli:
    def test_health_command_fires_and_is_deterministic(self, capsys):
        from repro.cli import main

        outputs = []
        for _run in range(2):
            code = main(["health", "--seed", "0", "--trials", "1", "--json"])
            assert code == 1  # findings present
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        doc = json.loads(outputs[0])
        assert doc["status"] in ("warning", "critical")
        assert doc["findings"] > 0
        rules = set()
        for report in doc["reports"]:
            rules.update(report["by_rule"])
        assert "straggler_cascade" in rules or "notify_lag_slo" in rules

    def test_health_quiet_text_mode(self, capsys):
        from repro.cli import main

        code = main(["health", "--seed", "0", "--trials", "1", "--quiet"])
        out = capsys.readouterr().out
        assert code == 1
        # Quiet mode skips the summary line but still lists findings.
        assert not out.startswith("health:")
        assert "trial 0:" in out
