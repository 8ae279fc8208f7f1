"""Tests for the randomized-schedule conformance explorer.

Covers deterministic sampling, healthy campaigns, artifact replay
(byte-identity), shrinking, the CLI entry point, and a crafted
regression scenario: the coordinator double-failure.
"""

import hashlib
import json

import pytest

from repro.cli import main as cli_main
from repro.explore import (
    FaultEvent,
    PartySpec,
    TrialConfig,
    artifact_for,
    check_trial,
    replay_artifact,
    run_campaign,
    run_trial,
    sample_config,
    shrink_config,
)
from repro.explore.campaign import artifact_json, run_trial_violations


def mutated_config(**overrides):
    """A small trial the views_pre_commit canary reliably trips."""
    config = sample_config(0, 0, mutations=("views_pre_commit",))
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


class TestSampling:
    def test_same_seed_same_config(self):
        for index in range(5):
            assert (
                sample_config(3, index).to_dict() == sample_config(3, index).to_dict()
            )

    def test_different_indices_differ(self):
        dicts = [sample_config(0, i).to_dict() for i in range(8)]
        assert len({json.dumps(d, sort_keys=True) for d in dicts}) > 1

    def test_config_roundtrips_through_dict(self):
        config = sample_config(1, 4)
        assert TrialConfig.from_dict(config.to_dict()).to_dict() == config.to_dict()

    def test_faults_flag_suppresses_faults(self):
        assert sample_config(0, 3, faults=False).faults == []

    def test_unknown_fault_kind_rejected(self):
        # "drop" is not a fault: the simulated channel is reliable.
        for kind in ("meteor", "drop"):
            with pytest.raises(ValueError):
                FaultEvent.from_dict({"at_ms": 0.0, "kind": kind, "args": {}})

    def test_unknown_party_kind_rejected(self):
        spec = sample_config(0, 0).parties[0].to_dict()
        spec["kind"] = "chaos"
        with pytest.raises(ValueError):
            PartySpec.from_dict(spec)

    def test_sampled_plans_are_pinned(self):
        # The first 500 plans of seed 7, byte for byte: a change to the
        # fault kinds or the sampler that shifts any sampled trial (and so
        # every campaign and corpus artifact) fails here first.
        configs = [sample_config(7, i).to_dict() for i in range(500)]
        blob = json.dumps(configs, sort_keys=True).encode()
        assert sum(len(c["faults"]) for c in configs) == 797
        assert hashlib.sha256(blob).hexdigest() == (
            "be00d47646af56a38e428f1ff76445816a892ccbed194924b544c9479e847120"
        )


class TestCampaign:
    def test_healthy_campaign_has_no_violations(self):
        result = run_campaign(trials=25, seed=0)
        assert result.ok, result.summary()
        assert result.trials_run == 25
        assert "no violations" in result.summary()

    def test_campaign_is_deterministic(self):
        first = run_campaign(trials=2, seed=0, mutations=("views_pre_commit",))
        second = run_campaign(trials=2, seed=0, mutations=("views_pre_commit",))
        assert [f.index for f in first.failures] == [f.index for f in second.failures]
        assert first.failures, "canary campaign should violate"
        a = artifact_for(first.failures[0].config, first.failures[0].violations)
        b = artifact_for(second.failures[0].config, second.failures[0].violations)
        assert artifact_json(a) == artifact_json(b)

    def test_stop_at_first_stops_early(self):
        result = run_campaign(
            trials=50, seed=0, mutations=("views_pre_commit",), stop_at_first=True
        )
        assert result.failures
        assert result.trials_run < 50


class TestParkedChecks:
    @pytest.mark.parametrize("index", [119, 168])
    def test_trial_parks_a_check_and_passes_every_oracle(self, index):
        """A primary parks a pessimistic check on uncommitted entries in its
        interval — with no fault (trial 119 of seed 7) and with a crash
        (168) — and every oracle passes.  No exhaustive ``mc`` config of
        tier-1 reaches a parked check."""
        result = run_trial(sample_config(7, index))
        assert any(site.metrics.value("view.checks_parked") for site in result.sites)
        assert check_trial(result) == []


class TestArtifacts:
    def test_replay_is_byte_identical(self):
        config = mutated_config()
        violations = run_trial_violations(config)
        assert violations
        artifact = artifact_for(config, violations)
        # Round-trip through JSON text, as the CLI does with --replay.
        loaded = json.loads(artifact_json(artifact))
        regenerated, identical = replay_artifact(loaded)
        assert identical
        assert artifact_json(regenerated) == artifact_json(artifact)

    def test_replay_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            replay_artifact({"format": "not-an-artifact", "config": {}})

    def test_replay_with_embedded_timeline_is_byte_identical(self):
        """An artifact carrying the failing trial's event timeline still
        replays byte-identically; the timeline is excluded from the
        replay-identity comparison but regenerated deterministically."""
        from repro.explore import capture_timeline, replay_identity

        config = mutated_config()
        violations = run_trial_violations(config)
        timeline = capture_timeline(config)
        assert timeline, "an observed violating trial must record events"
        artifact = artifact_for(config, violations, timeline=timeline)
        loaded = json.loads(artifact_json(artifact))
        assert loaded["timeline"] == timeline

        regenerated, identical = replay_artifact(loaded)
        assert identical
        # Timeline is deterministic too: the replay regenerated it equal.
        assert regenerated["timeline"] == timeline
        assert artifact_json(regenerated) == artifact_json(artifact)
        # The identity comparison ignores the timeline: stripping it (or
        # corrupting it) must not change the replay verdict.
        assert replay_identity(artifact) == replay_identity(
            artifact_for(config, violations)
        )
        tampered = dict(loaded)
        tampered["timeline"] = []
        _, still_identical = replay_artifact(tampered)
        assert still_identical

    def test_observation_does_not_perturb_outcomes(self):
        """Observed and unobserved runs of one config reach identical
        violations and committed state (zero-overhead contract, causal
        half: recording must never change the schedule)."""
        config = mutated_config()
        plain = run_trial(config)
        observed = run_trial(config, observe=True)
        assert not plain.session.bus.events
        assert observed.events
        assert [str(v) for v in check_trial(plain)] == [str(v) for v in check_trial(observed)]
        assert [s.state_digest() for s in plain.live_sites()] == [
            s.state_digest() for s in observed.live_sites()
        ]


class TestShrinking:
    def test_shrinker_removes_superfluous_faults(self):
        # The mutation alone violates; any sampled faults are superfluous
        # noise the shrinker must strip, plus two planted jitter events.
        config = mutated_config()
        config.faults = list(config.faults) + [
            FaultEvent(
                at_ms=30.0,
                kind="jitter",
                args={"src": 0, "dst": 1, "low_ms": 20.0, "high_ms": 50.0},
            ),
            FaultEvent(
                at_ms=60.0,
                kind="jitter",
                args={"src": 1, "dst": 0, "low_ms": 20.0, "high_ms": 50.0},
            ),
        ]
        shrunk, violations = shrink_config(config)
        assert violations, "shrinking must preserve the violation"
        assert shrunk.faults == []

    def test_shrink_of_clean_config_is_identity(self):
        config = sample_config(0, 0)
        shrunk, violations = shrink_config(config)
        assert violations == []
        assert shrunk is config

    def test_without_fault_removes_whole_group(self):
        config = sample_config(0, 0, faults=False)
        config.faults = [
            FaultEvent(at_ms=10.0, kind="partition", args={"group_a": [0], "group_b": [1]}, group=1),
            FaultEvent(at_ms=20.0, kind="crash", args={"site": 0}, group=1),
            FaultEvent(at_ms=40.0, kind="heal", args={}, group=1),
            FaultEvent(at_ms=5.0, kind="jitter", args={"src": 0, "dst": 1, "low_ms": 1.0, "high_ms": 2.0}),
        ]
        remaining = config.without_fault(1).faults
        assert [f.kind for f in remaining] == ["jitter"]


class TestDoubleFailureRegression:
    """Coordinator dies while its failure-resolution queries for an earlier
    failed site are still in flight (paper section 3.4's hardest case).

    Site 3 crashes at 120ms (notification at 125ms); site 0 — the minimum
    survivor, hence the coordinator resolving site 3's transactions —
    crashes at 128ms, after sending its resolution queries (~125ms) but
    before the replies arrive (~133ms).  The surviving sites must elect
    the next coordinator, finish the resolution, repair the replication
    graphs, and converge with no protocol residue.
    """

    CONFIG = {
        "n_sites": 4,
        "latency": {"kind": "fixed", "ms": 8.0},
        "net_seed": 11,
        "parties": [
            {"site": 1, "kind": "rmw", "count": 5, "arrival": "uniform",
             "interval_ms": 30.0, "start_ms": 0.0, "arrival_seed": 1, "amount": 1},
            {"site": 2, "kind": "rmw", "count": 5, "arrival": "uniform",
             "interval_ms": 30.0, "start_ms": 10.0, "arrival_seed": 2, "amount": 1},
            {"site": 3, "kind": "xfer", "count": 3, "arrival": "uniform",
             "interval_ms": 40.0, "start_ms": 5.0, "arrival_seed": 3, "amount": 1},
        ],
        "faults": [
            {"at_ms": 120.0, "kind": "crash", "args": {"site": 3, "notify_after_ms": 5.0}},
            {"at_ms": 128.0, "kind": "crash", "args": {"site": 0, "notify_after_ms": 5.0}},
        ],
        "mutations": [],
        "views": True,
        "max_events": 5_000_000,
        "label": "double-failure-regression",
    }

    def test_survivors_converge_without_violations(self):
        config = TrialConfig.from_dict(self.CONFIG)
        result = run_trial(config)
        violations = check_trial(result)
        assert violations == [], [str(v) for v in violations]
        assert [s.site_id for s in result.live_sites()] == [1, 2]
        # Both rmw parties ran to completion despite losing two sites.
        values = {
            result.objects["ctr"][s.site_id].get() for s in result.live_sites()
        }
        assert values == {10}

    def test_scenario_replays_from_artifact(self):
        config = TrialConfig.from_dict(self.CONFIG)
        artifact = artifact_for(config, run_trial_violations(config))
        _, identical = replay_artifact(json.loads(artifact_json(artifact)))
        assert identical


class TestExploreCli:
    def test_healthy_campaign_exits_zero(self, capsys):
        assert cli_main(["explore", "--trials", "3", "--seed", "0"]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_violation_writes_artifact_and_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "violation.json"
        code = cli_main(
            [
                "explore", "--trials", "3", "--seed", "0",
                "--mutate", "views_pre_commit", "--stop-at-first", "--shrink",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert out.exists()
        artifact = json.loads(out.read_text())
        assert artifact["format"] == "repro-explore/1"
        assert artifact["violations"]
        assert "views_pre_commit" in artifact["config"]["mutations"]
        # The failing trial's event timeline rides along for debugging.
        assert artifact["timeline"]
        assert {e["kind"] for e in artifact["timeline"]} >= {"txn_submitted", "committed"}

    def test_timeline_out_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "violation.json"
        trace_out = tmp_path / "trace.json"
        code = cli_main(
            [
                "explore", "--trials", "1", "--seed", "0",
                "--mutate", "views_pre_commit",
                "--out", str(out), "--timeline-out", str(trace_out),
            ]
        )
        assert code == 1
        document = json.loads(trace_out.read_text())
        assert document["traceEvents"]
        assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_replay_mode_round_trips(self, tmp_path, capsys):
        out = tmp_path / "violation.json"
        cli_main(
            [
                "explore", "--trials", "1", "--seed", "0",
                "--mutate", "views_pre_commit", "--out", str(out),
            ]
        )
        capsys.readouterr()  # discard the campaign's own output
        code = cli_main(["explore", "--replay", str(out), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["byte_identical"] is True
        assert summary["violations"] > 0

    def test_json_summary(self, capsys):
        assert cli_main(["explore", "--trials", "2", "--seed", "0", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == {
            "trials": 2,
            "seed": 0,
            "mutations": [],
            "violating_trials": [],
            "artifact": None,
            "timeline": None,
        }
