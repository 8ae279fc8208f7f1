"""Bounded-exhaustive model checker (repro.explore.mc).

Covers: deterministic enumeration (same config -> byte-identical schedule
set and stats), POR soundness by full-vs-reduced cross-check, a clean
verdict on the healthy protocol, each mutation canary caught at the
smallest config exposing it, schedule-artifact replay byte-identity, and
the bounding knobs (fault rejection, max_schedules truncation, fixed-
schedule divergence errors).
"""

import json

import pytest

from repro.errors import ReproError
from repro.explore.campaign import artifact_json
from repro.explore.mc import (
    CANARY_CONFIGS,
    canary_config,
    cross_check,
    explore,
    mc_artifact_for,
    replay_mc_artifact,
    run_schedule,
    terminal_fingerprint,
)
from repro.explore.plan import FaultEvent, exhaustive_config


def tiny(views=False, mutations=()):
    return exhaustive_config(2, [(0, "rmw"), (1, "rmw")], views=views, mutations=mutations)


# ----------------------------------------------------------------------
# Determinism and enumeration
# ----------------------------------------------------------------------


def test_exploration_is_deterministic():
    a = explore(tiny(), por=True, keep_schedules=True)
    b = explore(tiny(), por=True, keep_schedules=True)
    assert a.stats.to_dict() == b.stats.to_dict()
    assert a.schedules == b.schedules
    assert sorted(a.outcomes) == sorted(b.outcomes)


def test_full_and_por_explore_same_terminal_states():
    full = explore(tiny(), por=False)
    red = explore(tiny(), por=True)
    assert full.exhausted and red.exhausted
    assert full.stats.schedules > red.stats.schedules  # reduction is real
    assert set(full.outcomes) == set(red.outcomes)  # and lossless
    assert full.violation_keys() == red.violation_keys()


def test_every_schedule_is_distinct_and_replayable():
    result = explore(tiny(), por=False, keep_schedules=True)
    seen = {tuple(map(tuple, s)) for s in result.schedules}
    assert len(seen) == result.stats.schedules
    # Each enumerated schedule replays to a terminal state the DFS saw.
    fingerprints = set(result.outcomes)
    for schedule in result.schedules:
        assert terminal_fingerprint(run_schedule(tiny(), schedule)) in fingerprints


def test_healthy_protocol_is_clean_exhaustively():
    result = explore(tiny(views=True), por=True)
    assert result.exhausted
    assert result.ok, [str(v) for vs in result.outcomes.values() for v in vs]


def test_cross_check_proves_por_sound_on_tiny_config():
    verdict = cross_check(tiny())
    assert verdict["violations_match"]
    assert verdict["outcomes_match"]
    assert 0 < verdict["por_schedules"] <= verdict["full_schedules"]


def test_canonical_rmw_space_is_small_and_por_sound():
    # A read-modify-write's pessimistic snapshot is confirmed by the
    # transaction's own COMMIT, so the canonical config carries no
    # CONFIRM-READ traffic to interleave, and a turn's messages to one
    # destination travel as one envelope, one choice point: 7 unreduced
    # schedules (11 with one frame per message, 4,428 when every snapshot
    # also sent its own check), 3 under POR.
    verdict = cross_check(tiny(views=True))
    assert verdict["violations_match"]
    assert verdict["outcomes_match"]
    assert (verdict["full_schedules"], verdict["por_schedules"]) == (7, 3)


@pytest.mark.slow
def test_cross_check_2s2t_with_views_meets_reduction_target():
    # Two blind writers, views attached.  Each site's first snapshot still
    # sends its CONFIRM-READ — that is what tells the primary it is watched
    # — so the request/reply path, the vouch on the COMMIT and the withheld
    # check are all inside the exhaustively checked space.  POR must cover
    # the same outcomes and violations while exploring at most 30% of the
    # unreduced interleavings.  With every snapshot asking (fcb0218) the
    # same config took 1,116 / 8 schedules for 4 outcomes, and with one
    # frame per message (e220fc5) 286 / 7 for 4.  An envelope delivers a
    # turn's messages to one site at once, so the one outcome that needed
    # another delivery between two of them is no longer reachable.
    config = exhaustive_config(2, [(0, "blind"), (1, "blind")], views=True)
    verdict = cross_check(config)
    assert verdict["violations_match"]
    assert verdict["outcomes_match"]
    assert verdict["ratio"] <= 0.30
    full, reduced = verdict["full"], verdict["reduced"]
    assert full.ok and reduced.ok
    assert (full.stats.schedules, reduced.stats.schedules) == (15, 4)
    assert full.stats.distinct_outcomes == reduced.stats.distinct_outcomes == 3
    assert full.stats.schedule_digest == "a80482406e82a168"
    assert reduced.stats.schedule_digest == "40f00d43cba25c30"


@pytest.mark.slow
def test_third_party_wait_for_a_vouching_commit_is_clean_exhaustively():
    # Site 1 blind-writes twice, site 0 is the primary, site 2 only watches:
    # whenever the first COMMIT (vouched for, thanks to site 1's own
    # CONFIRM-READ travelling ahead of its propagate) reaches site 2 before
    # the second propagate, site 2 withholds its check and waits for the
    # second COMMIT.  Every schedule, all six oracles — and the space
    # provably contains that wait.
    config = exhaustive_config(3, ((1, "blind"), (1, "blind")), views=True)
    result = explore(config, por=True, keep_schedules=True)
    assert result.exhausted
    assert result.ok, [str(v) for vs in result.outcomes.values() for v in vs]
    assert (result.stats.schedules, result.stats.distinct_outcomes) == (104, 2)  # 274 unbatched
    assert any(
        run_schedule(config, schedule).sites[2].metrics.value("view.rl_confirmed_by_commit")
        for schedule in result.schedules
    )


@pytest.mark.slow
def test_third_party_view_confirmed_by_commit_is_clean_exhaustively():
    # Site 1 neither writes nor is primary: its pessimistic views are
    # confirmed by COMMIT alone while a straggler (the other writer's
    # propagate) may still be in flight.  Every schedule, all six oracles.
    config = exhaustive_config(3, ((2, "rmw"), (0, "rmw")), views=True)
    result = explore(config, por=True)
    assert result.exhausted
    assert result.ok, [str(v) for vs in result.outcomes.values() for v in vs]
    assert (result.stats.schedules, result.stats.distinct_outcomes) == (18, 9)  # 40 unbatched


@pytest.mark.slow
def test_parked_primary_check_is_clean_exhaustively():
    # One read-modify-write per site, no retries, views at site 1 only.
    # Site 2's write can read site 1's while it is undecided: its propagate
    # then carries an RC guess, and it stays undecided at the primary until
    # site 2's COMMIT.  When site 0's write reaches site 1 first, site 1's
    # check of the interval below it finds site 2's write undecided at the
    # primary and parks there.  Every schedule, all six oracles (the
    # unreduced space, over 8,000 schedules, is too large to cross-check).
    config = exhaustive_config(
        3, ((1, "rmw"), (2, "rmw"), (0, "rmw")), view_sites=(1,), max_retries=0
    )
    result = explore(config, por=True, keep_schedules=True)
    assert result.exhausted
    assert result.ok, [str(v) for vs in result.outcomes.values() for v in vs]
    assert (result.stats.schedules, result.stats.distinct_outcomes) == (724, 55)
    assert result.stats.schedule_digest == "2563fa024b7a1255"
    assert any(
        run_schedule(config, schedule).sites[0].metrics.value("view.checks_parked")
        for schedule in result.schedules
    )


# ----------------------------------------------------------------------
# Mutation canaries
# ----------------------------------------------------------------------


def _assert_caught(mutation):
    spec = CANARY_CONFIGS[mutation]
    result = explore(canary_config(mutation), por=True, stop_on_violation=True)
    assert not result.ok, f"{mutation} not caught"
    oracles = {key[0] for key in result.violation_keys()}
    assert oracles <= spec["oracles"], f"{mutation} reported by unexpected oracles {oracles}"


def test_mc_catches_skip_rl_check():
    _assert_caught("skip_rl_check")


@pytest.mark.slow
def test_mc_catches_skip_nc_check():
    # Needs 3 sites: with 2, one transaction is primary-local and Lamport
    # receive-bumps put its VT above any delivered propagate, so no
    # reachable schedule writes inside another txn's reserved interval.
    _assert_caught("skip_nc_check")


def test_mc_catches_views_pre_commit():
    _assert_caught("views_pre_commit")


def test_mc_catches_vouch_without_reserve():
    # Needs a primary with no pessimistic view of its own (its local
    # snapshot reservation would stand in for the missing one), hence the
    # config's ``view_sites``.
    _assert_caught("vouch_without_reserve")


def test_healthy_canary_configs_are_clean():
    # The canary configs themselves must be violation-free without the
    # mutation — otherwise "caught" would be vacuous.
    for mutation, spec in CANARY_CONFIGS.items():
        if spec["n_sites"] > 2:
            continue  # 3-site healthy sweep is covered by the slow tests
        healthy = exhaustive_config(spec["n_sites"], spec["txns"], views=spec["views"])
        result = explore(healthy, por=True)
        assert result.ok, f"healthy {mutation} config violates: {result.violating()}"


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------


def test_mc_artifact_replays_byte_identically():
    result = explore(tiny(mutations=("skip_rl_check",)), por=True)
    assert not result.ok
    _fp, schedule, violations = result.violating()[0]
    artifact = mc_artifact_for(tiny(mutations=("skip_rl_check",)), schedule, violations)
    # Round-trip through JSON text, as the CLI does.
    loaded = json.loads(artifact_json(artifact))
    regenerated, identical = replay_mc_artifact(loaded)
    assert identical
    assert regenerated["violations"] == loaded["violations"]


def test_mc_artifact_rejects_unknown_format():
    with pytest.raises(ReproError):
        replay_mc_artifact({"format": "bogus/9", "config": {}, "schedule": []})


def test_run_schedule_rejects_diverging_schedule():
    result = explore(tiny(), por=False, keep_schedules=True)
    schedule = list(result.schedules[0])
    schedule[0] = ("msg", 99, 98, 0)  # never enabled
    with pytest.raises(ReproError):
        run_schedule(tiny(), schedule)


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------


def test_explore_rejects_faulty_configs():
    config = tiny()
    config.faults.append(FaultEvent(at_ms=10.0, kind="crash", args={"site": 1}))
    with pytest.raises(ReproError):
        explore(config)


def test_max_schedules_truncates_and_reports_it():
    result = explore(tiny(views=True), por=False, max_schedules=5)
    assert not result.exhausted
    assert result.stats.schedules == 5


def test_stop_on_violation_short_circuits():
    result = explore(
        tiny(mutations=("skip_rl_check",)), por=False, stop_on_violation=True
    )
    assert not result.ok
    assert not result.exhausted
    full = explore(tiny(mutations=("skip_rl_check",)), por=False)
    assert result.stats.runs <= full.stats.runs
