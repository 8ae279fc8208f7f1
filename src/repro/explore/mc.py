"""Bounded-exhaustive schedule model checker with partial-order reduction.

Where the campaign runner (:mod:`repro.explore.campaign`) *samples* one
seeded schedule per trial, this module *enumerates* every message-delivery /
transaction-arrival interleaving of a small fault-free
:class:`~repro.explore.plan.TrialConfig` and runs the full oracle battery
(:func:`~repro.explore.oracles.check_trial`) at every quiescent terminal
state.  A clean exhaustive run is a proof: *no schedule of this config
violates any oracle* — the statement no randomized campaign can make.

Exploration is stateless, in the spirit of model-checking optimistic
replication: checkpoint/restore is replay.  Each execution re-runs the
trial from its config under a :class:`~repro.sim.choice.ScheduleController`
whose strategy replays the current DFS prefix and then extends it
first-candidate-deep until quiescence.  Event keys are stable across
replays (channel/party/timer sequence numbers), so the DFS tree needs only
the frames of the current path.

Partial-order reduction uses *sleep sets* (Godefroyd): two events are
independent iff they target different sites — delivering to site A and
delivering to site B commute because each handler mutates only its own
site's state and emits sends on disjoint ``(src, dst)`` channels.  After a
branch under event ``e`` is fully explored at a node, ``e`` goes to sleep
for the node's remaining branches and stays asleep down any path whose
events are all independent of it; a branch whose every enabled event is
asleep is pruned (its terminals are reachable — and explored — elsewhere).
Sleep sets preserve every reachable terminal state, so the reduced run
reports the same violations as the full one; :func:`cross_check` proves
that equivalence empirically for a given config.

Terminal states are deduped by :func:`terminal_fingerprint` — a canonical
digest of everything the oracles inspect (per-site status maps and state
digests, workload outcomes, view logs, protocol residue) — so the oracle
battery runs once per distinct outcome, not once per schedule.

Violations come out as replayable ``repro-mc/1`` artifacts: config plus the
exact event schedule, replayed byte-identically by
:func:`replay_mc_artifact`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.explore.oracles import Violation, check_trial
from repro.explore.plan import TrialConfig, exhaustive_config
from repro.explore.trial import TrialResult, run_trial
from repro.sim.choice import EventKey, PruneBranch, ScheduleController

MC_ARTIFACT_FORMAT = "repro-mc/1"

#: The four protocol-mutation canaries, each with the smallest exhaustive
#: config that exposes it (found by descending config size until detection
#: was lost) and the oracles allowed to report it.
CANARY_CONFIGS: Dict[str, Dict[str, Any]] = {
    "skip_rl_check": {
        "n_sites": 2,
        "txns": ((0, "rmw"), (1, "rmw")),
        "views": False,
        "oracles": {"effect", "convergence", "optimistic", "pessimistic", "status"},
    },
    # NC needs both conflicting transactions *remote* from the primary:
    # a primary-local transaction's VT is Lamport-bumped above any
    # delivered propagate, so with 2 sites no reachable schedule puts a
    # write inside another transaction's reserved interval.
    "skip_nc_check": {
        "n_sites": 3,
        "txns": ((1, "rmw"), (2, "rmw")),
        "views": False,
        "oracles": {"effect", "convergence", "optimistic", "pessimistic", "status"},
    },
    "views_pre_commit": {
        "n_sites": 2,
        "txns": ((0, "rmw"), (1, "rmw")),
        "views": True,
        "oracles": {"pessimistic"},
    },
    # A vouch is relied on only by a replica that saw an earlier one, so
    # the writer (site 2) needs two blind writes; the straggler comes from
    # the lower site id, whose VT sorts below the second write's at equal
    # clocks.  Views at the writer only: a pessimistic view at the primary
    # reserves every snapshot interval locally and would hide the missing
    # reservation, and site 1's would only widen the space.
    "vouch_without_reserve": {
        "n_sites": 3,
        "txns": ((2, "blind"), (2, "blind"), (1, "blind")),
        "views": True,
        "view_sites": (2,),
        "oracles": {"pessimistic"},
    },
}


class NondeterministicReplay(ReproError):
    """A replayed prefix presented a different enabled set — the trial is
    not a deterministic function of (config, schedule prefix), which breaks
    the stateless DFS.  Always a bug, never a user error."""


def canary_config(mutation: str) -> TrialConfig:
    """The smallest exhaustive config known to expose ``mutation``."""
    spec = CANARY_CONFIGS.get(mutation)
    if spec is None:
        raise ReproError(
            f"unknown canary {mutation!r}; expected one of {sorted(CANARY_CONFIGS)}"
        )
    return exhaustive_config(
        spec["n_sites"],
        spec["txns"],
        views=spec["views"],
        view_sites=spec.get("view_sites"),
        mutations=(mutation,),
        label=f"mc-canary-{mutation}",
    )


# ----------------------------------------------------------------------
# Independence relation
# ----------------------------------------------------------------------


def target_site(config: TrialConfig, key: EventKey) -> int:
    """The site whose state an event mutates when fired.

    Deliveries mutate the destination, arrivals the submitting party's
    site, timers the deferring site.
    """
    kind = key[0]
    if kind == "msg":
        return key[2]
    if kind == "txn":
        return config.parties[key[1]].site
    if kind == "tmr":
        return key[1]
    raise ReproError(f"unknown event key {key!r}")


def independent(config: TrialConfig, a: EventKey, b: EventKey) -> bool:
    """Whether firing order of ``a`` and ``b`` cannot affect any state.

    Conservative: events commute iff they target *different* sites.  Two
    same-site events always conflict (they share the site's Lamport clock,
    engine tables, and object histories); two different-site events
    commute because each mutates only its own site and appends sends to
    disjoint outgoing channels.
    """
    return target_site(config, a) != target_site(config, b)


# ----------------------------------------------------------------------
# Terminal-state fingerprinting
# ----------------------------------------------------------------------


def terminal_fingerprint(result: TrialResult) -> str:
    """Canonical digest of everything the oracle battery inspects.

    Two schedules with equal fingerprints are indistinguishable to
    :func:`~repro.explore.oracles.check_trial` — per-site commit status,
    converged state digests, workload outcomes, recorded view logs, and
    protocol residue all match — so oracles run once per fingerprint.
    Workload records are keyed by party (not global submission order):
    arrival order of *independent* parties is schedule-dependent, their
    outcomes are not.
    """
    doc: Dict[str, Any] = {"label": result.config.label}
    status: Dict[str, Any] = {}
    digests: Dict[str, Any] = {}
    residue: Dict[str, Any] = {}
    for site in result.live_sites():
        sid = str(site.site_id)
        status[sid] = sorted(
            (str(vt), state.value) for vt, state in site.engine.resolved()
        )
        digests[sid] = sorted(
            (key, list(vt_key), value)
            for key, (vt_key, value) in site.state_digest().items()
        )
        residue[sid] = {k: list(v) for k, v in sorted(site.protocol_residue().items())}
    doc["status"] = status
    doc["digests"] = digests
    doc["residue"] = residue

    infos: List[Tuple[Any, ...]] = []
    for info in result.infos:
        outcome = info.outcome
        infos.append(
            (
                info.party,
                info.site,
                info.kind,
                info.value,
                info.amount,
                None if outcome is None or outcome.vt is None else str(outcome.vt),
                None if outcome is None else bool(outcome.committed),
                None if outcome is None else bool(outcome.aborted_no_retry),
            )
        )
    doc["infos"] = sorted(infos)
    doc["pess"] = {
        f"{sid}:{name}": [(str(ts), repr(value)) for ts, value in view.log]
        for (sid, name), view in sorted(result.pess_views.items())
    }
    doc["opt"] = {
        f"{sid}:{name}": [(str(ts), repr(value)) for ts, value in view.log]
        for (sid, name), view in sorted(result.opt_views.items())
    }
    payload = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


# ----------------------------------------------------------------------
# DFS strategies
# ----------------------------------------------------------------------


@dataclass
class _Frame:
    """One node on the current DFS path."""

    enabled: Tuple[EventKey, ...]
    candidates: List[EventKey]
    idx: int = 0
    done: Set[EventKey] = field(default_factory=set)
    sleep: FrozenSet[EventKey] = frozenset()

    @property
    def chosen(self) -> EventKey:
        return self.candidates[self.idx]


class _DFSStrategy:
    """Replays the shared DFS stack, then extends it first-candidate-deep."""

    def __init__(self, stack: List[_Frame], config: TrialConfig, por: bool) -> None:
        self.stack = stack
        self.config = config
        self.por = por

    def choose(self, depth: int, enabled: List[EventKey]) -> EventKey:
        stack = self.stack
        if depth < len(stack):
            frame = stack[depth]
            if frame.enabled != tuple(enabled):
                raise NondeterministicReplay(
                    f"depth {depth}: replay enabled set {enabled!r} "
                    f"!= recorded {list(frame.enabled)!r}"
                )
            return frame.chosen
        sleep: FrozenSet[EventKey] = frozenset()
        if self.por and depth > 0:
            parent = stack[-1]
            asleep = parent.sleep | parent.done
            sleep = frozenset(
                t for t in asleep if independent(self.config, t, parent.chosen)
            )
        candidates = [key for key in enabled if key not in sleep]
        if not candidates:
            raise PruneBranch
        stack.append(_Frame(enabled=tuple(enabled), candidates=candidates, sleep=sleep))
        return candidates[0]


class _FixedStrategy:
    """Replays one recorded schedule exactly (artifact replay)."""

    def __init__(self, schedule: Sequence[EventKey]) -> None:
        self.schedule = [tuple(key) for key in schedule]

    def choose(self, depth: int, enabled: List[EventKey]) -> EventKey:
        if depth >= len(self.schedule):
            raise ReproError(
                f"schedule exhausted at depth {depth} but events still "
                f"enabled: {enabled!r}"
            )
        key = self.schedule[depth]
        if key not in enabled:
            raise ReproError(
                f"depth {depth}: scheduled event {key!r} not enabled "
                f"(enabled: {enabled!r})"
            )
        return key


# ----------------------------------------------------------------------
# Exploration
# ----------------------------------------------------------------------


@dataclass
class MCStats:
    """Counters from one exploration (all deterministic per config)."""

    runs: int = 0  # trial executions (= schedules + pruned branches)
    schedules: int = 0  # complete interleavings reaching quiescence
    pruned: int = 0  # branches cut by sleep sets
    deduped: int = 0  # terminal states skipped as already-seen fingerprints
    distinct_outcomes: int = 0  # unique terminal fingerprints
    max_depth: int = 0  # longest schedule (choice events)
    schedule_digest: str = ""  # sha256 over the ordered schedule set

    def to_dict(self) -> Dict[str, Any]:
        return {
            "runs": self.runs,
            "schedules": self.schedules,
            "pruned": self.pruned,
            "deduped": self.deduped,
            "distinct_outcomes": self.distinct_outcomes,
            "max_depth": self.max_depth,
            "schedule_digest": self.schedule_digest,
        }


@dataclass
class MCResult:
    """Outcome of one bounded-exhaustive exploration."""

    config: TrialConfig
    por: bool
    exhausted: bool  # False iff --max-schedules stopped the DFS early
    stats: MCStats
    #: fingerprint -> oracle violations at that terminal state (empty list
    #: for conforming outcomes); deterministic iteration via sorted().
    outcomes: Dict[str, List[Violation]] = field(default_factory=dict)
    #: fingerprint -> the first schedule that reached it (replay evidence).
    examples: Dict[str, List[EventKey]] = field(default_factory=dict)
    #: Every explored schedule in DFS order (only with keep_schedules=True).
    schedules: Optional[List[List[EventKey]]] = None

    @property
    def ok(self) -> bool:
        return all(not v for v in self.outcomes.values())

    def violating(self) -> List[Tuple[str, List[EventKey], List[Violation]]]:
        """(fingerprint, example schedule, violations) per violating outcome."""
        return [
            (fp, self.examples[fp], self.outcomes[fp])
            for fp in sorted(self.outcomes)
            if self.outcomes[fp]
        ]

    def violation_keys(self) -> FrozenSet[Tuple[Any, ...]]:
        """Canonical set of violations across all outcomes (for cross-checks)."""
        return frozenset(
            (v.oracle, v.site, v.obj, v.detail)
            for violations in self.outcomes.values()
            for v in violations
        )

    def summary(self) -> str:
        s = self.stats
        mode = "POR" if self.por else "full"
        tail = "" if self.exhausted else " [truncated by --max-schedules]"
        bad = sum(1 for v in self.outcomes.values() if v)
        return (
            f"{mode}: {s.schedules} schedules ({s.pruned} pruned, "
            f"{s.deduped} deduped -> {s.distinct_outcomes} distinct outcomes, "
            f"{bad} violating){tail}"
        )


def explore(
    config: TrialConfig,
    por: bool = True,
    max_schedules: Optional[int] = None,
    max_steps: int = 4096,
    keep_schedules: bool = False,
    stop_on_violation: bool = False,
) -> MCResult:
    """Enumerate every schedule of ``config``; oracle-check each outcome.

    Depth-first and stateless: each loop iteration replays the current DFS
    prefix from the config and extends it to quiescence, then backtracks
    the deepest frame with an unexplored candidate.  With ``por`` (the
    default), sleep sets skip interleavings equivalent to ones already
    explored; ``por=False`` enumerates the unreduced space (cross-checks,
    reduction measurements).  ``max_schedules`` bounds the run — the
    result's ``exhausted`` flag records whether the space was covered.
    ``stop_on_violation`` ends the DFS at the first violating outcome
    (canary mode: existence of a violation, not full enumeration).
    Deterministic: the same arguments always produce byte-identical stats,
    schedules, and outcomes.
    """
    if config.faults:
        raise ReproError("exhaustive exploration requires a fault-free config")
    stack: List[_Frame] = []
    stats = MCStats()
    result = MCResult(config=config, por=por, exhausted=True, stats=stats)
    if keep_schedules:
        result.schedules = []
    digest = hashlib.sha256()

    while True:
        stats.runs += 1
        controller = ScheduleController(
            _DFSStrategy(stack, config, por), max_steps=max_steps
        )
        trial = run_trial(config, controller=controller)
        if controller.pruned:
            stats.pruned += 1
        else:
            stats.schedules += 1
            stats.max_depth = max(stats.max_depth, len(controller.trace))
            digest.update(repr(controller.trace).encode())
            if result.schedules is not None:
                result.schedules.append(list(controller.trace))
            fp = terminal_fingerprint(trial)
            if fp in result.outcomes:
                stats.deduped += 1
            else:
                result.outcomes[fp] = check_trial(trial)
                result.examples[fp] = list(controller.trace)
                if stop_on_violation and result.outcomes[fp]:
                    result.exhausted = False
                    stats.distinct_outcomes = len(result.outcomes)
                    stats.schedule_digest = digest.hexdigest()[:16]
                    return result

        # Backtrack: advance the deepest frame with an unexplored candidate.
        while stack:
            frame = stack[-1]
            frame.done.add(frame.chosen)
            frame.idx += 1
            if frame.idx < len(frame.candidates):
                break
            stack.pop()
        if not stack:
            break
        if max_schedules is not None and stats.schedules >= max_schedules:
            result.exhausted = False
            break

    stats.distinct_outcomes = len(result.outcomes)
    stats.schedule_digest = digest.hexdigest()[:16]
    return result


def cross_check(
    config: TrialConfig, max_steps: int = 4096, keep_schedules: bool = False
) -> Dict[str, Any]:
    """Prove POR soundness on ``config`` by exhaustive comparison.

    Runs the unreduced and the sleep-set explorations to completion and
    compares (a) the violation sets and (b) the terminal-state fingerprint
    sets — sleep sets must preserve every reachable terminal state, so
    both must match exactly.  Returns the two results plus the measured
    reduction ratio.
    """
    full = explore(config, por=False, max_steps=max_steps, keep_schedules=keep_schedules)
    reduced = explore(config, por=True, max_steps=max_steps, keep_schedules=keep_schedules)
    return {
        "full": full,
        "reduced": reduced,
        "full_schedules": full.stats.schedules,
        "por_schedules": reduced.stats.schedules,
        "ratio": (
            reduced.stats.schedules / full.stats.schedules
            if full.stats.schedules
            else 0.0
        ),
        "violations_match": full.violation_keys() == reduced.violation_keys(),
        "outcomes_match": set(full.outcomes) == set(reduced.outcomes),
    }


# ----------------------------------------------------------------------
# Replayable schedule artifacts
# ----------------------------------------------------------------------


def run_schedule(config: TrialConfig, schedule: Sequence[EventKey]) -> TrialResult:
    """Re-run ``config`` under exactly the recorded event ``schedule``."""
    controller = ScheduleController(_FixedStrategy(schedule), max_steps=len(schedule) + 1)
    return run_trial(config, controller=controller)


def mc_artifact_for(
    config: TrialConfig, schedule: Sequence[EventKey], violations: Sequence[Violation]
) -> Dict[str, Any]:
    """A self-contained, replayable record of one violating schedule."""
    return {
        "format": MC_ARTIFACT_FORMAT,
        "config": config.to_dict(),
        "schedule": [list(key) for key in schedule],
        "violations": [v.to_dict() for v in violations],
    }


def replay_mc_artifact(artifact: Dict[str, Any]) -> Tuple[Dict[str, Any], bool]:
    """Re-run the schedule stored in ``artifact``.

    Returns ``(regenerated_artifact, identical)`` where ``identical`` means
    the replay reproduced config + schedule + violations byte-for-byte.
    """
    from repro.explore.campaign import artifact_json

    if artifact.get("format") != MC_ARTIFACT_FORMAT:
        raise ReproError(f"unknown artifact format {artifact.get('format')!r}")
    config = TrialConfig.from_dict(artifact["config"])
    schedule = [tuple(key) for key in artifact["schedule"]]
    trial = run_schedule(config, schedule)
    regenerated = mc_artifact_for(config, schedule, check_trial(trial))
    return regenerated, artifact_json(regenerated) == artifact_json(artifact)
