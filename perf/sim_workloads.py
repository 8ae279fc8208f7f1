"""The two simulator workloads: no codec, no sockets — ``core`` and ``sim`` only.

A *round* builds a fresh ``Session.simulated`` (real association /
invitation / join protocol), attaches an optimistic and a pessimistic view
to every replica, schedules a fixed plan of Poisson arrivals derived from
the seed, and runs the discrete-event scheduler to quiescence.  Every round
of one run replays the same plan, so the counts a round produces
(attempts, messages, events) must repeat exactly — that is asserted — and
the rounds' timings are repeated measurements of the same quantities, of
which the run reports the least disturbed (:func:`best_replay`).  Rounds
repeat until ``--seconds`` of measured time have passed.

Wall-clock latencies here are *replay* latencies: how long the simulator
took to get from ``transact()`` to the callback, i.e. the CPU cost of the
events in between.  Latencies in units of the message delay, which is what
the paper plots, are the ``sim.*`` / ``views.*_simms_*`` per-layer metrics.
"""

from __future__ import annotations

import gc
import random
from array import array
from statistics import median
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro import DInt, Session
from repro.workloads import (
    BlindWriteWorkload,
    PoissonArrivals,
    ReadModifyWriteWorkload,
    TransferWorkload,
)

from perf import gate
from perf.common import (
    GcWatch,
    Seen,
    Slice,
    StampView,
    end_to_end,
    notify_rows,
    percentile,
    whole,
)
from perf.layers import TracedWindow
from perf.trace import Tracer

#: The injected one-way message delay; every simulated latency is a multiple.
DELAY_MS = 20.0

#: Set-ups timed per run besides the one each round does.
EXTRA_SETUPS = 5

#: A party is (writing site index, workload factory).
Parties = List[Tuple[int, Callable[[], Callable[[], None]]]]


@dataclass(frozen=True)
class SimSpec:
    sites: int
    objects: int
    txns_per_round: int
    mean_interval_delays: float
    parties: Callable[[Sequence[Sequence[Any]]], Parties]


def _fanout_parties(replicas: Sequence[Sequence[Any]]) -> Parties:
    """Site i blind-writes its own replica of object i: reads nothing, so no
    concurrency test can fail and attempts_per_commit is exactly 1."""
    return [(i, BlindWriteWorkload(objs[i], party_tag=i + 1)) for i, objs in enumerate(replicas)]


def _contended_parties(replicas: Sequence[Sequence[Any]]) -> Parties:
    """Two hot objects, four sites: odd sites read-modify-write one object,
    even sites transfer between both, so every transaction reads what
    another site is writing (RL/NC denials, rollback, retry)."""
    first, second = replicas
    return [
        (0, TransferWorkload(first[0], second[0])),
        (1, ReadModifyWriteWorkload(first[1])),
        (2, TransferWorkload(second[2], first[2])),
        (3, ReadModifyWriteWorkload(second[3])),
    ]


SPECS: Dict[str, SimSpec] = {
    "sim_fanout_blind": SimSpec(
        sites=8, objects=8, txns_per_round=1200, mean_interval_delays=1.0,
        parties=_fanout_parties,
    ),
    # 16 delays between arrivals on purpose.  With this layout the knee is
    # near 8 (about 3 attempts per commit, and 2.4 to 3.6 depending on the
    # seed; 15 and more with both read-modify-writers on one object): there
    # the run measures the retry policy, not the engine.  At 16 about one
    # transaction in four is rolled back and retried.  The plan is long
    # because the p95 latencies are those of retried transactions and depend
    # on the plan: over ten seeds they spread by 17 % with 3,200 transactions.
    "sim_contended_rmw": SimSpec(
        sites=4, objects=2, txns_per_round=6400, mean_interval_delays=16.0,
        parties=_contended_parties,
    ),
}


@dataclass
class Round:
    """One build-and-replay of the plan."""

    setup_s: float
    window: Slice
    traced: bool
    spans: Tuple[int, int]  # the replay's range in the tracer's recording
    opt_seen: List[Seen]  # per replica
    pess_seen: List[Seen]
    #: Differences over the replay: ``Session.counters()`` plus ``messages``
    #: (network), ``events`` (scheduler), ``view_updates``, ``view_commits``.
    counters: Dict[str, int]
    problems: List[str]

    @property
    def exact(self) -> Tuple[int, int, int, int]:
        """The counts that must repeat bit-for-bit from round to round."""
        counters = self.counters
        return (sum(self.window.attempts), self.window.commits, counters["messages"], counters["events"])

    def notify(self, seen: List[Seen], sim: bool = False) -> Tuple[List[float], List[float]]:
        """Notification latencies at every replica other than the writer's."""
        window = self.window
        return notify_rows(
            window,
            lambda row: (s for replica, s in enumerate(seen) if replica != window.origin[row]),
            sim,
        )


@dataclass
class Built:
    """A joined session with its views attached, and how long that took."""

    session: Session
    sites: List[Any]
    replicas: List[List[Any]]  # [object][site]
    views: List[StampView]
    opt_seen: List[Seen]  # per site
    pess_seen: List[Seen]
    setup_s: float


def build(spec: SimSpec, seed: int) -> Built:
    gc.collect()  # the previous session, so that its collection is not timed as set-up
    start = perf_counter()
    session = Session.simulated(latency_ms=DELAY_MS, seed=seed)
    sites = session.add_sites(spec.sites)
    replicas = [session.replicate(DInt, f"obj{i}", sites) for i in range(spec.objects)]
    opt_seen: List[Seen] = [{} for _ in sites]
    pess_seen: List[Seen] = [{} for _ in sites]
    views: List[StampView] = []
    for objs in replicas:
        for index, obj in enumerate(objs):
            for mode, seen in (("optimistic", opt_seen), ("pessimistic", pess_seen)):
                view = StampView(seen[index], session.transport.now)
                obj.attach(view, mode=mode)
                views.append(view)
    session.settle()
    return Built(session, sites, replicas, views, opt_seen, pess_seen, perf_counter() - start)


def run_round(
    spec: SimSpec, seed: int, txns: int, tracer: Tracer, traced: bool, gc_watch: GcWatch
) -> Round:
    built = build(spec, seed)
    session, sites, replicas, views = built.session, built.sites, built.replicas, built.views

    scheduler, network = session.scheduler, session.network
    window = Slice()
    rng = random.Random(seed)
    parties = spec.parties(replicas)
    arrivals = PoissonArrivals(spec.mean_interval_delays * DELAY_MS)
    for index, workload in parties:
        site = sites[index]

        def fire(site=site, index=index, workload=workload) -> None:
            body = workload()
            window.issue(perf_counter(), index, lambda: site.transact(body))

        for due in arrivals.times(txns // len(parties), rng):
            scheduler.call_at(scheduler.now + due, fire)
    planned = (txns // len(parties)) * len(parties)

    def counts() -> Dict[str, int]:
        return dict(
            session.counters(),
            messages=network.stats.messages_sent,
            events=scheduler.events_processed,
            view_updates=sum(view.updates for view in views),
            view_commits=sum(view.commits for view in views),
        )

    gc.collect()
    before = counts()
    first_span = len(tracer)
    tracer.on = traced
    with gc_watch:
        window.begin()
        session.settle()
        window.end()
    tracer.on = False

    after = counts()
    committed = window.commits
    aborted = sum(1 for outcome in window.unresolved.values() if outcome.aborted_no_retry)
    problems = gate.replica_group_problems("sim", sites)
    if not network.stats.reconcile():
        problems.append("sim: NetworkStats.reconcile() failed")
    if len(window) != planned or committed + aborted != planned:
        problems.append(
            f"sim: planned {planned}, issued {len(window)}, "
            f"committed {committed} + aborted {aborted}"
        )
    return Round(
        setup_s=built.setup_s,
        window=window,
        traced=traced,
        spans=(first_span, len(tracer)),
        opt_seen=built.opt_seen,
        pess_seen=built.pess_seen,
        counters={key: value - before.get(key, 0) for key, value in after.items()},
        problems=problems,
    )


def least(columns: Sequence[Sequence[float]]) -> List[float]:
    """Element by element, the lowest value among equally long columns."""
    return [min(values) for values in zip(*columns)]


def best_replay(windows: Sequence[Slice]) -> Slice:
    """One window made of the least disturbed replay of every part of the plan.

    Every round replays the same plan, event for event, so op *i* of one round
    is op *i* of the next and the rounds differ only by what disturbed them.
    Best-of-N is therefore applied per piece rather than per round: an op's
    latency is the lowest it had in any round, and the window's wall and CPU
    time are summed over the stretches between every ``GROUP``-th commit,
    each stretch counted at its lowest.  A burst of outside interference
    then has to hit the same stretch of every round to show.
    """
    first = windows[0]
    best = Slice()
    best.t0, best.origin, best.vt = first.t0, first.origin, first.vt
    best.attempts, best.start_ms, best.commit_ms = first.attempts, first.start_ms, first.commit_ms
    best.unresolved = first.unresolved
    best.commit_s = array("d", least([window.commit_s for window in windows]))

    def stretches(window: Slice, clock: int) -> List[float]:
        begin = (window.wall0, window.cpu0)
        end = (window.wall0 + window.wall_s, window.cpu0 + window.cpu_s)
        marks = [begin] + window.completions() + [end]
        return [after[clock] - before[clock] for before, after in zip(marks, marks[1:])]

    best.wall_s = sum(least([stretches(window, 0) for window in windows]))
    best.cpu_s = sum(least([stretches(window, 1) for window in windows]))
    return best


def run(name: str, seed: int, seconds: float, traced: bool, quick: bool) -> Dict[str, Any]:
    spec = SPECS[name]
    txns = spec.txns_per_round // 16 if quick else spec.txns_per_round
    tracer = Tracer()
    if traced:
        tracer.install([StampView])
    rounds: List[Round] = []
    gc_watch = GcWatch()  # armed during the measured replays only
    # Warm-up: a short replay, discarded (imports, caches, allocator arenas).
    run_round(spec, seed, max(txns // 4, 8), tracer, False, GcWatch())
    # Set-up is short here, so it is repeated on its own as well as in every round.
    setup_s = [build(spec, seed).setup_s for _ in range(1 if quick else EXTRA_SETUPS)]
    measured = 0.0
    # A traced run alternates untraced and traced rounds so the two halves
    # of trace.overhead_ratio are interleaved in time.
    while measured < seconds or len(rounds) < 2:
        rounds.append(
            run_round(spec, seed, txns, tracer, traced and len(rounds) % 2 == 1, gc_watch)
        )
        measured += rounds[-1].window.wall_s
    tracer.uninstall()

    problems = [problem for rnd in rounds for problem in rnd.problems]
    if len({rnd.exact for rnd in rounds}) != 1:
        problems.append(
            "sim: exact counts (attempts, commits, msgs, events) differ between rounds: "
            f"{sorted({rnd.exact for rnd in rounds})}"
        )
    result: Dict[str, Any] = {
        "attempted": sum(len(rnd.window) for rnd in rounds),
        "failed": sum(rnd.window.failed for rnd in rounds),
        "problems": problems,
        "notes": [f"{len(rounds)} rounds of {txns} planned txns, delay {DELAY_MS:g} ms, no sockets"],
    }
    if not traced:
        # Percentiles are over the whole plan: a quiet *group* here would
        # just be a lull in the arrivals.
        opt = [rnd.notify(rnd.opt_seen) for rnd in rounds]
        pess = [rnd.notify(rnd.pess_seen) for rnd in rounds]
        result["metrics"], result["samples"] = end_to_end(
            best_replay([rnd.window for rnd in rounds]),
            (opt[0][0], least([latencies for _t0s, latencies in opt])),
            (pess[0][0], least([latencies for _t0s, latencies in pess])),
            median(setup_s + [rnd.setup_s for rnd in rounds]),
            whole,
        )
        return result

    on = [rnd for rnd in rounds if rnd.traced]
    off = [rnd for rnd in rounds if not rnd.traced]
    totals: Dict[str, Tuple[int, float]] = {}
    for rnd in on:
        for key, (count, total) in tracer.self_times(*rnd.spans).items():
            have = totals.get(key, (0, 0.0))
            totals[key] = (have[0] + count, have[1] + total)
    commits = sum(rnd.window.commits for rnd in on)
    commit_simms = sorted(ms for rnd in on for ms in rnd.window.commit_ms if ms == ms)
    counters: Dict[str, int] = {}
    for rnd in on:
        for key, value in rnd.counters.items():
            counters[key] = counters.get(key, 0) + value
    events = counters["events"]
    result["traced"] = TracedWindow(
        totals=totals,
        commits=commits,
        cpu_s=sum(rnd.window.cpu_s for rnd in on),
        counters=counters,  # no frames: the simulated network has no codec
        untraced_cpu_us_per_commit=(
            sum(rnd.window.cpu_s for rnd in off) * 1e6 / sum(rnd.window.commits for rnd in off)
        ),
        commit_wall_s=sorted(s for rnd in on for s in rnd.window.commit_s if s == s),
        gc=gc_watch,
        extra={
            "views.opt_lag_simms_p50": median(
                ms for rnd in on for ms in rnd.notify(rnd.opt_seen, sim=True)[1]
            ),
            "views.pess_lag_simms_p50": median(
                ms for rnd in on for ms in rnd.notify(rnd.pess_seen, sim=True)[1]
            ),
            "sim.msgs_per_commit": counters["messages"] / commits,
            "sim.events_per_commit": events / commits,
            "sim.self_us_per_event": totals.get("sim.run", (0, 0.0))[1] * 1e6 / max(events, 1),
            "sim.commit_latency_simms_p50": percentile(commit_simms, 0.50),
            "sim.commit_latency_simms_p95": percentile(commit_simms, 0.95),
        },
    )
    result["tracer"] = tracer
    return result
