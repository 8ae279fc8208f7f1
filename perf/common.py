"""Measurement helpers shared by the simulator and socket workloads.

The harness keeps its own samples in ``array`` columns and plain tuples of
numbers, which CPython's cyclic collector does not have to traverse: with
1,000 tenants a generation-2 collection already pauses the process for a
few hundred milliseconds, and every collector-tracked object the benchmark
retained per transaction would make those pauses longer and more frequent
than the system under test does on its own.
"""

from __future__ import annotations

import gc
import math
import resource
import time
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import View

#: Seconds of load run and discarded before every timed window.
WARMUP_S = 0.5

#: The latency charged to an op that never committed (or, for a percentile
#: with no sample at all, to the percentile): longer than any drain
#: deadline, so a failed op misses every latency limit yet stays a number.
MISSED_S = 60.0

#: VT key -> (wall seconds, transport ms) at which a view first showed it.
Seen = Dict[Tuple[int, int], Tuple[float, float]]


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not ordered:
        return MISSED_S
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def rss_kb() -> float:
    """Current resident set size (Linux ``/proc``), in KiB."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 1024.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GcWatch:
    """Times every collection through ``gc.callbacks`` (pauses are stop-the-world)."""

    def __init__(self) -> None:
        self.gen2_collections = 0
        self.pause_total_s = 0.0
        self.gen2_pause_max_s = 0.0
        self._start = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._start = perf_counter()
            return
        pause = perf_counter() - self._start
        self.pause_total_s += pause
        if info["generation"] == 2:
            self.gen2_collections += 1
            self.gen2_pause_max_s = max(self.gen2_pause_max_s, pause)

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._callback)


class StampView(View):
    """The benchmark's view: stamps when each transaction's value is first shown.

    Notifications are keyed by the snapshot's virtual time, which for the
    notification that first shows a transaction's write is that
    transaction's VT — the same key the writer reads from ``outcome.vt`` —
    so a notify latency needs no side channel between writer and view.
    ``last`` is the value most recently shown, which the correctness gate
    compares with the last value written.
    """

    def __init__(self, seen: Seen, now_ms: Callable[[], float]) -> None:
        self.seen = seen
        self.now_ms = now_ms
        self.last: Any = None
        self.updates = 0
        self.commits = 0

    def update(self, changed, snapshot) -> None:
        self.updates += 1
        key = snapshot.ts.key
        if key not in self.seen:
            self.seen[key] = (perf_counter(), self.now_ms())
        for obj in changed:
            self.last = snapshot.read(obj)

    def commit(self) -> None:
        self.commits += 1


class Slice:
    """Everything measured during one contiguous slice of a window.

    One row per transaction issued, in columns: ``t0`` is the wall time its
    latencies are measured from (the *due* time on an open loop),
    ``origin`` the index of the replica (simulator) or tenant (sockets) it
    was written at.  The commit callback fills in the rest and drops the
    reference to the outcome, so ``unresolved`` holds exactly the ops that
    have not committed.
    """

    def __init__(self) -> None:
        self.t0 = array("d")
        self.origin = array("l")
        self.commit_s = array("d")  # wall seconds from t0 to on_commit; NaN until then
        self.cpu_at = array("d")  # process CPU clock at on_commit
        self.commit_ms = array("d")  # the outcome's own commit latency, transport ms
        self.start_ms = array("d")  # transport time of the first attempt
        self.attempts = array("l")
        self.vt: List[Optional[Tuple[int, int]]] = []  # key of the attempt that committed
        self.unresolved: Dict[int, Any] = {}
        self.wall0 = self.cpu0 = 0.0  # both clocks at begin()
        self.wall_s = self.cpu_s = 0.0  # elapsed on both between begin() and end()

    def begin(self) -> None:
        self.wall0 = perf_counter()
        self.cpu0 = time.process_time()

    def end(self) -> None:
        self.wall_s = perf_counter() - self.wall0
        self.cpu_s = time.process_time() - self.cpu0

    def issue(self, t0: float, origin: int, transact: Callable[[], Any]) -> Any:
        """Run ``transact`` (which returns the outcome) and record the op."""
        index = len(self.t0)
        self.t0.append(t0)
        self.origin.append(origin)
        self.commit_s.append(math.nan)
        self.cpu_at.append(math.nan)
        self.commit_ms.append(math.nan)
        self.start_ms.append(math.nan)
        self.attempts.append(0)
        self.vt.append(None)
        outcome = transact()
        self.unresolved[index] = outcome

        def on_commit(outcome: Any) -> None:
            self.commit_s[index] = perf_counter() - t0
            self.cpu_at[index] = time.process_time()
            self.commit_ms[index] = outcome.commit_latency_ms
            self.start_ms[index] = outcome.start_time_ms
            self.attempts[index] = outcome.attempts
            self.vt[index] = outcome.vt.key
            del self.unresolved[index]

        outcome.on_commit(on_commit)
        return outcome

    def __len__(self) -> int:
        return len(self.t0)

    @property
    def commits(self) -> int:
        return len(self.t0) - len(self.unresolved)

    @property
    def failed(self) -> int:
        """Ops aborted without retry or still unresolved (read after the drain)."""
        return len(self.unresolved)

    @property
    def cpu_us_per_commit(self) -> float:
        return self.cpu_s * 1e6 / max(self.commits, 1)

    def committed_rows(self) -> List[int]:
        return [index for index, key in enumerate(self.vt) if key is not None]

    def completions(self) -> List[Tuple[float, float]]:
        """(wall clock, CPU clock) at every ``GROUP``-th commit, in completion order."""
        done = sorted(
            (self.t0[row] + self.commit_s[row], self.cpu_at[row]) for row in self.committed_rows()
        )
        return done[GROUP - 1::GROUP]


def notify_rows(
    part: Slice, seen_of_row: Callable[[int], Iterable[Seen]], sim: bool = False
) -> Tuple[List[float], List[float]]:
    """(t0, latency) of every notification of a committed op at a remote
    view: ``seen_of_row(row)`` yields the stamp maps of the views that
    should have been shown that op.  ``sim`` selects transport milliseconds
    (exact in the simulator) over wall seconds.

    An op a view never showed yields no sample: optimistic views may
    legally supersede an intermediate value, so a miss is not a failure.
    """
    t0s: List[float] = []
    latencies: List[float] = []
    for row in part.committed_rows():
        for seen in seen_of_row(row):
            stamp = seen.get(part.vt[row])
            if stamp is not None:
                t0s.append(part.t0[row])
                latencies.append(stamp[1] - part.start_ms[row] if sim else stamp[0] - part.t0[row])
    return t0s, latencies


#: Samples per group for :func:`quiet`: p95 of 250 leaves 12 samples beyond it.
GROUP = 250


def quiet(t0s: Sequence[float], values: Sequence[float], q: float) -> float:
    """The ``q`` percentile of the window's *quietest* stretch: samples are
    taken in the order their ops started, cut into consecutive groups of
    ``GROUP``, each group's percentile is computed, and the lowest is reported.

    Everything that disturbs a run from outside — another guest on the same
    machine, a scheduler hiccup — only ever adds latency, and on this kind of
    host it comes in phases that last seconds to minutes: whole-window p95
    of one unchanged program read 0.44 to 0.91 ms over eight runs, the
    lowest group's 0.37 to 0.43 ms.  The lowest group is the best available
    estimate of what the program does when left alone, and it moves when
    the program's own per-op cost moves, because that is present in every
    group.  What it leaves out by construction is anything clustered in
    time, including the program's own collector pauses; those are reported
    whole-window as ``runtime.commit_p99_ms`` / ``runtime.gc_*``, and their
    cost is in ``commits_per_s`` and ``cpu_s_per_kcommit``, which are never
    grouped.  A window shorter than one group is one group.
    """
    if not values:
        return MISSED_S
    ordered = [value for _t0, value in sorted(zip(t0s, values))]
    groups = [ordered[i:i + GROUP] for i in range(0, len(ordered) - GROUP + 1, GROUP)] or [ordered]
    return min(percentile(sorted(group), q) for group in groups)


def undisturbed(window: Slice) -> Tuple[float, float]:
    """(commits per second, CPU seconds per commit) of a closed-loop window's
    best stretch.

    Commits are taken in completion order and cut into consecutive groups of
    ``GROUP``; a group's rate is its size over the wall time it spans, its
    CPU cost the process CPU time it spans over its size.  The highest rate
    and the lowest cost are returned — the same reasoning as :func:`quiet`:
    outside interference lowers the rate and, through the shared cache,
    raises the CPU time of the very same instructions (``tcp_turn_1client``
    over eight runs: whole-window 2,180 to 2,540 commits/s and 0.38 to
    0.45 ms CPU per commit; best group 2,860 to 2,950 and 0.34 to 0.35).
    Generation-2 collections, one per 2 to 10 s here, fall outside the best
    group; they are ``runtime.gc_*``.  A window shorter than two groups is
    taken whole.

    Only for a closed loop, where all the work for a commit lies between two
    completions of its client.  On an open loop a stall is followed by a
    burst of completions whose work was done earlier, and the best "group"
    is that burst.
    """
    marks = window.completions()
    if len(marks) < 3:
        return window.commits / window.wall_s, window.cpu_s / max(window.commits, 1)
    pairs = list(zip(marks, marks[1:]))
    return (
        max(GROUP / (b[0] - a[0]) for a, b in pairs),
        min((b[1] - a[1]) / GROUP for a, b in pairs),
    )


def whole(t0s: Sequence[float], values: Sequence[float], q: float) -> float:
    """The ``q`` percentile of all the samples (same signature as :func:`quiet`)."""
    return percentile(sorted(values), q)


def end_to_end(
    window: Slice,
    opt: Tuple[List[float], List[float]],
    pess: Tuple[List[float], List[float]],
    setup_s: float,
    tail: Callable[[Sequence[float], Sequence[float], float], float],
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """The end-to-end metrics of one window, and the sample count behind
    each percentile; ``tail`` is :func:`quiet` or :func:`whole`.  A failed
    op (never committed) misses every latency limit: it enters the commit
    samples as ``MISSED_S`` rather than being dropped."""
    commit_s = [MISSED_S if math.isnan(value) else value for value in window.commit_s]
    commits = max(window.commits, 1)
    metrics = {
        "setup_s": setup_s,
        "commits_per_s": window.commits / window.wall_s,
        "cpu_s_per_kcommit": window.cpu_s * 1000.0 / commits,
        "commit_p50_ms": tail(window.t0, commit_s, 0.50) * 1e3,
        "commit_p95_ms": tail(window.t0, commit_s, 0.95) * 1e3,
        "notify_opt_p50_ms": tail(*opt, 0.50) * 1e3,
        "notify_opt_p95_ms": tail(*opt, 0.95) * 1e3,
        "notify_pess_p50_ms": tail(*pess, 0.50) * 1e3,
        "notify_pess_p95_ms": tail(*pess, 0.95) * 1e3,
        "attempts_per_commit": sum(window.attempts) / commits,
        "peak_rss_mb": peak_rss_mb(),
    }
    counts = {
        "commit_p50_ms": len(commit_s), "commit_p95_ms": len(commit_s),
        "notify_opt_p50_ms": len(opt[1]), "notify_opt_p95_ms": len(opt[1]),
        "notify_pess_p50_ms": len(pess[1]), "notify_pess_p95_ms": len(pess[1]),
    }
    return metrics, counts
