"""Invariant oracles checked after every explorer trial reaches quiescence.

Ground truth is reconstructed from the surviving sites' commit status maps:
a transaction is *committed* iff some live site recorded a summary COMMIT
for its VT, and the status maps of live sites must agree.  From the
committed workload transactions, applied in VT order, the oracles derive
the unique serial outcome every replica and every pessimistic view must
exhibit:

``effect``       committed transactions have serializable effect: each
                 object's converged committed value equals the serial
                 replay of the committed writes in VT order.
``convergence``  all live replicas hold identical committed state
                 (state digests match pairwise).
``residue``      no protocol state leaks past quiescence: no unresolved
                 guesses, no reservations owned by aborted transactions,
                 no undelivered pessimistic snapshots.
``status``       no transaction is committed at one live site and aborted
                 at another.
``pessimistic``  every pessimistic view saw exactly the committed writes,
                 losslessly, in strictly monotonic VT order, each shown
                 value matching the serial reconstruction at that VT, and
                 nothing uncommitted or aborted was ever delivered.
``optimistic``   every optimistic view was eventually superseded to the
                 committed outcome (its last notification shows the
                 converged committed value).

Failed sites are excluded: fail-stop semantics make no promises about a
dead site's final state.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.transaction import TxnState
from repro.explore.trial import KIND_WRITES, TRIAL_OBJECTS, VIEW_OBJECTS, TrialResult, TxnInfo
from repro.vtime import VT_TOP, VirtualTime


@dataclass
class Violation:
    """One oracle failure, with enough detail to aim a debugger."""

    oracle: str
    site: Optional[int]
    obj: Optional[str]
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {"oracle": self.oracle, "site": self.site, "obj": self.obj, "detail": self.detail}

    def __str__(self) -> str:
        where = f"site={self.site}" if self.site is not None else "global"
        target = f" obj={self.obj}" if self.obj else ""
        return f"[{self.oracle}] {where}{target}: {self.detail}"


def _ground_truth(result: TrialResult) -> Tuple[Set[VirtualTime], Set[VirtualTime], List[Violation]]:
    """(committed VTs, aborted VTs, status-agreement violations) per live sites."""
    committed: Set[VirtualTime] = set()
    aborted: Set[VirtualTime] = set()
    committed_at: Dict[VirtualTime, int] = {}
    aborted_at: Dict[VirtualTime, int] = {}
    for site in result.live_sites():
        for vt, state in site.engine.resolved():
            if state is TxnState.COMMITTED:
                committed.add(vt)
                committed_at.setdefault(vt, site.site_id)
            elif state is TxnState.ABORTED:
                aborted.add(vt)
                aborted_at.setdefault(vt, site.site_id)
    violations = [
        Violation(
            oracle="status",
            site=None,
            obj=None,
            detail=(
                f"txn {vt} committed at site {committed_at[vt]} "
                f"but aborted at site {aborted_at[vt]}"
            ),
        )
        for vt in sorted(committed & aborted, key=lambda v: v.key)
    ]
    return committed, aborted, violations


def _committed_writers(
    result: TrialResult, committed: Set[VirtualTime]
) -> Dict[str, List[Tuple[VirtualTime, TxnInfo]]]:
    """Per object: committed workload writes as (vt, info), VT-sorted."""
    writers: Dict[str, List[Tuple[VirtualTime, TxnInfo]]] = {name: [] for name, _ in TRIAL_OBJECTS}
    for info in result.infos:
        outcome = info.outcome
        if outcome is None or outcome.vt is None or outcome.vt not in committed:
            continue
        for name in KIND_WRITES[info.kind]:
            writers[name].append((outcome.vt, info))
    for entries in writers.values():
        entries.sort(key=lambda pair: pair[0].key)
    return writers


def _reconstruct(
    name: str, initial: int, entries: List[Tuple[VirtualTime, TxnInfo]]
) -> List[Tuple[VirtualTime, int]]:
    """Serial replay of the committed writes: (vt, value after vt)."""
    value = initial
    out: List[Tuple[VirtualTime, int]] = []
    for vt, info in entries:
        if name == "ctr":
            value += 1
        elif name == "board":
            value = info.value if info.value is not None else value
        elif name == "xa":
            value -= info.amount
        elif name == "xb":
            value += info.amount
        out.append((vt, value))
    return out


def _value_at(replay: List[Tuple[VirtualTime, int]], initial: int, ts: VirtualTime) -> int:
    """Reconstruction value as of ``ts`` (last committed write at or before)."""
    keys = [vt.key for vt, _ in replay]
    idx = bisect_right(keys, ts.key)
    return replay[idx - 1][1] if idx else initial


def check_trial(result: TrialResult) -> List[Violation]:
    """Run the full oracle battery; returns violations (empty = conforming)."""
    violations: List[Violation] = []
    live = result.live_sites()
    if not live:
        return violations  # everything crashed; nothing is promised

    committed, aborted, status_violations = _ground_truth(result)
    violations.extend(status_violations)

    writers = _committed_writers(result, committed)
    initials = dict(TRIAL_OBJECTS)
    replays = {
        name: _reconstruct(name, initials[name], writers[name]) for name, _ in TRIAL_OBJECTS
    }
    finals = {
        name: (replays[name][-1][1] if replays[name] else initials[name])
        for name, _ in TRIAL_OBJECTS
    }

    # A transaction the initiator saw commit must not be aborted per the
    # surviving sites' ground truth (and vice versa when the initiator is
    # still alive to be asked).
    live_ids = {site.site_id for site in live}
    for info in result.infos:
        outcome = info.outcome
        if outcome is None or outcome.vt is None or info.site not in live_ids:
            continue
        if outcome.committed and outcome.vt not in committed:
            violations.append(
                Violation(
                    oracle="status",
                    site=info.site,
                    obj=None,
                    detail=f"initiator saw {outcome.vt} commit but no live site logged it",
                )
            )

    # -- effect + convergence ------------------------------------------
    for site in live:
        for name, _initial in TRIAL_OBJECTS:
            obj = result.objects[name][site.site_id]
            actual = obj.value_at(VT_TOP, committed_only=True)
            if actual != finals[name]:
                violations.append(
                    Violation(
                        oracle="effect",
                        site=site.site_id,
                        obj=name,
                        detail=(
                            f"committed value {actual!r} != serial replay {finals[name]!r} "
                            f"({len(writers[name])} committed writes)"
                        ),
                    )
                )
    reference = live[0].state_digest()
    for site in live[1:]:
        digest = site.state_digest()
        if digest != reference:
            diff_keys = sorted(
                k
                for k in set(reference) | set(digest)
                if reference.get(k) != digest.get(k)
            )
            violations.append(
                Violation(
                    oracle="convergence",
                    site=site.site_id,
                    obj=None,
                    detail=(
                        f"state digest differs from site {live[0].site_id} "
                        f"on keys {diff_keys[:6]}"
                    ),
                )
            )

    # -- residue --------------------------------------------------------
    for site in live:
        residue = site.protocol_residue()
        for category in sorted(residue):
            items = residue[category]
            violations.append(
                Violation(
                    oracle="residue",
                    site=site.site_id,
                    obj=None,
                    detail=f"{category}: {items[:4]} ({len(items)} total)",
                )
            )

    # -- view oracles ---------------------------------------------------
    if result.config.views:
        for site in live:
            for name in VIEW_OBJECTS:
                view = result.pess_views.get((site.site_id, name))
                if view is not None:
                    violations.extend(
                        _check_pessimistic(
                            site.site_id,
                            name,
                            view.log,
                            committed,
                            aborted,
                            writers[name],
                            replays[name],
                            initials[name],
                        )
                    )
                opt = result.opt_views.get((site.site_id, name))
                if opt is not None and opt.log and opt.log[-1][1] != finals[name]:
                    violations.append(
                        Violation(
                            oracle="optimistic",
                            site=site.site_id,
                            obj=name,
                            detail=(
                                f"last notification shows {opt.log[-1][1]!r} at "
                                f"{opt.log[-1][0]}, committed outcome is {finals[name]!r}"
                            ),
                        )
                    )
    return violations


def _check_pessimistic(
    site_id: int,
    name: str,
    log: List[Tuple[VirtualTime, Any]],
    committed: Set[VirtualTime],
    aborted: Set[VirtualTime],
    writer_entries: List[Tuple[VirtualTime, TxnInfo]],
    replay: List[Tuple[VirtualTime, int]],
    initial: int,
) -> List[Violation]:
    violations: List[Violation] = []

    def flag(detail: str) -> None:
        violations.append(Violation(oracle="pessimistic", site=site_id, obj=name, detail=detail))

    if not log:
        flag("no bootstrap notification")
        return violations

    vts = [ts for ts, _ in log]
    for prev, cur in zip(vts, vts[1:]):
        if not prev < cur:
            flag(f"non-monotonic delivery: {cur} after {prev}")

    bootstrap_ts = vts[0]
    delivered = set(vts[1:])
    for vt, _info in writer_entries:
        if vt > bootstrap_ts and vt not in delivered:
            flag(f"lossless violation: committed write {vt} never delivered")

    for ts, value in log[1:]:
        if ts in aborted:
            flag(f"delivered aborted transaction {ts} (value {value!r})")
        elif ts not in committed:
            flag(f"delivered {ts} with no committed status at any live site")
        expected = _value_at(replay, initial, ts)
        if value != expected:
            flag(f"value at {ts} is {value!r}, serial reconstruction says {expected!r}")
    return violations
