"""Trial plans: sampled topologies, workloads, and fault schedules.

A :class:`TrialConfig` is a complete, JSON-serializable description of one
explorer trial.  Everything the trial does — latency sampling, arrival
times, fault injection — is derived from integers stored in the config, so
``from_dict(to_dict(c))`` replays the exact same schedule.

Fault-model soundness
---------------------

The sampler only emits faults under which the paper guarantees still hold,
so a violation on the healthy protocol is always a real bug:

* **jitter** — per-link latency perturbation.  Channels stay FIFO and
  reliable; only message interleaving across pairs changes.
* **crash** — fail-stop with the ISIS-style flush guarantee (messages the
  victim already handed to the transport still arrive, and the failure
  notification is ordered after them).  This is the infrastructure
  assumption of paper section 3.4.
* **partition + crash + heal** — disconnection presented as fail-stop: the
  victim is cut off (no *new* messages cross, in-flight ones still
  arrive: the only partition :class:`~repro.sim.network.Network` has),
  then crashes before the cut heals.  The cut is total, so per-pair FIFO
  is preserved.

These are the only fault kinds.  The channel never drops a message between
live, connected sites, so no plan can express a fault outside the paper's
model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

TXN_KINDS = ("rmw", "blind", "xfer")
ARRIVAL_KINDS = ("uniform", "poisson")
FAULT_KINDS = ("jitter", "crash", "partition", "heal")


@dataclass
class FaultEvent:
    """One scheduled fault: ``kind`` applied at ``at_ms`` after setup.

    ``group`` ties events that are only sound together (a partition and the
    crash/heal that make it fail-stop); the shrinker removes whole groups.
    """

    at_ms: float
    kind: str
    args: Dict[str, Any] = field(default_factory=dict)
    group: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"at_ms": self.at_ms, "kind": self.kind, "args": dict(self.args)}
        if self.group is not None:
            out["group"] = self.group
        return out

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "FaultEvent":
        kind = data["kind"]
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        return FaultEvent(
            at_ms=float(data["at_ms"]),
            kind=kind,
            args=dict(data.get("args", {})),
            group=data.get("group"),
        )


@dataclass
class PartySpec:
    """One site issuing ``count`` transactions of one kind."""

    site: int
    kind: str  # "rmw" | "blind" | "xfer"
    count: int
    arrival: str  # "uniform" | "poisson"
    interval_ms: float
    start_ms: float
    arrival_seed: int
    amount: int = 1  # transfer amount (xfer only)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "kind": self.kind,
            "count": self.count,
            "arrival": self.arrival,
            "interval_ms": self.interval_ms,
            "start_ms": self.start_ms,
            "arrival_seed": self.arrival_seed,
            "amount": self.amount,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "PartySpec":
        if data["kind"] not in TXN_KINDS:
            raise ValueError(f"unknown txn kind {data['kind']!r}")
        if data["arrival"] not in ARRIVAL_KINDS:
            raise ValueError(f"unknown arrival kind {data['arrival']!r}")
        return PartySpec(
            site=int(data["site"]),
            kind=data["kind"],
            count=int(data["count"]),
            arrival=data["arrival"],
            interval_ms=float(data["interval_ms"]),
            start_ms=float(data["start_ms"]),
            arrival_seed=int(data["arrival_seed"]),
            amount=int(data.get("amount", 1)),
        )


@dataclass
class TrialConfig:
    """A complete, replayable description of one explorer trial."""

    n_sites: int
    latency: Dict[str, Any]
    net_seed: int
    parties: List[PartySpec]
    faults: List[FaultEvent] = field(default_factory=list)
    mutations: Tuple[str, ...] = ()
    views: bool = True
    #: Sites that attach the recording views (``None``: every site).  A
    #: pessimistic view at a primary copy reserves every snapshot interval
    #: locally, which hides what the primary does for *remote* views alone.
    view_sites: Optional[Tuple[int, ...]] = None
    max_events: int = 5_000_000
    #: Transaction retry cap.  The campaign default (50) never binds in
    #: practice; exhaustive exploration lowers it (it is one of the bounds
    #: of bounded-exhaustive checking — every retry multiplies the
    #: schedule tree).
    max_retries: int = 50
    label: str = ""

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "n_sites": self.n_sites,
            "latency": dict(self.latency),
            "net_seed": self.net_seed,
            "parties": [p.to_dict() for p in self.parties],
            "faults": [f.to_dict() for f in self.faults],
            "mutations": list(self.mutations),
            "views": self.views,
            "max_events": self.max_events,
            "max_retries": self.max_retries,
            "label": self.label,
        }
        if self.view_sites is not None:
            out["view_sites"] = list(self.view_sites)
        return out

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "TrialConfig":
        return TrialConfig(
            n_sites=int(data["n_sites"]),
            latency=dict(data["latency"]),
            net_seed=int(data["net_seed"]),
            parties=[PartySpec.from_dict(p) for p in data["parties"]],
            faults=[FaultEvent.from_dict(f) for f in data.get("faults", [])],
            mutations=tuple(data.get("mutations", ())),
            views=bool(data.get("views", True)),
            view_sites=(
                None if data.get("view_sites") is None else tuple(data["view_sites"])
            ),
            max_events=int(data.get("max_events", 5_000_000)),
            max_retries=int(data.get("max_retries", 50)),
            label=str(data.get("label", "")),
        )

    def without_fault(self, index: int) -> "TrialConfig":
        """A copy with fault ``index`` removed — and, if that fault belongs
        to a group, the whole group (group members are only sound together)."""
        target = self.faults[index]
        if target.group is None:
            kept = [f for i, f in enumerate(self.faults) if i != index]
        else:
            kept = [f for f in self.faults if f.group != target.group]
        return replace(self, latency=dict(self.latency), parties=list(self.parties), faults=kept)


def exhaustive_config(
    n_sites: int,
    txns: Sequence[Tuple[int, str]],
    views: bool = True,
    mutations: Sequence[str] = (),
    max_retries: int = 2,
    label: str = "",
    view_sites: Optional[Sequence[int]] = None,
) -> TrialConfig:
    """A tiny, fault-free config sized for bounded-exhaustive exploration.

    ``txns`` lists the workload as ``(site, kind)`` pairs; each becomes its
    own single-transaction party, so the model checker is free to
    interleave *every* arrival against every other (per-party program
    order constrains nothing when each party issues one transaction).
    Latency and seeds are fixed: under controlled scheduling neither is
    consulted for the enumerated events, and setup stays deterministic.

    ``max_retries`` is deliberately small: it is the third bound of the
    bounded-exhaustive space (sites, transactions, retries).  An
    adversarial scheduler can sustain abort/retry cycles the timed
    simulation's backoff makes vanishingly rare, and every retry round
    multiplies the tree; a transaction that exhausts the cap surfaces as
    an ordinary ``aborted_no_retry`` outcome the oracles already handle.
    """
    if n_sites < 1:
        raise ValueError("exhaustive_config requires at least one site")
    parties = []
    for site, kind in txns:
        if kind not in TXN_KINDS:
            raise ValueError(f"unknown txn kind {kind!r}")
        if not 0 <= site < n_sites:
            raise ValueError(f"txn site {site} outside 0..{n_sites - 1}")
        parties.append(
            PartySpec(
                site=site,
                kind=kind,
                count=1,
                arrival="uniform",
                interval_ms=1.0,
                start_ms=0.0,
                arrival_seed=0,
                amount=1,
            )
        )
    return TrialConfig(
        n_sites=n_sites,
        latency={"kind": "fixed", "ms": 1.0},
        net_seed=0,
        parties=parties,
        faults=[],
        mutations=tuple(mutations),
        views=views,
        view_sites=None if view_sites is None else tuple(view_sites),
        max_retries=max_retries,
        label=label or f"mc-{n_sites}s-{len(parties)}t",
    )


def _sample_latency(rng: random.Random) -> Dict[str, Any]:
    kind = rng.choice(("fixed", "uniform", "normal"))
    if kind == "fixed":
        return {"kind": "fixed", "ms": round(rng.uniform(2.0, 40.0), 3)}
    if kind == "uniform":
        low = round(rng.uniform(1.0, 12.0), 3)
        return {"kind": "uniform", "low": low, "high": round(low + rng.uniform(5.0, 60.0), 3)}
    return {
        "kind": "normal",
        "mean": round(rng.uniform(5.0, 40.0), 3),
        "sd": round(rng.uniform(1.0, 12.0), 3),
    }


def _sample_parties(rng: random.Random, n_sites: int) -> List[PartySpec]:
    parties: List[PartySpec] = []
    n_parties = rng.randint(2, 4)
    for i in range(n_parties):
        # Always keep at least one read-modify-write party: RMW contention
        # is what produces aborts/retries, the protocol's hard cases.
        kind = "rmw" if i == 0 else rng.choice(TXN_KINDS)
        parties.append(
            PartySpec(
                site=rng.randrange(n_sites),
                kind=kind,
                count=rng.randint(2, 6),
                arrival=rng.choice(ARRIVAL_KINDS),
                interval_ms=round(rng.uniform(15.0, 120.0), 3),
                start_ms=round(rng.uniform(0.0, 80.0), 3),
                arrival_seed=rng.randrange(2**31),
                amount=rng.randint(1, 5),
            )
        )
    return parties


def _sample_faults(rng: random.Random, n_sites: int) -> List[FaultEvent]:
    faults: List[FaultEvent] = []
    group_seq = 0

    for _ in range(rng.randint(0, 2)):
        src = rng.randrange(n_sites)
        dst = rng.randrange(n_sites)
        if src == dst:
            continue
        low = round(rng.uniform(10.0, 60.0), 3)
        faults.append(
            FaultEvent(
                at_ms=round(rng.uniform(0.0, 400.0), 3),
                kind="jitter",
                args={
                    "src": src,
                    "dst": dst,
                    "low_ms": low,
                    "high_ms": round(low + rng.uniform(10.0, 120.0), 3),
                },
            )
        )

    crashed: List[int] = []
    if n_sites >= 3 and rng.random() < 0.6:
        victim = rng.randrange(n_sites)
        crashed.append(victim)
        t_crash = round(rng.uniform(60.0, 500.0), 3)
        notify = round(rng.uniform(0.0, 60.0), 3)
        crash = FaultEvent(
            at_ms=t_crash, kind="crash", args={"site": victim, "notify_after_ms": notify}
        )
        if rng.random() < 0.4:
            # Disconnection presented as fail-stop: cut the victim off,
            # crash it while cut, heal after the crash is known.
            group_seq += 1
            others = [s for s in range(n_sites) if s != victim]
            cut_at = round(max(1.0, t_crash - rng.uniform(20.0, 80.0)), 3)
            heal_at = round(t_crash + notify + rng.uniform(10.0, 50.0), 3)
            crash.group = group_seq
            faults.append(
                FaultEvent(
                    at_ms=cut_at,
                    kind="partition",
                    args={"group_a": [victim], "group_b": others},
                    group=group_seq,
                )
            )
            faults.append(crash)
            faults.append(FaultEvent(at_ms=heal_at, kind="heal", args={}, group=group_seq))
        else:
            faults.append(crash)
        if n_sites >= 4 and rng.random() < 0.3:
            second = rng.choice([s for s in range(n_sites) if s != victim])
            crashed.append(second)
            faults.append(
                FaultEvent(
                    at_ms=round(t_crash + rng.uniform(20.0, 200.0), 3),
                    kind="crash",
                    args={"site": second, "notify_after_ms": round(rng.uniform(0.0, 60.0), 3)},
                )
            )

    faults.sort(key=lambda f: (f.at_ms, f.kind))
    return faults


def sample_config(
    master_seed: int,
    index: int,
    mutations: Sequence[str] = (),
    faults: bool = True,
) -> TrialConfig:
    """Deterministically sample trial ``index`` of a campaign.

    The derivation uses only integer arithmetic on the seed, so the same
    ``(master_seed, index)`` pair yields the same config on any platform.
    """
    rng = random.Random(master_seed * 1_000_003 + index)
    n_sites = rng.randint(2, 5)
    return TrialConfig(
        n_sites=n_sites,
        latency=_sample_latency(rng),
        net_seed=rng.randrange(2**31),
        parties=_sample_parties(rng, n_sites),
        faults=_sample_faults(rng, n_sites) if faults else [],
        mutations=tuple(mutations),
        label=f"trial-{master_seed}-{index}",
    )
