"""Run one explorer trial: build a session from a config, inject faults,
drive the workload to quiescence, and collect everything the oracles need.

Every trial replicates the same four integer objects across all sites:

* ``ctr``   — read-modify-write counter (contention, aborts, retries),
* ``board`` — blind-write whiteboard (no conflicts, pure propagation),
* ``xa``/``xb`` — transfer pair (multi-object transactions; the paper's
  XferTrans).  ``xa`` starts at 1000 so the conservation invariant
  ``xa + xb == 1000`` is checkable.

When ``config.views`` is set, each site (each of ``config.view_sites``, if
given) attaches one recording pessimistic view and one recording optimistic
view per viewed object; their logs are the evidence for the
view-notification oracles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.model import ModelObject
from repro.core.session import Session
from repro.core.site import SiteRuntime
from repro.core.transaction import TransactionOutcome
from repro.core.views import OptimisticView, PessimisticView, Snapshot
from repro.errors import ReproError
from repro.explore.plan import FaultEvent, TrialConfig
from repro.sim.network import FixedLatency, Network, NormalLatency, UniformLatency
from repro.sim.scheduler import Scheduler
from repro.vtime import VirtualTime
from repro.core.scalars import DInt
from repro.workloads import (
    BlindWriteWorkload,
    PoissonArrivals,
    ReadModifyWriteWorkload,
    TransferWorkload,
    UniformArrivals,
)

#: (object name, initial value); every trial replicates these to all sites.
TRIAL_OBJECTS: Tuple[Tuple[str, int], ...] = (("ctr", 0), ("board", 0), ("xa", 1000), ("xb", 0))
#: Objects that get recording views attached (one view per object so each
#: notification's snapshot interval concerns a single primary group).
VIEW_OBJECTS: Tuple[str, ...] = ("ctr", "board", "xa")
#: Objects each transaction kind writes.
KIND_WRITES: Dict[str, Tuple[str, ...]] = {
    "rmw": ("ctr",),
    "blind": ("board",),
    "xfer": ("xa", "xb"),
}


class RecordingPessimisticView(PessimisticView):
    """Logs every pessimistic notification as ``(ts, value)``."""

    def __init__(self, obj: ModelObject) -> None:
        self.obj = obj
        self.log: List[Tuple[VirtualTime, Any]] = []

    def update(self, changed: List[ModelObject], snapshot: Snapshot) -> None:
        self.log.append((snapshot.ts, snapshot.read(self.obj)))


class RecordingOptimisticView(OptimisticView):
    """Logs every optimistic notification and counts commit callbacks."""

    def __init__(self, obj: ModelObject) -> None:
        self.obj = obj
        self.log: List[Tuple[VirtualTime, Any]] = []
        self.commits = 0

    def update(self, changed: List[ModelObject], snapshot: Snapshot) -> None:
        self.log.append((snapshot.ts, snapshot.read(self.obj)))

    def commit(self) -> None:
        self.commits += 1


@dataclass
class TxnInfo:
    """Ground-truth record of one workload transaction submission."""

    party: int
    site: int
    kind: str
    value: Optional[int]  # blind-write payload
    amount: int  # transfer amount
    outcome: Optional[TransactionOutcome] = None


@dataclass
class TrialResult:
    """Everything the oracles inspect after quiescence."""

    config: TrialConfig
    session: Session
    network: Network
    sites: List[SiteRuntime]
    objects: Dict[str, List[ModelObject]]
    infos: List[TxnInfo]
    pess_views: Dict[Tuple[int, str], RecordingPessimisticView] = field(default_factory=dict)
    opt_views: Dict[Tuple[int, str], RecordingOptimisticView] = field(default_factory=dict)

    def live_sites(self) -> List[SiteRuntime]:
        return [s for s in self.sites if not self.network.is_failed(s.site_id)]

    @property
    def events(self):
        """Protocol events recorded during the trial (empty unless the
        trial ran with ``observe=True``)."""
        return self.session.bus.events

    def timeline(self) -> List[Dict[str, Any]]:
        """The recorded event timeline as stable JSON-serializable dicts."""
        return self.session.bus.timeline()


def build_latency(spec: Dict[str, Any]):
    kind = spec.get("kind")
    if kind == "fixed":
        return FixedLatency(float(spec["ms"]))
    if kind == "uniform":
        return UniformLatency(float(spec["low"]), float(spec["high"]))
    if kind == "normal":
        return NormalLatency(float(spec["mean"]), float(spec["sd"]))
    raise ReproError(f"unknown latency spec {spec!r}")


def _make_workload(spec_kind: str, spec, objects: Dict[str, List[ModelObject]], party_idx: int):
    site_objs = {name: objs[spec.site] for name, objs in objects.items()}
    if spec_kind == "rmw":
        return ReadModifyWriteWorkload(site_objs["ctr"], increment=1)
    if spec_kind == "blind":
        return BlindWriteWorkload(site_objs["board"], party_tag=party_idx + 1)
    if spec_kind == "xfer":
        return TransferWorkload(site_objs["xa"], site_objs["xb"], amount=spec.amount)
    raise ReproError(f"unknown workload kind {spec_kind!r}")


def _apply_fault(network: Network, event: FaultEvent) -> None:
    kind = event.kind
    args = event.args
    if kind == "jitter":
        network.set_link_latency(
            int(args["src"]),
            int(args["dst"]),
            UniformLatency(float(args["low_ms"]), float(args["high_ms"])),
        )
    elif kind == "crash":
        network.fail_site(int(args["site"]), notify_after_ms=float(args.get("notify_after_ms", 0.0)))
    elif kind == "partition":
        network.partition([int(s) for s in args["group_a"]], [int(s) for s in args["group_b"]])
    elif kind == "heal":
        network.heal_partition()
    else:
        raise ReproError(f"unknown fault kind {kind!r}")


def run_trial(
    config: TrialConfig,
    observe: bool = False,
    subscribers: Sequence[Any] = (),
    controller: Optional[Any] = None,
) -> TrialResult:
    """Build the session described by ``config``, run it to quiescence.

    With ``observe=True`` the session's protocol event bus records the
    full event timeline (:attr:`TrialResult.events`).  ``subscribers``
    are attached live to the bus before any site exists, so streaming
    consumers (e.g. :class:`~repro.obs.health.HealthMonitor`) see the
    exact sequence a recording would capture.  Observation cannot perturb
    the run — events are stamped with simulated time and emitted outside
    the scheduler, so an observed trial is byte-identical to an
    unobserved one apart from the recording itself.

    With a ``controller`` (a :class:`~repro.sim.choice.ScheduleController`)
    the trial runs under *controlled scheduling* instead of sampled
    latencies: session setup settles through the ordinary timed path, then
    every workload arrival and cross-site delivery becomes a choice point
    the controller's strategy orders.  Requires a fault-free config — the
    exhaustive event alphabet covers arrivals, deliveries, and retry
    timers, not fault injections.
    """
    scheduler = Scheduler()
    network = Network(
        scheduler,
        latency=build_latency(config.latency),
        seed=config.net_seed,
        flush_inflight_on_fail=True,
    )
    session = Session(transport=network, max_retries=config.max_retries)
    if observe:
        session.observe()
    for subscriber in subscribers:
        session.bus.subscribe(subscriber)
    session.add_sites(config.n_sites)
    sites = session.sites

    objects: Dict[str, List[ModelObject]] = {}
    for name, initial in TRIAL_OBJECTS:
        objects[name] = session.replicate(DInt, name, sites, initial)

    for site in sites:
        site.engine.mutations = frozenset(config.mutations)

    result = TrialResult(
        config=config,
        session=session,
        network=network,
        sites=sites,
        objects=objects,
        infos=[],
    )

    if config.views:
        for site in sites:
            if config.view_sites is not None and site.site_id not in config.view_sites:
                continue
            for name in VIEW_OBJECTS:
                obj = objects[name][site.site_id]
                pess = RecordingPessimisticView(obj)
                obj.attach(pess, mode="pessimistic")
                result.pess_views[(site.site_id, name)] = pess
                opt = RecordingOptimisticView(obj)
                obj.attach(opt, mode="optimistic")
                result.opt_views[(site.site_id, name)] = opt

    if controller is not None and config.faults:
        raise ReproError("controlled scheduling requires a fault-free config")

    base = scheduler.now

    for party_idx, spec in enumerate(config.parties):
        site = sites[spec.site]
        workload = _make_workload(spec.kind, spec, objects, party_idx)
        if spec.arrival == "uniform":
            arrivals = UniformArrivals(spec.interval_ms, start_ms=spec.start_ms)
        else:
            arrivals = PoissonArrivals(spec.interval_ms, start_ms=spec.start_ms)
        times = arrivals.times(spec.count, random.Random(spec.arrival_seed))
        for t in times:

            def fire(spec=spec, site=site, party_idx=party_idx, workload=workload) -> None:
                if network.is_failed(site.site_id):
                    return
                body = workload()
                value = None
                if spec.kind == "blind":
                    value = workload.party_tag * 1_000_000 + workload._counter
                info = TxnInfo(
                    party=party_idx,
                    site=site.site_id,
                    kind=spec.kind,
                    value=value,
                    amount=spec.amount,
                )
                result.infos.append(info)
                info.outcome = site.transact(body)

            if controller is not None:
                # Controlled scheduling: the arrival's *order* (per-party
                # program order preserved) is the choice, not its time.
                controller.offer_arrival(party_idx, fire)
            else:
                scheduler.call_at(base + max(0.0, t), fire, label=f"explore-txn p{party_idx}")

    if controller is not None:
        network.choice = controller
        try:
            controller.drive(scheduler, max_events=config.max_events)
        finally:
            network.choice = None
        return result

    for event in config.faults:
        scheduler.call_at(
            base + max(0.0, event.at_ms),
            lambda event=event: _apply_fault(network, event),
            label=f"explore-fault {event.kind}",
        )

    scheduler.run_until_quiescent(max_events=config.max_events)
    return result
