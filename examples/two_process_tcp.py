#!/usr/bin/env python3
"""Two OS processes collaborating on one replicated list over real TCP.

Run with no arguments::

    PYTHONPATH=src python examples/two_process_tcp.py

The parent picks two free ports, then spawns two child processes:

* **site 0** hosts the list, creates the association/relationship, joins,
  and drops a wire-codec-encoded :class:`~repro.core.Invitation` into a
  handoff file;
* **site 1** picks up the invitation, imports it, and joins its own local
  list through the real join protocol — every message crossing the process
  boundary as length-prefixed wire-codec frames over
  :class:`~repro.transport.tcp.TcpTransport`.

Each child then appends its own marked integers, waits until the committed
list holds everyone's entries, and writes its ``state_digest()`` to a file.
The parent compares the digests byte-for-byte: identical digests mean the
two processes converged on identical committed state.  Exit status 0 on
convergence, 1 on timeout/mismatch (used as a CI smoke test).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Session  # noqa: E402
from repro.obs import (  # noqa: E402
    FlightRecorder,
    TelemetryAggregator,
    TenantTelemetry,
    TraceSampler,
    event_to_dict,
    write_prometheus,
)
from repro.transport.tcp import TcpTransport  # noqa: E402
from repro.vtime import VT_TOP  # noqa: E402
from repro.wire import decode, encode  # noqa: E402

APPENDS_PER_SITE = 5
CHILD_DEADLINE_S = 60.0
PROM_FLUSH_S = 0.5


# ---------------------------------------------------------------------------
# Child: one site in one process
# ---------------------------------------------------------------------------


async def poll(predicate, deadline_s: float, what: str, interval_s: float = 0.02, missing=None):
    """Wait until ``predicate()`` holds.  On timeout the error also says what
    the wait was missing, when a ``missing()`` callable can tell."""
    start = time.monotonic()
    while not predicate():
        if time.monotonic() - start > deadline_s:
            detail = f" (missing: {missing()})" if missing is not None else ""
            raise TimeoutError(f"timed out waiting for {what}{detail}")
        await asyncio.sleep(interval_s)


async def child_main(
    site_id: int,
    ports: list,
    workdir: Path,
    appends: int = APPENDS_PER_SITE,
    trace_dir: Path = None,
    sample_rate: float = -1.0,
) -> None:
    addrs = {i: ("127.0.0.1", port) for i, port in enumerate(ports)}
    # --sample-rate: install a head-based trace sampler.  Both processes
    # configure the same rate, and each transaction's decision is made
    # once at its origin and rides the frame header, so the two processes
    # record exactly the same subset of traces (complete span trees).
    sampler = TraceSampler(sample_rate) if sample_rate >= 0.0 else None
    transport = TcpTransport(
        addrs, local_sites={site_id}, fail_after_ms=30_000.0, sampler=sampler
    )
    session = Session(transport=transport, roster=set(addrs))
    site = session.add_site(f"proc{site_id}", site_id=site_id)

    # --trace-dir: record this process's full wall-clock timeline (session
    # protocol events + transport send/deliver events share transport.bus),
    # arm the postmortem flight recorder, keep a live Prometheus snapshot
    # refreshed while the run progresses, and roll up per-tenant windowed
    # telemetry (agg{N}.json) that `repro top` can tail.
    prom_task = None
    telemetry = None
    if trace_dir is not None:
        transport.bus.enable()
        transport.flight = FlightRecorder(str(trace_dir / f"flight{site_id}.jsonl"))
        transport.flight.attach(transport.bus)
        transport.flight.install_excepthook()
        telemetry = TenantTelemetry(
            TelemetryAggregator(window_ms=1000.0, keep_windows=64, site=site_id)
        )
        transport.bus.subscribe(telemetry)
        prom_path = str(trace_dir / f"metrics{site_id}.prom")
        snapshot_fns = [transport.metrics.snapshot, site.metrics.snapshot]
        from repro.obs.prom import flush_periodically

        prom_task = asyncio.ensure_future(
            flush_periodically(prom_path, snapshot_fns, interval_s=PROM_FLUSH_S)
        )
    await transport.start()

    invite_file = workdir / "invitation.hex"
    name = "doc"
    rel_id = f"{name}.rel"

    def committed(outcome) -> bool:
        if outcome.aborted_no_retry:
            raise RuntimeError("transaction aborted without retry")
        return outcome.committed

    def join_state(outcome):
        """What a join wait lacks: the sites the list's graph covers so far
        and where this site's join transaction stands."""
        return lambda: (
            f"list graph sites {sorted(n.site for n in lst.graph().nodes)} of {sorted(addrs)}; "
            f"join committed={outcome.committed} aborted={outcome.aborted_no_retry} "
            f"attempts={outcome.attempts} reason={outcome.abort_reason!r}"
        )

    if site_id == 0:
        lst = site.create_list(name)
        assoc = site.create_association(f"{name}.assoc")
        outcome = site.transact(lambda: assoc.create_relationship(rel_id))
        await poll(lambda: committed(outcome), CHILD_DEADLINE_S, "create_relationship")
        outcome = site.join(assoc, rel_id, lst)
        await poll(lambda: committed(outcome), CHILD_DEADLINE_S, "owner join")
        invitation = assoc.make_invitation(note="two-process demo")
        invite_file.write_text(encode(invitation).hex())
        # Wait until the peer's join lands: the list's replication graph
        # grows to cover both sites.
        await poll(
            lambda: {n.site for n in lst.graph().nodes} == set(addrs),
            CHILD_DEADLINE_S,
            "peer join",
            missing=join_state(outcome),
        )
    else:
        await poll(invite_file.exists, CHILD_DEADLINE_S, "invitation file")
        invitation = decode(bytes.fromhex(invite_file.read_text()))
        local_assoc = site.import_invitation(invitation, f"{name}.assoc")
        # The association's value (all relationship memberships) arrives with
        # the join state sync; wait until the relationship is visible here.
        await poll(
            lambda: rel_id in dict(local_assoc.value_at(VT_TOP, committed_only=True)),
            CHILD_DEADLINE_S,
            "association state sync",
        )
        lst = site.create_list(name)
        outcome = site.join(local_assoc, rel_id, lst)
        await poll(
            lambda: committed(outcome), CHILD_DEADLINE_S, "member join",
            missing=join_state(outcome),
        )

    # Both processes append their own marked entries concurrently.  The loop
    # is timed so bench mode can derive real-socket commits/sec; the tight
    # poll interval keeps the measurement about the protocol, not the poll.
    append_start = time.perf_counter()
    for k in range(appends):
        value = site_id * 1000 + k
        outcome = site.transact(lambda v=value: lst.append("int", v))
        await poll(
            lambda o=outcome: committed(o),
            CHILD_DEADLINE_S,
            f"append {value}",
            interval_s=0.002,
        )
    append_wall_s = time.perf_counter() - append_start

    # Convergence: the committed list holds every site's entries.
    want = appends * len(addrs)

    def committed_len() -> int:
        return len(lst.value_at(VT_TOP, committed_only=True))

    await poll(lambda: committed_len() == want, CHILD_DEADLINE_S, "converged list")
    await transport.aquiesce(settle_ms=300.0)

    digest = {key: [list(vt_key), value] for key, (vt_key, value) in site.state_digest().items()}
    out = {
        "site": site_id,
        "digest": digest,
        "committed_len": committed_len(),
        "appends": appends,
        "append_wall_s": append_wall_s,
        "wire": {
            "messages_sent": site.outbox.messages_sent,
            "envelopes_sent": site.outbox.envelopes_sent,
            "messages_batched": site.outbox.messages_batched,
            "frames_sent": transport.frames_sent,
            "frames_received": transport.frames_received,
            "sends_sampled_out": transport.sends_sampled_out,
            "deliveries_sampled_out": transport.deliveries_sampled_out,
        },
    }
    (workdir / f"digest{site_id}.json").write_text(json.dumps(out, sort_keys=True))

    if trace_dir is not None:
        lines = [
            json.dumps(event_to_dict(e), sort_keys=True)
            for e in transport.bus.events
        ]
        (trace_dir / f"trace{site_id}.jsonl").write_text(
            "\n".join(lines) + ("\n" if lines else "")
        )
    if telemetry is not None:
        (trace_dir / f"agg{site_id}.json").write_text(telemetry.agg.to_json())
    if prom_task is not None:
        prom_task.cancel()
        try:
            await prom_task
        except asyncio.CancelledError:
            pass
    await transport.stop()


# ---------------------------------------------------------------------------
# Parent: orchestrate, compare digests
# ---------------------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def parent_main(
    appends: int = APPENDS_PER_SITE,
    bench_out: str = "",
    trace_dir: str = "",
    sample_rate: float = -1.0,
) -> int:
    ports = [free_port(), free_port()]
    if trace_dir:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="repro-tcp-") as tmp:
        workdir = Path(tmp)
        children = [
            subprocess.Popen(
                [
                    sys.executable,
                    __file__,
                    "--role", "child",
                    "--site", str(site_id),
                    "--ports", ",".join(map(str, ports)),
                    "--workdir", str(workdir),
                    "--appends", str(appends),
                    "--sample-rate", str(sample_rate),
                ]
                + (["--trace-dir", trace_dir] if trace_dir else []),
                env=os.environ.copy(),
            )
            for site_id in (0, 1)
        ]
        deadline = time.monotonic() + CHILD_DEADLINE_S + 30.0
        for child in children:
            remaining = max(1.0, deadline - time.monotonic())
            try:
                code = child.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                for c in children:
                    c.kill()
                print("FAIL: child process timed out")
                return 1
            if code != 0:
                for c in children:
                    c.kill()
                print(f"FAIL: child exited with status {code}")
                return 1

        reports = [
            json.loads((workdir / f"digest{site_id}.json").read_text())
            for site_id in (0, 1)
        ]
        if reports[0]["digest"] != reports[1]["digest"]:
            print("FAIL: state digests differ between processes")
            print(json.dumps(reports, indent=2, sort_keys=True))
            return 1
        print(
            f"OK: both processes converged on {reports[0]['committed_len']} committed "
            f"entries with identical state digests"
        )
        for report in reports:
            wire = report["wire"]
            sampled = ""
            if wire.get("sends_sampled_out") or wire.get("deliveries_sampled_out"):
                sampled = (
                    f", {wire['sends_sampled_out']} sends / "
                    f"{wire['deliveries_sampled_out']} deliveries sampled out"
                )
            print(
                f"  site {report['site']}: {wire['messages_sent']} protocol messages in "
                f"{wire['envelopes_sent']} frames "
                f"({wire['messages_batched']} coalesced), "
                f"{wire['frames_sent']} TCP frames out / {wire['frames_received']} in"
                + sampled
            )
        if bench_out:
            # Both sites run their append loops concurrently: total commits
            # over the slower site's wall time is the real-socket commit rate.
            total_commits = sum(r["appends"] for r in reports)
            wall_s = max(r["append_wall_s"] for r in reports)
            bench = {
                "commits": total_commits,
                "wall_s": round(wall_s, 6),
                "commits_per_sec": round(total_commits / wall_s, 1),
                "frames_sent": sum(r["wire"]["frames_sent"] for r in reports),
            }
            Path(bench_out).write_text(json.dumps(bench, sort_keys=True) + "\n")
        if trace_dir:
            traces = sorted(Path(trace_dir).glob("trace*.jsonl"))
            print(
                f"  per-process timelines in {trace_dir}: "
                + ", ".join(t.name for t in traces)
                + "  (merge with: repro trace --merge "
                + " ".join(str(t) for t in traces)
                + " --format jsonl --out merged.jsonl)"
            )
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=["parent", "child"], default="parent")
    parser.add_argument("--site", type=int, default=0)
    parser.add_argument("--ports", default="")
    parser.add_argument("--workdir", default="")
    parser.add_argument("--appends", type=int, default=APPENDS_PER_SITE)
    parser.add_argument(
        "--bench-out",
        default="",
        metavar="FILE",
        help="write commits/sec for the timed append phase as JSON",
    )
    parser.add_argument(
        "--trace-dir",
        default="",
        metavar="DIR",
        help="record per-process wall-clock timelines (trace{N}.jsonl), "
        "flight-recorder postmortems, live Prometheus snapshots "
        "(metrics{N}.prom), and per-tenant windowed rollups (agg{N}.json) "
        "into DIR; merge afterwards with `repro trace --merge`, watch "
        "live with `repro top --dir DIR`",
    )
    parser.add_argument(
        "--sample-rate",
        type=float,
        default=-1.0,
        metavar="RATE",
        help="head-based trace sampling rate in [0,1] (default: no sampler "
        "— record every traced frame); the origin's per-transaction "
        "decision rides the frame header so both processes record the "
        "same subset",
    )
    args = parser.parse_args()
    if args.role == "parent":
        return parent_main(
            appends=args.appends,
            bench_out=args.bench_out,
            trace_dir=args.trace_dir,
            sample_rate=args.sample_rate,
        )
    ports = [int(p) for p in args.ports.split(",")]
    asyncio.run(
        child_main(
            args.site,
            ports,
            Path(args.workdir),
            appends=args.appends,
            trace_dir=Path(args.trace_dir) if args.trace_dir else None,
            sample_rate=args.sample_rate,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
