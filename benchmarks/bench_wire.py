"""Message-plane benchmark: envelope coalescing and wire-codec throughput.

Runs the standard commit-fanout workload (K sequential increments of one
fully replicated counter, issued from a non-primary origin) in three
message-plane configurations:

* ``off``   — seed behaviour: every protocol message is its own frame,
* ``turn``  — session-level ``batching=True``: each protocol turn's
  fan-out coalesces per destination (join/commit turns that address the
  same peer more than once shrink; steady-state one-message turns don't),
* ``burst`` — the whole K-transaction burst inside one explicit
  ``session.batched()`` window, the bulk-loading pattern: everything a
  site says to one peer across the burst leaves as one envelope.

The check gate (``--check``) enforces the message-plane contract:

1. *Transparency*: all three modes move exactly the same protocol
   messages and every site ends with an identical state digest —
   batching changes framing, never protocol content.
2. *Reduction*: the burst mode cuts ``envelopes_sent`` by at least
   ``--min-ratio`` (default 3x) on the standard workload.

A codec microbenchmark (encode/decode of a representative
``TxnPropagateMsg`` frame) rides along; its us/op and bytes/frame land in
the perf trajectory so serialization regressions show up as a slope
change.  Under ``--check`` the codec numbers are additionally gated
against the committed ``BENCH_wire.json``: a >2x slowdown of encode or
decode fails CI.

A sockets benchmark measures the real TCP path: ping-pong frame latency
(p50/p99 one-way) between two in-process :class:`TcpTransport` instances,
a one-way burst exercising frame coalescing, and real-socket commits/sec
from the two-OS-process example (``examples/two_process_tcp.py``).

Usage::

    PYTHONPATH=src python benchmarks/bench_wire.py            # full run
    PYTHONPATH=src python benchmarks/bench_wire.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_wire.py --quick --check
    PYTHONPATH=src python benchmarks/bench_wire.py --no-sockets
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import Any, Dict, List

if __name__ == "__main__":  # allow running straight from a checkout
    _root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    _src = os.path.join(_root, "src")
    if _src not in sys.path:
        sys.path.insert(0, _src)

from repro import DInt, Session

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_wire.json")

FULL = {"transactions": 200, "sites": 4, "repeats": 5}
QUICK = {"transactions": 60, "sites": 4, "repeats": 3}

MODES = ("off", "turn", "burst")


def commit_fanout(transactions: int, n_sites: int, mode: str) -> Dict[str, Any]:
    """One run of the standard commit-fanout workload in one plane mode."""
    session = Session.simulated(latency_ms=20.0, seed=7, batching=(mode != "off"))
    sites = session.add_sites(n_sites)
    objs = session.replicate(DInt, "ctr", sites, initial=0)
    session.settle()
    setup_messages = sum(s.outbox.messages_sent for s in sites)
    setup_envelopes = sum(s.outbox.envelopes_sent for s in sites)
    origin, obj = sites[-1], objs[-1]

    def burst() -> None:
        for _ in range(transactions):
            origin.transact(lambda: obj.set(obj.get() + 1))

    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        if mode == "burst":
            with session.batched():
                burst()
        else:
            burst()
        session.settle()
        wall_s = time.perf_counter() - start
    finally:
        gc.enable()

    return {
        "wall_s": wall_s,
        "messages": sum(s.outbox.messages_sent for s in sites) - setup_messages,
        "envelopes": sum(s.outbox.envelopes_sent for s in sites) - setup_envelopes,
        "batched": sum(s.outbox.messages_batched for s in sites),
        "setup_messages": setup_messages,
        "setup_envelopes": setup_envelopes,
        "digests": [s.state_digest() for s in sites],
        "value": objs[0].get(),
    }


def bench_codec(repeats: int, iterations: int = 2000) -> Dict[str, Any]:
    """Encode/decode throughput for a representative propagate frame."""
    from repro.core.messages import OpPayload, TxnPropagateMsg, WriteOp
    from repro.vtime import VirtualTime
    from repro.wire import decode, encode

    msg = TxnPropagateMsg(
        txn_vt=VirtualTime(41, 2),
        origin=2,
        writes=tuple(
            WriteOp(
                object_uid=f"s{i}:ctr",
                op=OpPayload(kind="set", args=(i,)),
                read_vt=VirtualTime(40, 2),
                graph_vt=VirtualTime(12, 0),
            )
            for i in range(3)
        ),
        read_checks=(),
        clock=57,
    )
    blob = encode(msg)
    assert decode(blob) == msg

    def best_of(fn) -> float:
        gc.collect()
        gc.disable()
        try:
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                for _ in range(iterations):
                    fn()
                times.append(time.perf_counter() - start)
        finally:
            gc.enable()
        return min(times) / iterations

    encode_s = best_of(lambda: encode(msg))
    decode_s = best_of(lambda: decode(blob))
    return {
        "frame_bytes": len(blob),
        "encode_us": round(encode_s * 1e6, 3),
        "decode_us": round(decode_s * 1e6, 3),
    }


def bench_sockets(quick: bool, prom_out: str = "") -> Dict[str, Any]:
    """Real-socket numbers: ping-pong latency, coalesced burst, two-process rate.

    Everything here crosses actual TCP sockets on localhost — the ping-pong
    and burst between two in-process :class:`TcpTransport` instances, the
    commit rate between two OS processes running the full join/append
    protocol (``examples/two_process_tcp.py --bench-out``).

    The transports' own telemetry registries ride along: counters land in
    the result under ``telemetry`` and, with ``prom_out``, both registries
    are written as one Prometheus text snapshot.
    """
    import asyncio
    import socket
    import subprocess
    import tempfile

    from repro.core.messages import CommitMsg
    from repro.transport.tcp import TcpTransport
    from repro.vtime import VirtualTime

    pingpong_frames = 200 if quick else 1000
    burst_frames = 500 if quick else 2000
    example_appends = 10 if quick else 40

    def free_port() -> int:
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    async def transports_bench() -> Dict[str, Any]:
        addrs = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
        a = TcpTransport(addrs, local_sites={0})
        b = TcpTransport(addrs, local_sites={1})
        got = asyncio.Event()
        echo = [True]
        received = [0]

        def on_b(src, payload):
            if echo[0]:
                b.send(1, 0, payload)
            else:
                received[0] += 1

        a.register(0, lambda src, payload: got.set())
        b.register(1, on_b)
        await a.start()
        await b.start()

        async def rtt_once(i: int) -> float:
            got.clear()
            msg = CommitMsg(VirtualTime(i, 0), i)
            start = time.perf_counter()
            a.send(0, 1, msg)
            await asyncio.wait_for(got.wait(), timeout=10.0)
            return time.perf_counter() - start

        for i in range(20):  # warmup: dial, codec caches, event-loop jit
            await rtt_once(i)
        rtts = sorted([await rtt_once(i) for i in range(pingpong_frames)])

        def pct(p: float) -> float:
            return rtts[min(len(rtts) - 1, int(p / 100.0 * len(rtts)))]

        # One-way burst: each flush drains the queue in coalesced batches,
        # so writes << frames when the pipeline is doing its job.
        echo[0] = False
        writes0, coalesced0 = a.writes, a.frames_coalesced
        start = time.perf_counter()
        for i in range(burst_frames):
            a.send(0, 1, CommitMsg(VirtualTime(i, 1), i))
        deadline = start + 60.0
        while received[0] < burst_frames:
            if time.perf_counter() > deadline:
                raise TimeoutError("burst frames did not all arrive")
            await asyncio.sleep(0.001)
        burst_s = time.perf_counter() - start
        burst = {
            "frames": burst_frames,
            "frames_per_sec": round(burst_frames / burst_s, 1),
            "writes": a.writes - writes0,
            "frames_coalesced": a.frames_coalesced - coalesced0,
        }
        # The transport registry is process-wide (site=-1); tag each with
        # its local site so the two transports' series stay distinct when
        # rendered into one Prometheus snapshot.
        snapshots = [
            dict(a.metrics.snapshot(), site=0),
            dict(b.metrics.snapshot(), site=1),
        ]
        flush = a.metrics.histograms["transport.write_flush_ms"]
        await a.stop()
        await b.stop()
        return {
            "frames": pingpong_frames,
            "rtt_p50_us": round(pct(50) * 1e6, 1),
            "rtt_p99_us": round(pct(99) * 1e6, 1),
            "frame_p50_us": round(pct(50) / 2 * 1e6, 1),
            "frame_p99_us": round(pct(99) / 2 * 1e6, 1),
            "burst": burst,
            "telemetry": {
                "sender_counters": snapshots[0]["counters"],
                "write_flush_mean_us": round(flush.mean * 1000.0, 1),
            },
            "_snapshots": snapshots,
        }

    pingpong = asyncio.run(transports_bench())
    snapshots = pingpong.pop("_snapshots")
    if prom_out:
        from repro.obs.prom import write_prometheus

        write_prometheus(prom_out, snapshots)

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        bench_file = os.path.join(tmp, "two_process.json")
        proc = subprocess.run(
            [
                sys.executable,
                os.path.join(REPO_ROOT, "examples", "two_process_tcp.py"),
                "--appends", str(example_appends),
                "--bench-out", bench_file,
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        if proc.returncode == 0 and os.path.exists(bench_file):
            with open(bench_file) as fh:
                two_process = json.load(fh)
        else:
            two_process = {"error": (proc.stdout + proc.stderr).strip()[-500:]}

    return {"pingpong": pingpong, "two_process": two_process}


def run(
    quick: bool = False, repeats: int = 0, sockets: bool = True, prom_out: str = ""
) -> Dict[str, Any]:
    cfg = QUICK if quick else FULL
    transactions, n_sites = cfg["transactions"], cfg["sites"]
    repeats = repeats or cfg["repeats"]

    # Untimed warmup pays import/allocator cost outside the timed series.
    commit_fanout(transactions, n_sites, "off")
    runs: Dict[str, List[Dict[str, Any]]] = {m: [] for m in MODES}
    for _ in range(repeats):  # interleave modes so drift hits all equally
        for mode in MODES:
            runs[mode].append(commit_fanout(transactions, n_sites, mode))

    reference = runs["off"][0]

    def summarize(mode: str) -> Dict[str, Any]:
        rows = runs[mode]
        best = min(r["wall_s"] for r in rows)
        row = rows[0]  # counters are deterministic across repeats
        return {
            "wall_s": [round(r["wall_s"], 6) for r in rows],
            "best_s": round(best, 6),
            "commits_per_sec": round(transactions / best, 1),
            "messages": row["messages"],
            "envelopes": row["envelopes"],
            "batched": row["batched"],
            "envelope_ratio_vs_off": round(
                reference["envelopes"] / row["envelopes"], 2
            ),
        }

    summary = {mode: summarize(mode) for mode in MODES}
    digests_identical = all(
        r["digests"] == reference["digests"] and all(
            d == r["digests"][0] for d in r["digests"]
        )
        for rows in runs.values()
        for r in rows
    )
    messages_identical = all(
        r["messages"] == reference["messages"] for rows in runs.values() for r in rows
    )
    result: Dict[str, Any] = {
        "schema": "bench_wire/v1",
        "mode": "quick" if quick else "full",
        "python": sys.version.split()[0],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "transactions": transactions,
        "sites": n_sites,
        "repeats": repeats,
        "fanout": summary,
        "setup": {
            # The join/replicate phase has multi-message turns, so
            # session-level batching shrinks it even in "turn" mode.
            "off_envelopes": runs["off"][0]["setup_envelopes"],
            "turn_envelopes": runs["turn"][0]["setup_envelopes"],
            "turn_ratio": round(
                runs["off"][0]["setup_envelopes"] / runs["turn"][0]["setup_envelopes"], 2
            ),
        },
        "codec": bench_codec(min(repeats, 3)),
        "contract": {
            "digests_identical": digests_identical,
            "messages_identical": messages_identical,
        },
    }
    if sockets:
        result["sockets"] = bench_sockets(quick, prom_out=prom_out)
    return result


#: Allowed codec slowdown vs the committed BENCH_wire.json before CI fails.
CODEC_REGRESSION_FACTOR = 2.0


def check(
    results: Dict[str, Any],
    min_ratio: float,
    baseline_codec: "Dict[str, Any] | None" = None,
) -> List[str]:
    """Gate the message-plane contract; returns failure descriptions."""
    failures: List[str] = []
    if not results["contract"]["digests_identical"]:
        failures.append(
            "state digests diverge across plane modes/sites — batching changed "
            "protocol outcomes, not just framing"
        )
    if not results["contract"]["messages_identical"]:
        failures.append(
            "protocol message counts differ across plane modes — the batcher "
            "dropped or duplicated messages"
        )
    ratio = results["fanout"]["burst"]["envelope_ratio_vs_off"]
    if ratio < min_ratio:
        failures.append(
            f"burst-mode envelope reduction {ratio:.2f}x is below the "
            f"required {min_ratio:.1f}x on the standard commit-fanout workload"
        )
    if results["fanout"]["burst"]["batched"] == 0:
        failures.append("burst mode coalesced zero messages — the outbox is inert")
    if baseline_codec:
        for op in ("encode_us", "decode_us"):
            current = float(results["codec"][op])
            recorded = float(baseline_codec.get(op, 0.0))
            if recorded > 0 and current > recorded * CODEC_REGRESSION_FACTOR:
                failures.append(
                    f"codec {op} regressed to {current:.3f}us — more than "
                    f"{CODEC_REGRESSION_FACTOR:.0f}x the committed baseline "
                    f"{recorded:.3f}us"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="reduced sizes (CI smoke)")
    parser.add_argument("--out", default=DEFAULT_OUT, help="output JSON path")
    parser.add_argument("--repeats", type=int, default=0, help="override repeat count")
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate the batching contract (exit 1 on failure)",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=3.0,
        help="required burst-mode envelope reduction (default 3x)",
    )
    parser.add_argument(
        "--no-sockets",
        action="store_true",
        help="skip the real-socket benchmarks (ping-pong + two-process)",
    )
    parser.add_argument(
        "--prom-out",
        default="",
        metavar="FILE",
        help="with sockets enabled, write both transports' telemetry "
        "registries as a Prometheus text-exposition snapshot",
    )
    args = parser.parse_args(argv)

    # The codec regression gate compares against the *committed*
    # BENCH_wire.json; read it before run() can overwrite it (--out
    # defaults to the same path).
    baseline_codec = None
    if args.check and os.path.exists(DEFAULT_OUT):
        try:
            with open(DEFAULT_OUT) as fh:
                baseline_codec = json.load(fh).get("codec")
        except (ValueError, OSError):
            baseline_codec = None

    results = run(
        quick=args.quick,
        repeats=args.repeats,
        sockets=not args.no_sockets,
        prom_out=args.prom_out,
    )
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")

    for mode in MODES:
        row = results["fanout"][mode]
        print(
            f"{mode:6s} best {row['best_s']:.3f}s  {row['commits_per_sec']:>7.1f} commits/s"
            f"  {row['messages']} msgs in {row['envelopes']} envelopes"
            f"  ({row['envelope_ratio_vs_off']:.2f}x vs off)"
        )
    codec = results["codec"]
    print(
        f"\ncodec: {codec['frame_bytes']}B propagate frame, "
        f"encode {codec['encode_us']} us, decode {codec['decode_us']} us"
    )
    print(
        f"setup phase: {results['setup']['off_envelopes']} -> "
        f"{results['setup']['turn_envelopes']} envelopes "
        f"({results['setup']['turn_ratio']:.2f}x) with turn batching"
    )
    if "sockets" in results:
        ping = results["sockets"]["pingpong"]
        print(
            f"sockets: frame latency p50 {ping['frame_p50_us']} us / "
            f"p99 {ping['frame_p99_us']} us, burst {ping['burst']['frames_per_sec']} "
            f"frames/s in {ping['burst']['writes']} writes "
            f"({ping['burst']['frames_coalesced']} coalesced)"
        )
        two = results["sockets"]["two_process"]
        if "commits_per_sec" in two:
            print(
                f"two-process: {two['commits_per_sec']} commits/s over real TCP "
                f"({two['commits']} commits in {two['wall_s']:.3f}s)"
            )
        else:
            print(f"two-process bench failed: {two.get('error', 'unknown')}")
    print(f"wrote {args.out}")
    if args.prom_out and "sockets" in results:
        print(f"prometheus snapshot written to {args.prom_out}")

    if args.check:
        failures = check(results, args.min_ratio, baseline_codec)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print(f"check passed (min ratio {args.min_ratio:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
