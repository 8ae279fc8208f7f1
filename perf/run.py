#!/usr/bin/env python3
"""The repository's one benchmark.  See perf/README.md.

    python3 perf/run.py                         # every workload, end-to-end metrics
    python3 perf/run.py --traced                # ... then the traced pass: per-layer metrics + budget
    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py --selfcheck             # the full set twice; must agree within the bounds

Each workload runs in its own fresh child process, strictly one after the
other.  With a single ``--workload`` and a single mode, the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` whose metrics are every ``end_to_end`` metric of
BENCHMARK.json (``--trace 0``) or every ``per_layer`` metric (``--trace 1``).
The exit status is non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (telemetry temp dirs, span dumps); git-ignored.
SCRATCH = Path(__file__).resolve().parent / ".out"
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170.0


def catalogue() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Child: one workload, one mode, in this process
# ---------------------------------------------------------------------------


def child(args: argparse.Namespace) -> int:
    # perf/ itself must not be importable as top-level modules: perf/trace.py
    # would shadow the standard library's ``trace``.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    from perf import layers, sim_workloads, socket_workloads

    spec = catalogue()
    name, traced = args.workload[0], bool(args.trace)
    SCRATCH.mkdir(exist_ok=True)
    if name in sim_workloads.SPECS:
        result = sim_workloads.run(name, args.seed, args.seconds, traced, args.quick)
    else:
        result = socket_workloads.run(
            name, args.seed, args.seconds, traced, args.quick, str(SCRATCH)
        )
    problems = list(result["problems"])
    report: Dict[str, Any] = {
        "workload": name,
        "traced": traced,
        "attempted": result["attempted"],
        # A failed correctness check is a failed op too: it is never dropped.
        "failed": result["failed"] + len(problems),
        "problems": problems,
        "notes": result["notes"],
    }
    if traced:
        declared = [metric["name"] for metric in spec["per_layer"]]
        report["metrics"] = layers.per_layer(declared, result["traced"])
        report["budget"] = layers.budget(result["traced"])
        report["samples"] = {"runtime.commit_p99_ms": len(result["traced"].commit_wall_s)}
        if args.spans_out:
            result["tracer"].write(args.spans_out)
    else:
        declared = [metric["name"] for metric in spec["end_to_end"]]
        report["metrics"] = result["metrics"]
        report["samples"] = result["samples"]
    if set(report["metrics"]) != set(declared):
        problems.append(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(report['metrics']) ^ set(declared))}"
        )
    report["correct"] = not problems and report["failed"] == 0
    print(json.dumps(report))
    return 0 if report["correct"] else 1


# ---------------------------------------------------------------------------
# Parent: orchestrate children, print, compare
# ---------------------------------------------------------------------------


def run_child(workload: str, seed: int, seconds: float, trace: int, quick: bool,
              spans_out: str = "") -> Dict[str, Any]:
    """Run one workload in a fresh process and return its report.

    A child that crashes, hangs or prints no report yields an incorrect
    report with no metrics rather than an exception, so one broken
    workload does not hide the others' numbers.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if quick:
        command.append("--quick")
    if spans_out:
        command += ["--spans-out", spans_out]
    failure = ""
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, cwd=str(ROOT)
        )
        lines = done.stdout.strip().splitlines()
        if lines:
            try:
                return json.loads(lines[-1])
            except json.JSONDecodeError:
                pass
        failure = f"child exited {done.returncode} without a report"
    except subprocess.TimeoutExpired:
        failure = f"child killed after {CHILD_TIMEOUT_S:g} s"
    return {
        "workload": workload, "traced": bool(trace), "correct": False, "attempted": 1,
        "failed": 1, "metrics": {}, "samples": {}, "problems": [failure], "notes": [],
    }


def units(spec: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_report(report: Dict[str, Any], spec: Dict[str, Any]) -> None:
    unit = units(spec)
    mode = "traced: per-layer" if report["traced"] else "untraced: end-to-end"
    print(f"\n== {report['workload']}  [{mode}]  {'; '.join(report['notes'])}")
    print(
        f"   correct: {'yes' if report['correct'] else 'NO'}   "
        f"ops_attempted: {report['attempted']}   ops_failed: {report['failed']}"
    )
    for problem in report["problems"][:10]:
        print(f"   PROBLEM: {problem}")
    if len(report["problems"]) > 10:
        print(f"   ... and {len(report['problems']) - 10} more problems")
    if report.get("budget"):
        print("   budget, us of CPU per commit (self time of each traced boundary):")
        for name, value in report["budget"]:
            print(f"     {name:<34}{value:>12.2f}")
        total = sum(value for _name, value in report["budget"])
        print(f"     {'= process CPU per commit':<34}{total:>12.2f}")
    for name, value in report["metrics"].items():
        samples = report["samples"].get(name)
        count = f"   (n={samples})" if samples is not None else ""
        print(f"   {name:<36}{value:>14.4f} {unit.get(name, '?')}{count}")


def contract_line(report: Dict[str, Any], spec: Dict[str, Any]) -> str:
    unit = units(spec)
    return json.dumps({
        "correct": report["correct"],
        "attempted": max(int(report["attempted"]), 1),
        "failed": int(report["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit[name]} for name, value in report["metrics"].items()
        },
    })


def verdict(first: Sequence[float], second: Sequence[float], bound: float, better: str) -> str:
    """Compare two sets of runs of one metric on one workload.

    ``unresolved`` when the run-to-run spread of either set (interquartile
    range over median with four or more runs, range over median with two
    or three) exceeds the bound — a difference cannot be told from noise
    then, so it must not be reported as ``unchanged``.  Otherwise
    ``worse`` / ``better`` when the second median moved by more than the
    bound in that direction, else ``unchanged``.
    """
    def spread(values: Sequence[float]) -> float:
        middle = statistics.median(values)
        if len(values) >= 4:
            quartiles = statistics.quantiles(values, n=4)
            return (quartiles[2] - quartiles[0]) / middle
        return (max(values) - min(values)) / middle if len(values) > 1 else 0.0

    if max(spread(first), spread(second)) > bound:
        return "unresolved"
    a, b = statistics.median(first), statistics.median(second)
    change = (b - a) / a if better == "lower" else (a - b) / a
    if change > bound:
        return "worse"
    return "better" if change < -bound else "unchanged"


def selfcheck(args: argparse.Namespace, spec: Dict[str, Any], workloads: List[str]) -> int:
    """Run the full set twice (``--repeats`` runs per set, interleaved) and
    fail unless every end-to-end metric of every workload is ``unchanged``."""
    sets: List[Dict[str, Dict[str, List[float]]]] = [{}, {}]
    correct = True
    for repeat in range(args.repeats):
        for half in (0, 1):
            for workload in workloads:
                report = run_child(workload, args.seed + repeat, args.seconds, 0, args.quick)
                correct &= report["correct"]
                for name, value in report["metrics"].items():
                    sets[half].setdefault(workload, {}).setdefault(name, []).append(value)
    disagreements = 0
    for workload in workloads:
        print(f"\n== {workload}")
        for metric in spec["end_to_end"]:
            first = sets[0].get(workload, {}).get(metric["name"], [])
            second = sets[1].get(workload, {}).get(metric["name"], [])
            if not first or not second:
                outcome = "missing"
            else:
                outcome = verdict(first, second, metric["bound"], metric["better"])
            disagreements += outcome != "unchanged"
            print(
                f"   {metric['name']:<22}{statistics.median(first or [0]):>14.4f}"
                f"{statistics.median(second or [0]):>14.4f} {metric['unit']:<16}"
                f"bound {metric['bound']:.0%}  {outcome}"
            )
    print(f"\nselfcheck: {disagreements} metric(s) not 'unchanged'; correct: {correct}")
    return 0 if correct and not disagreements else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: traced run, per-layer metrics only")
    parser.add_argument("--traced", action="store_true",
                        help="after the untraced pass, also run the traced pass")
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--repeats", type=int, default=1, help="runs per set for --selfcheck")
    parser.add_argument("--spans-out", default="", metavar="FILE",
                        help="traced run: write every span to FILE after the window")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = catalogue()
    if args.seconds is None:
        args.seconds = 0.5 if args.quick else float(spec["run_seconds"])
    if args.child:
        return child(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf: {ROOT / 'src' / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    known = [workload["name"] for workload in spec["workloads"]]
    workloads = args.workload or known
    for workload in workloads:
        if workload not in known:
            parser.error(f"unknown workload {workload!r}; choose from {known}")
    if args.selfcheck:
        return selfcheck(args, spec, workloads)

    modes = [args.trace] if args.trace is not None else ([0, 1] if args.traced else [0])
    print(f"perf: {len(workloads)} workload(s), seed {args.seed}, {args.seconds:g} s measured each, "
          f"sockets on the loopback interface, {os.cpu_count()} CPU(s)")
    reports = []
    for trace in modes:
        for workload in workloads:
            spans_out = args.spans_out if trace and len(workloads) == 1 else ""
            reports.append(run_child(workload, args.seed, args.seconds, trace, args.quick, spans_out))
            print_report(reports[-1], spec)
            sys.stdout.flush()
    print()
    if len(reports) == 1:
        print(contract_line(reports[0], spec))
    return 0 if all(report["correct"] for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
