"""Smoke test of the benchmark itself.  Run with ``python -m pytest perf/tests``
(outside the tier-1 ``testpaths``: it starts processes and opens sockets)."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path[0:0] = [str(ROOT), str(ROOT / "src")]

from perf import gate  # noqa: E402
from perf.run import verdict  # noqa: E402
from perf.trace import self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_quick_pass_prints_every_declared_metric():
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--quick", "--traced"],
        stdout=subprocess.PIPE, text=True, timeout=120, cwd=str(ROOT),
    )
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stdout[-4000:]
    assert elapsed < 30.0, f"--quick of every workload took {elapsed:.1f} s"
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for workload in SPEC["workloads"]:
        assert NAME.fullmatch(workload["name"])
        # Each workload is reported twice: untraced, then traced.
        assert done.stdout.count(f"== {workload['name']} ") == 2
    printed = re.findall(r"^   ([A-Za-z0-9_.-]+) +-?[0-9.]+ ", done.stdout, flags=re.M)
    for name in declared:
        assert NAME.fullmatch(name), name
        assert printed.count(name) == len(SPEC["workloads"]), name
    assert "PROBLEM" not in done.stdout
    assert "correct: NO" not in done.stdout


def test_single_workload_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--quick", "--workload",
         "tcp_turn_1client", "--seed", "7", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=60, cwd=str(ROOT),
    )
    assert done.returncode == 0, done.stdout[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, reading in result["metrics"].items():
        assert reading["unit"] == units[name]
        assert reading["value"] > 0, name  # end-to-end metrics are never 0


def test_gate_fails_on_a_mismatched_digest():
    same = {"s0:doc": ((5, 1), "42")}
    assert gate.digest_problems("t", [same, dict(same)]) == []
    problems = gate.digest_problems("t", [same, {"s0:doc": ((5, 1), "41")}])
    assert len(problems) == 1 and "s0:doc" in problems[0]

    class Site:
        site_id = 3

        def protocol_residue(self):
            return {"unresolved-transactions": ["7@1 state=awaiting-confirms"]}

    assert "unresolved-transactions" in gate.residue_problems("t", [Site()])[0]

    class ShownView:
        last = 41

    assert gate.shown_problems("t", 42, [ShownView()])


def test_self_time_is_duration_minus_children():
    # transact [0, 10] contains send [2, 7], which contains encode [3, 5];
    # dispatch [12, 20] contains two callbacks [13, 14] and [15, 18].
    spans = [
        ("core.transact", 0.0, 10.0, -1, (1, 0)),
        ("tcp.send", 2.0, 7.0, 0, (1, 0)),
        ("wire.encode", 3.0, 5.0, 1, (1, 0)),
        ("core.dispatch", 12.0, 20.0, -1, (1, 0)),
        ("views.callback", 13.0, 14.0, 3, (1, 0)),
        ("views.callback", 15.0, 18.0, 3, None),
        ("core.dispatch", 21.0, 0.0, -1, None),  # never finished: skipped
    ]
    totals = self_times(spans)
    assert totals == {
        "core.transact": (1, 5.0),
        "tcp.send": (1, 3.0),
        "wire.encode": (1, 2.0),
        "core.dispatch": (1, 4.0),
        "views.callback": (2, 4.0),
    }
    # Self times partition the time covered by top-level spans.
    assert sum(total for _count, total in totals.values()) == 10.0 + 8.0
    # A run of spans cut out of a longer recording keeps its parent links.
    assert self_times(spans[3:6], base=3) == {"core.dispatch": (1, 4.0), "views.callback": (2, 4.0)}


def test_verdict_reports_noise_as_unresolved_not_unchanged():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert verdict(steady, [100.2, 99.8, 100.9, 100.1], 0.05, "lower") == "unchanged"
    assert verdict(steady, [110.0, 111.0, 109.5, 110.4], 0.05, "lower") == "worse"
    assert verdict(steady, [110.0, 111.0, 109.5, 110.4], 0.05, "higher") == "better"
    noisy = [100.0, 130.0, 80.0, 115.0]
    assert verdict(steady, noisy, 0.05, "lower") == "unresolved"
    assert verdict([100.0], [103.0], 0.05, "lower") == "unchanged"
    assert verdict([100.0], [106.0], 0.05, "lower") == "worse"


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perf"] and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
