"""Measure bounded-exhaustive schedule counts for the EXPERIMENTS.md table.

Writes JSON to stdout/--out: per config, full vs POR schedule counts,
distinct outcomes, wall time, and cross-check verdicts.  Entries whose full
enumeration is infeasible report POR-only numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.explore.mc import explore
from repro.explore.plan import exhaustive_config

#: (name, sites, txns, views, enumerate_full).  The 3-site unreduced
#: spaces are out of reach (>20k schedules at ~11 ms per replay — see
#: EXPERIMENTS.md § "Exhaustive checking"), so those rows are POR-only.
CASES = [
    ("2s-2rmw", 2, [(0, "rmw"), (1, "rmw")], False, True),
    ("2s-2rmw+views", 2, [(0, "rmw"), (1, "rmw")], True, True),
    ("2s-2blind+views", 2, [(0, "blind"), (1, "blind")], True, True),
    ("2s-2xfer", 2, [(0, "xfer"), (1, "xfer")], False, True),
    ("2s-3txn", 2, [(0, "rmw"), (1, "rmw"), (0, "blind")], False, True),
    ("3s-2rmw", 3, [(0, "rmw"), (1, "rmw")], False, False),
    ("3s-2rmw-remote", 3, [(1, "rmw"), (2, "rmw")], False, False),
    ("3s-2rmw-third-party+views", 3, [(2, "rmw"), (0, "rmw")], True, False),
    ("3s-2blind-third-party+views", 3, [(1, "blind"), (1, "blind")], True, False),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    rows = []
    for name, n, txns, views, do_full in CASES:
        cfg = exhaustive_config(n, txns, views=views)
        row = {"name": name, "n_sites": n, "txns": txns, "views": views}
        t0 = time.time()
        red = explore(cfg, por=True)
        row["por_schedules"] = red.stats.schedules
        row["por_pruned"] = red.stats.pruned
        row["por_seconds"] = round(time.time() - t0, 2)
        row["distinct_outcomes"] = red.stats.distinct_outcomes
        row["max_depth"] = red.stats.max_depth
        row["ok"] = red.ok
        if do_full:
            t0 = time.time()
            full = explore(cfg, por=False)
            row["full_schedules"] = full.stats.schedules
            row["full_seconds"] = round(time.time() - t0, 2)
            row["ratio"] = round(red.stats.schedules / full.stats.schedules, 4)
            row["violations_match"] = full.violation_keys() == red.violation_keys()
            row["outcomes_match"] = set(full.outcomes) == set(red.outcomes)
        rows.append(row)
        print(json.dumps(row), file=sys.stderr, flush=True)

    doc = json.dumps(rows, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc + "\n")
    else:
        print(doc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
