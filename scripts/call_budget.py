"""Where the Python calls of a commit go, by module and by function.

Replays the two scenarios ``tests/test_call_budget.py`` pins (4 sites x 2
``DInt``s, both views on every replica, 240 transactions: blind writes, and
the read-modify-write twin) under ``sys.setprofile`` and prints calls per
commit for every ``repro`` module and for the busiest functions — the same
frames the test counts, with the test's own counter, so the totals are its
ceilings' readings.  Also prints the two counts that are not calls: import
statements executed and dataclass ``__init__``s (generated code, compiled
under ``<string>``).

Counts are exact for a seed and do not depend on the host; start a perf
change from this table, then measure with ``perf/run.py``.

    PYTHONPATH=src python scripts/call_budget.py [--top 40]
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from tests import test_call_budget as budget  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=40, help="functions to list per scenario")
    args = parser.parse_args()
    per = float(budget.TXNS)
    for name, build_args in budget.SCENARIOS.items():
        session, _sites, outcomes = budget._build(**build_args)
        counts = budget._count(session.settle)
        assert len(outcomes) == budget.TXNS and all(o.committed for o in outcomes)
        by_module: Counter = Counter()
        for (module, _function), calls in counts.by_function.items():
            by_module[module] += calls
        print(
            f"== {name}: {counts.calls / per:.1f} Python calls per commit, "
            f"{counts.dataclass_inits / per:.1f} dataclass __init__s, "
            f"{counts.imports / per:.1f} import statements executed"
        )
        for module, calls in by_module.most_common():
            print(f"  {calls / per:8.1f}  {module}")
        print(f"  -- top {args.top} functions")
        for (module, function), calls in counts.by_function.most_common(args.top):
            print(f"  {calls / per:8.1f}  {module}:{function}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
