"""The correctness gate every workload passes before its numbers count.

Each check returns a list of human-readable problems (empty = pass), so a
workload can run them all, count the failures into ``ops_failed`` and still
print its metrics beside the verdict.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence


def digest_problems(label: str, digests: Sequence[Dict[str, Any]]) -> List[str]:
    """Every replica's ``state_digest()`` must equal the first one's."""
    problems = []
    for index, digest in enumerate(digests[1:], start=1):
        if digest != digests[0]:
            keys = sorted(
                key for key in set(digest) | set(digests[0])
                if digest.get(key) != digests[0].get(key)
            )
            problems.append(f"{label}: replica {index} digest differs from replica 0 at {keys}")
    return problems


def residue_problems(label: str, sites: Iterable[Any]) -> List[str]:
    """``protocol_residue()`` must be empty at every site once drained."""
    problems = []
    for site in sites:
        residue = site.protocol_residue()
        if residue:
            summary = {category: len(items) for category, items in residue.items()}
            problems.append(f"{label}: site {site.site_id} protocol residue {summary}")
    return problems


def shown_problems(label: str, expected: Any, views: Iterable[Any]) -> List[str]:
    """The last value written must be the last value each remote view showed."""
    return [
        f"{label}: {type(view).__name__} last showed {view.last!r}, last write was {expected!r}"
        for view in views
        if view.last != expected
    ]


def replica_group_problems(label: str, sites: Sequence[Any]) -> List[str]:
    """Digest agreement plus empty residue for one collaboration's sites."""
    return digest_problems(label, [site.state_digest() for site in sites]) + residue_problems(
        label, sites
    )
