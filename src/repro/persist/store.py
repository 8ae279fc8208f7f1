"""Checkpoint and restore of a site's committed model-object state.

A checkpoint is the join protocol's state export (:mod:`repro.core.sync`,
paper section 3.3) of every root model object, reduced to **committed**
state and written by the wire codec: no committed effect is lost, and no
optimistic value, insert, remove or put that may still abort comes back.
Slot identities (VT tags) ride in the export, so restored composites keep
resolvable indirect-propagation paths.  Replication graphs are NOT saved:
a restarted application rejoins through the ordinary invitation/join
protocol, whose state sync reconciles what it missed while down.
"""

from typing import Dict, Tuple

from repro.core.messages import SlotId
from repro.core.model import ModelObject
from repro.core.scalars import SCALAR_KINDS
from repro.core.site import SiteRuntime
from repro.core.sync import build_from_spec, export_state
from repro.errors import ReproError
from repro.vtime import VirtualTime
from repro.wire.codec import decode, encode

#: First element of the payload (1 was the JSON document this replaces).
FORMAT_VERSION = 2


class CheckpointError(ReproError):
    """Checkpoint bytes are malformed, incompatible, or name a live object."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckpointError(f"malformed checkpoint: {what}")


def _committed_history(entries: Tuple, value_types: Tuple[type, ...] = (str,)) -> Tuple:
    """The newest committed ``(vt, value, True)`` entry of an exported history
    (a composite's structure history holds debug text, hence the default)."""
    kept = tuple(e for e in entries if e[2] is True)[-1:]
    _expect(len(kept) == 1, "no committed entry")
    # Exact types: a bool is an int to isinstance, and DInt refuses it.
    _expect(type(kept[0][0]) is VirtualTime and type(kept[0][1]) in value_types, "entry")
    return kept


def _committed(spec: Tuple, root: bool = True) -> Tuple:
    """Reduce an exported node spec to its committed state: a filter over
    the spec, not a walk over objects.  Restore accepts only its fixed
    points, so it also decides what a well-formed spec is."""
    kind, entries, *rest = spec
    if kind == "list":
        (slots,) = rest
        kept = tuple(
            (slot_id, True, tuple(r for r in removes if r[1] is True), _committed(child, False))
            for slot_id, embed_committed, removes, child in slots
            if embed_committed is True
        )
        ids = [s[0] for s in kept]
        _expect(len(set(ids)) == len(ids) and all(type(i) is SlotId for i in ids), "slot id")
        _expect(all(type(i.vt) is VirtualTime and type(i.seq) is int for i in ids), "slot id")
        _expect(all(type(vt) is VirtualTime for s in kept for vt, _ in s[2]), "remove")
        return (kind, _committed_history(entries), kept)
    if kind == "map":
        (keys,) = rest
        kept = tuple(
            (key, ((vt, True, None if child is None else _committed(child, False)),))
            for key, slots in keys
            for vt, _, child in tuple(s for s in slots if s[1] is True)[-1:]
        )
        _expect(len({k for k, _ in kept}) == len(kept), "duplicate key")
        _expect(all(type(s[0][0]) is VirtualTime for _, s in kept), "map slot")
        return (kind, _committed_history(entries), kept)
    _expect(not rest and (kind in SCALAR_KINDS or (kind == "association" and root)), "kind")
    if kind != "association":
        return (kind, _committed_history(entries, SCALAR_KINDS[kind].value_types))
    history = _committed_history(entries, (tuple,))
    for rel_id, members in history[0][1]:
        _expect(type(rel_id) is str, "relationship")
        _expect(all(type(u) is str and type(s) is int for u, s in members), "member")
    return (kind, history)


def checkpoint_site(site: SiteRuntime) -> bytes:
    """Capture the committed state of all root objects at ``site``."""
    objects = tuple(
        (obj.name, _committed(export_state(obj)[0]))
        for obj in site.objects.values()
        if obj.parent is None  # embedded children ride inside their roots
    )
    return encode((FORMAT_VERSION, site.clock.counter, objects))


def restore_site(site: SiteRuntime, data: bytes) -> Dict[str, ModelObject]:
    """Recreate the checkpointed objects at a (fresh) site, keyed by name, and
    advance its Lamport clock past the checkpoint's.  ``data`` is untrusted:
    nothing is built unless all of it is well-formed and no name is taken."""
    specs: Dict[str, Tuple] = {}
    try:
        version, clock, objects = decode(data)
        _expect(version == FORMAT_VERSION, f"format {version!r}")
        _expect(type(clock) is int and clock >= 0, "clock")
        for name, spec in objects:
            _expect(type(name) is str and name not in specs, "object name")
            _expect(_committed(spec) == spec, f"{name!r} is not committed state")
            site._check_fresh(name)
            specs[name] = spec
    except CheckpointError:
        raise
    except (ReproError, TypeError, ValueError, IndexError) as exc:
        raise CheckpointError(f"checkpoint refused: {type(exc).__name__}: {exc}") from exc
    site.clock.observe(VirtualTime(clock, site.site_id))
    return {name: build_from_spec(site, name, spec) for name, spec in specs.items()}
