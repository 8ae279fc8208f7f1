"""Property-based tests of the protocol's core invariants (hypothesis).

Random operation scripts are generated and executed on the simulated
network with jittered latencies; afterwards we check the invariants the
paper's algorithms guarantee:

* **Convergence** — after quiescence, all replicas hold equal, committed
  values.
* **Serializability of read-modify-writes** — every committed increment
  takes effect exactly once (the RL/NC guesses really do serialize).
* **Pessimistic-view safety** — only committed values, losslessly, in
  monotonic order.
* **Quiescent cleanliness** — no pending propagations, dangling
  dependencies, or uncommitted history entries survive settle().
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import DInt, DList, DMap, Session, View
from repro.sim.network import UniformLatency

SETTINGS = settings(max_examples=25, deadline=None)


def build(n_sites, seed, kind=DInt):
    session = Session.simulated(latency_ms=40, seed=seed)
    session.network.default_latency = UniformLatency(5.0, 70.0)
    sites = session.add_sites(n_sites)
    objs = session.replicate(kind, "obj", sites, initial=0 if kind is DInt else None)
    session.settle()
    return session, sites, objs


def value(obj):
    return obj.value_at(obj.current_value_vt())


# One scripted action: (site index 0-2, action code, parameter, gap before).
action_st = st.tuples(
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 100),
    st.floats(0.0, 120.0),
)


@SETTINGS
@given(script=st.lists(action_st, min_size=1, max_size=15), seed=st.integers(0, 9))
def test_scalar_scripts_converge_committed(script, seed):
    session, sites, objs = build(3, seed)
    for site_i, action, param, gap in script:
        session.run_for(gap)
        if action == 0:  # blind write
            sites[site_i].transact(lambda o=objs[site_i], v=param: o.set(v))
        elif action == 1:  # read-modify-write
            sites[site_i].transact(lambda o=objs[site_i]: o.set(o.get() + 1))
        else:  # read-only transaction
            sites[site_i].transact(lambda o=objs[site_i]: o.get())
    session.settle()
    values = [value(o) for o in objs]
    assert len(set(values)) == 1
    for obj in objs:
        assert obj.history.current().committed
    for site in sites:
        assert not site.engine.pending_propagates
        assert not site.engine.deps.pending_vts()


@SETTINGS
@given(
    increments=st.lists(st.integers(0, 2), min_size=1, max_size=12),
    seed=st.integers(0, 9),
)
def test_increments_apply_exactly_once(increments, seed):
    session, sites, objs = build(3, seed)
    rng = random.Random(seed)
    outcomes = []
    for site_i in increments:
        outcomes.append(
            sites[site_i].transact(lambda o=objs[site_i]: o.set(o.get() + 1))
        )
        session.run_for(rng.uniform(0, 100))
    session.settle()
    committed = sum(1 for o in outcomes if o.committed)
    assert committed == len(increments)  # retries drive everything through
    assert all(value(o) == committed for o in objs)


class _PessimisticRecorder(View):
    def __init__(self, obj):
        self.obj = obj
        self.seen = []

    def update(self, changed, snapshot):
        self.seen.append(snapshot.read(self.obj))


@SETTINGS
@given(
    script=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 50)), min_size=1, max_size=10),
    seed=st.integers(0, 9),
)
def test_pessimistic_views_show_committed_prefix_in_order(script, seed):
    """Every value a pessimistic view shows must be a committed value, and
    blind writes from one site must appear in issue order (VT order)."""
    session, sites, objs = build(3, seed)
    recorders = []
    for i in range(3):
        rec = _PessimisticRecorder(objs[i])
        objs[i].attach(rec, "pessimistic")
        recorders.append(rec)
    issued = []
    rng = random.Random(seed)
    for site_i, _v in script:
        marker = (site_i + 1) * 10_000 + len(issued) + 1  # unique, nonzero
        issued.append(marker)
        sites[site_i].transact(lambda o=objs[site_i], m=marker: o.set(m))
        session.run_for(rng.uniform(0, 90))
    session.settle()
    final = value(objs[0])
    for rec in recorders:
        # 1. Everything shown was an issued (hence eventually committed)
        #    value, or the initial 0.
        assert all(v == 0 or v in issued for v in rec.seen)
        # 2. Lossless & monotonic: the view's last state is the final state.
        assert rec.seen[-1] == final
        # 3. No duplicates in sequence (each committed update shown once).
        for earlier, later in zip(rec.seen, rec.seen[1:]):
            assert earlier != later


@SETTINGS
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 99)),
        min_size=1,
        max_size=10,
    ),
    seed=st.integers(0, 5),
)
def test_map_scripts_converge(ops, seed):
    session, sites, maps = build(2, seed, kind=DMap)
    rng = random.Random(seed)
    keys = ["a", "b", "c"]
    for site_i, key_i, v in ops:
        key = keys[key_i]
        if v % 5 == 0:
            sites[site_i].transact(lambda m=maps[site_i], k=key: m.delete(k))
        else:
            sites[site_i].transact(
                lambda m=maps[site_i], k=key, vv=v: m.put(k, "int", vv)
            )
        session.run_for(rng.uniform(0, 80))
    session.settle()
    assert value(maps[0]) == value(maps[1])


def check_list_script(n_sites, ops, seed):
    """Run ``(site, action)`` pairs as list transactions — 0 inserts, 1
    removes, 2 writes an element — and check that every replica converges,
    committed, with no protocol residue."""
    session, sites, lists = build(n_sites, seed, kind=DList)
    rng = random.Random(seed)
    counter = [0]
    for site_i, action in ops:
        lst = lists[site_i]

        def body(lst=lst, action=action):
            n = len(lst)
            if action == 0 or n == 0:
                counter[0] += 1
                lst.insert(rng.randrange(n + 1), "int", counter[0])
            elif action == 1:
                lst.remove(rng.randrange(n))
            else:
                lst.child_at(rng.randrange(n)).set(1000 + counter[0])

        sites[site_i].transact(body)
        session.run_for(rng.uniform(0, 120))
    session.settle()
    for lst in lists[1:]:
        assert value(lst) == value(lists[0])
    # Structure histories agree on commit status.
    for lst in lists:
        assert lst.history.current().committed
    for site in sites:
        assert site.protocol_residue() == {}


@SETTINGS
@given(
    ops=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), min_size=1, max_size=8),
    seed=st.integers(0, 5),
)
def test_list_scripts_converge(ops, seed):
    check_list_script(2, ops, seed)


def test_list_scripts_converge_known_counterexample():
    """Two ``DList`` replicas once settled at ``[4]`` vs ``[4, 5, 6]``: an
    insert anchored after its own site's uncommitted insert guessed RC only
    on the newest structural entry, a committed one, so when the older
    insert aborted the newer one parked at site 0 for good.  A read of an
    operation log depends on every uncommitted entry it folds."""
    check_list_script(2, [(1, 0), (1, 2), (0, 1), (0, 2), (0, 1), (1, 0), (0, 1), (1, 0)], 3)


def test_list_scripts_converge_second_counterexample():
    """The same missing guess's other face: the values converged, but site
    0's structure history ended on an uncommitted insert."""
    check_list_script(2, [(0, 0), (1, 1), (0, 1), (0, 1), (0, 0), (1, 1), (0, 0), (1, 1)], 3)


@pytest.mark.parametrize(
    "ops, seed",
    [
        pytest.param([(1, 2), (0, 0), (2, 1), (1, 0), (1, 1)], 4, id="ends-uncommitted"),
        pytest.param([(2, 2), (1, 1), (2, 0), (1, 0), (0, 0), (0, 1)], 3, id="leaves-residue"),
        pytest.param([(1, 2), (1, 1), (2, 1), (1, 0), (0, 0)], 3, id="diverges"),
        pytest.param(
            [(1, 0), (1, 1), (2, 1), (2, 0), (0, 2), (1, 2), (1, 2), (2, 0)], 3, id="gc-dropped"
        ),
    ],
)
def test_list_scripts_converge_three_sites(ops, seed):
    """Three-site inputs, drawn by the generator above, that failed while a
    structure read guessed RC only on the newest entry.  In the last, site
    1's history GC had dropped its own uncommitted insert below a committed
    one before a write to that insert's child read the list: the guess must
    come from the slot events, not the history."""
    check_list_script(3, ops, seed)
