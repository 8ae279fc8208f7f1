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


@SETTINGS
@given(
    ops=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), min_size=1, max_size=8),
    seed=st.integers(0, 5),
)
def test_list_scripts_converge(ops, seed):
    session, sites, lists = build(2, seed, kind=DList)
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
    assert value(lists[0]) == value(lists[1])
    # Structure histories agree on commit status.
    assert lists[0].history.current().committed
    assert lists[1].history.current().committed


@pytest.mark.xfail(strict=True, reason="ROADMAP first open item")
def test_list_scripts_converge_known_counterexample():
    """An input that makes two ``DList`` replicas diverge, pinned so tier-1
    keeps seeing the open bug: they settle at ``[4]`` vs ``[4, 5, 6]`` with
    two propagates parked forever at site 0 — no crash, no drop, two sites."""
    test_list_scripts_converge.hypothesis.inner_test(
        ops=[(1, 0), (1, 2), (0, 1), (0, 2), (0, 1), (1, 0), (0, 1), (1, 0)], seed=3
    )


@pytest.mark.xfail(strict=True, reason="ROADMAP first open item")
def test_list_scripts_converge_second_counterexample():
    """The bug's other face: the values converge, but site 0's structure
    history ends on an uncommitted insert.  Pinned beside the first so the
    fix has to flip both."""
    test_list_scripts_converge.hypothesis.inner_test(
        ops=[(0, 0), (1, 1), (0, 1), (0, 1), (0, 0), (1, 1), (0, 0), (1, 1)], seed=3
    )
