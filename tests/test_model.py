"""Unit tests for the ModelObject base: identity, graphs, paths, proxies."""

import pytest

from repro import Session
from repro.core.guesses import DependencyIndex
from repro.core.model import embed_tag
from repro.core.messages import SlotId
from repro.errors import ProtocolError
from repro.vtime import VirtualTime


def vt(counter, site=0):
    return VirtualTime(counter, site)


@pytest.fixture()
def site():
    return Session().add_site("app")


class TestIdentity:
    def test_root_uid(self, site):
        x = site.create_int("x")
        assert x.uid == "s0:x"

    def test_child_uid_unique_and_stable(self, site):
        lst = site.create_list("l")
        holder = []
        site.transact(lambda: holder.extend([lst.append("int", 1), lst.append("int", 2)]))
        uids = [c.uid for c in holder]
        assert len(set(uids)) == 2
        assert all(uid.startswith("s0:l[") for uid in uids)

    def test_embed_tag_for_slot_id(self):
        assert embed_tag(SlotId(vt(7, 2), 3)) == "7@2.3"

    def test_embed_tag_for_vt(self):
        assert embed_tag(vt(7, 2)) == "7@2"


class TestGraphPlumbing:
    def test_root_has_own_graph(self, site):
        x = site.create_int("x")
        assert x.has_own_graph()
        assert x.graph().is_singleton()
        assert x.propagation_root() is x

    def test_embedded_child_inherits_graph(self, site):
        lst = site.create_list("l")
        holder = []
        site.transact(lambda: holder.append(lst.append("int", 1)))
        child = holder[0]
        assert not child.has_own_graph()
        assert child.propagation_root() is lst
        assert child.graph() is lst.graph()

    def test_enable_direct_propagation(self, site):
        lst = site.create_list("l")
        holder = []
        site.transact(lambda: holder.append(lst.append("int", 1)))
        child = holder[0]
        child.enable_direct_propagation()
        assert child.has_own_graph()
        assert child.propagation_root() is child

    def test_primary_site_of_singleton(self, site):
        x = site.create_int("x")
        assert x.primary_site() == 0
        assert x.is_primary_here()

    def test_replica_sites(self, site):
        x = site.create_int("x")
        assert x.replica_sites() == [0]


class TestPaths:
    def test_root_path_is_empty(self, site):
        x = site.create_int("x")
        assert x.path_from_root() == ()

    def test_nested_path_steps(self, site):
        lst = site.create_list("l")
        holder = []

        def build():
            inner = lst.append("map", {})
            holder.append(inner)

        site.transact(build)
        inner = holder[0]
        holder2 = []
        site.transact(lambda: holder2.append(inner.put("k", "int", 1)))
        leaf = holder2[0]
        path = leaf.path_from_root()
        assert len(path) == 2
        assert path[0].key is None  # list step addressed by SlotId
        assert path[1].key == "k"

    def test_path_stops_at_direct_propagation_node(self, site):
        lst = site.create_list("l")
        holder = []
        site.transact(lambda: holder.append(lst.append("int", 1)))
        child = holder[0]
        child.enable_direct_propagation()
        assert child.path_from_root() == ()


class _Target:
    """A dependency-index target that logs how it was told."""

    def __init__(self, fired, tag=None):
        self.fired, self.tag = fired, tag

    def on_dep_commit(self, dep_vt, vouched):
        self.fired.append("c" if self.tag is None else self.tag)

    def on_dep_abort(self, dep_vt):
        self.fired.append("a")


class TestDependencyIndex:
    def test_commit_resolution(self):
        index = DependencyIndex()
        fired = []
        index.wait_for(vt(5), _Target(fired))
        assert index.resolve_commit(vt(5)) == 1
        assert fired == ["c"]
        assert len(index) == 0

    def test_abort_resolution(self):
        index = DependencyIndex()
        fired = []
        index.wait_for(vt(5), _Target(fired))
        index.resolve_abort(vt(5))
        assert fired == ["a"]

    def test_multiple_waiters(self):
        index = DependencyIndex()
        fired = []
        for i in range(3):
            index.wait_for(vt(5), _Target(fired, i))
        assert index.resolve_commit(vt(5)) == 3
        assert fired == [0, 1, 2]

    def test_unknown_vt_resolves_zero(self):
        index = DependencyIndex()
        assert index.resolve_commit(vt(99)) == 0

    def test_pending_vts(self):
        index = DependencyIndex()
        index.wait_for(vt(1), _Target([]))
        index.wait_for(vt(2), _Target([]))
        assert index.pending_vts() == {vt(1), vt(2)}


class TestViewAttachment:
    def test_attach_registers_proxy(self, site):
        from repro import View

        class Null(View):
            def update(self, changed, snapshot):
                pass

        x = site.create_int("x")
        proxy = x.attach(Null(), "optimistic")
        assert proxy in x.proxies
        assert proxy in site.views.proxies

    def test_detach_unregisters(self, site):
        from repro import View

        class Null(View):
            def update(self, changed, snapshot):
                pass

        x = site.create_int("x")
        proxy = x.attach(Null(), "pessimistic")
        site.views.detach(proxy)
        assert proxy not in x.proxies
        assert proxy not in site.views.proxies

    def test_unknown_mode_rejected(self, site):
        from repro import View

        class Null(View):
            def update(self, changed, snapshot):
                pass

        x = site.create_int("x")
        with pytest.raises(ValueError):
            x.attach(Null(), "sometimes")
