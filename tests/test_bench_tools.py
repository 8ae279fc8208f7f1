"""Unit tests for the bench harness and reporting tools."""

import pytest

from repro.bench import (
    LatencyProbeView,
    Series,
    Table,
    attach_probe,
    format_table,
    multi_party_scenario,
    two_party_scenario,
)
from repro import DMap
from repro.bench.report import emit, format_series


class TestTable:
    def test_add_and_format(self):
        table = Table(title="T", headers=["a", "b"])
        table.add(1, 2.5)
        table.add("x", None)
        text = format_table(table)
        assert "T" in text and "2.5" in text and "-" in text

    def test_width_mismatch_rejected(self):
        table = Table(title="T", headers=["a"])
        with pytest.raises(ValueError):
            table.add(1, 2)

    def test_notes_rendered(self):
        table = Table(title="T", headers=["a"])
        table.add(1)
        table.note("hello")
        assert "note: hello" in format_table(table)

    def test_alignment(self):
        table = Table(title="T", headers=["col"])
        table.add("longvalue")
        lines = format_table(table).splitlines()
        header_line = next(l for l in lines if l.startswith("col"))
        assert len(header_line) == len("longvalue")


class TestSeries:
    def test_combined_series_table(self):
        s1, s2 = Series("one"), Series("two")
        s1.add(1, 10)
        s1.add(2, 20)
        s2.add(2, 200)
        text = format_series([s1, s2], x_label="n")
        assert "one" in text and "two" in text
        assert "200" in text

    def test_missing_points_dash(self):
        s1, s2 = Series("one"), Series("two")
        s1.add(1, 10)
        text = format_series([s1, s2])
        assert "-" in text


class TestEmit:
    def test_emit_writes_file(self, tmp_path, capsys):
        emit("TEST_exp", "hello world", results_dir=str(tmp_path))
        out = capsys.readouterr().out
        assert "hello world" in out
        assert (tmp_path / "TEST_exp.txt").read_text() == "hello world\n"


class TestScenarios:
    def test_two_party(self):
        scenario = two_party_scenario(latency_ms=10.0)
        assert scenario.a.get() == 0
        scenario.alice.transact(lambda: scenario.a.set(3))
        scenario.session.settle()
        assert scenario.b.get() == 3

    def test_multi_party(self):
        scenario = multi_party_scenario(4, latency_ms=10.0, initial=9)
        assert len(scenario.sites) == 4
        assert all(o.get() == 9 for o in scenario.objects)

    def test_scenario_kinds(self):
        scenario = two_party_scenario(latency_ms=10.0, kind=DMap)
        scenario.alice.transact(lambda: scenario.a.put("k", "int", 1))
        scenario.session.settle()
        assert scenario.b.value_at(scenario.b.current_value_vt()) == {"k": 1}


class TestProbeView:
    def test_first_seen(self):
        scenario = two_party_scenario(latency_ms=10.0)
        probe = attach_probe(scenario.bob, [scenario.b], "optimistic")
        t0 = scenario.session.scheduler.now
        scenario.alice.transact(lambda: scenario.a.set(5))
        scenario.session.settle()
        assert probe.first_seen("shared", 5) == t0 + 10.0
        assert probe.first_seen("shared", 999) is None

    def test_first_commit_after(self):
        scenario = two_party_scenario(latency_ms=10.0)
        probe = attach_probe(scenario.bob, [scenario.b], "optimistic")
        t0 = scenario.session.scheduler.now
        scenario.alice.transact(lambda: scenario.a.set(5))
        scenario.session.settle()
        assert probe.first_commit_after(t0) is not None

    def test_proxy_accessor(self):
        scenario = two_party_scenario(latency_ms=10.0)
        probe = attach_probe(scenario.bob, [scenario.b], "optimistic")
        assert probe.proxy is not None
        assert probe.proxy.view is probe

