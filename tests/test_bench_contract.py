"""Contract tests for the benchmark suite itself.

The CLI (`repro.cli`) and EXPERIMENTS.md both rely on structural
conventions across `benchmarks/bench_e*.py`; these tests pin them so a new
experiment cannot silently break the tooling.  CI and the documentation
name benchmark, script and test files by path; those names must resolve.
"""

import glob
import importlib.util
import os
import re

import pytest

from repro.bench.report import Table


def bench_modules():
    directory = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks")
    out = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("bench_e") and name.endswith(".py"):
            out.append(os.path.join(directory, name))
    return out


def load(path):
    name = "contract_" + os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchConventions:
    def test_all_thirteen_experiments_present(self):
        ids = {os.path.basename(p).split("_")[1] for p in bench_modules()}
        assert ids == {f"e{i}" for i in range(1, 14)}

    def test_every_bench_has_run_experiment_and_doc(self):
        for path in bench_modules():
            module = load(path)
            assert hasattr(module, "run_experiment"), path
            assert (module.__doc__ or "").strip(), path
            # The docstring names the paper section it reproduces.
            assert "section" in module.__doc__ or "§" in module.__doc__, path

    def test_every_bench_has_one_pytest_entry(self):
        for path in bench_modules():
            module = load(path)
            tests = [n for n in dir(module) if n.startswith("test_")]
            assert len(tests) == 1, path

    @pytest.mark.parametrize(
        "exp", ["bench_e1_commit_latency.py", "bench_e8_indirect.py"]
    )
    def test_run_experiment_returns_table_first(self, exp):
        path = next(p for p in bench_modules() if p.endswith(exp))
        result = load(path).run_experiment()
        table = result[0] if isinstance(result, tuple) else result
        assert isinstance(table, Table)
        assert table.rows


class TestResultsArtifacts:
    def test_results_written_by_suite(self):
        directory = os.path.join(
            os.path.dirname(os.path.dirname(__file__)), "benchmarks", "results"
        )
        if not os.path.isdir(directory):
            pytest.skip("benchmarks not yet run")
        names = os.listdir(directory)
        assert any(name.startswith("E1") for name in names)
        assert any(name.startswith("E6") for name in names)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A repository file named by path (or a benchmark by bare file name).
FILE_POINTER = re.compile(
    r"(?<![\w/.-])("
    r"(?:benchmarks|scripts|tests|examples|perf|docs|src/repro)/[\w./-]*\w\.(?:py|md|json)"
    r"|BENCH_\w+\.json|bench_\w+\.py)"
)


def pointing_files():
    """CI's commands and the maintained documents (CHANGES/ROADMAP/ISSUE are
    history and may name what is gone; perf/ documents itself)."""
    names = ["README.md", "DESIGN.md", "EXPERIMENTS.md", ".github/workflows/ci.yml"]
    return names + sorted(
        os.path.relpath(p, ROOT) for p in glob.glob(os.path.join(ROOT, "docs", "*.md"))
    )


class TestFilePointers:
    @pytest.mark.parametrize("name", pointing_files())
    def test_every_named_file_exists(self, name):
        with open(os.path.join(ROOT, name), encoding="utf-8") as handle:
            pointers = set(FILE_POINTER.findall(handle.read()))
        stale = sorted(
            p
            for p in pointers
            if not os.path.exists(os.path.join(ROOT, p))
            and not os.path.exists(os.path.join(ROOT, "benchmarks", p))
        )
        assert not stale, f"{name} names files that do not exist: {stale}"
