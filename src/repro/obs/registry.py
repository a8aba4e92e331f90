"""The benchmark-suite registry.

Every ``benchmarks/bench_*.py`` script exposes a ``collect_results(smoke=...)``
adapter returning a :class:`~repro.obs.schema.BenchResult` (reprolint RL007
enforces this).  The scripts are *not* a package — they live outside
``src/`` so the distribution never ships them — so the registry loads them by
file path via :mod:`importlib.util` on demand.

``REPRO_BENCH_DIR`` overrides the benchmarks directory (used by tests and by
installs where the source checkout lives elsewhere).
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Dict, List

from repro.obs.schema import BenchResult, SchemaError

__all__ = ["BenchSuite", "get_suite", "list_suites", "run_suite"]


@dataclass(frozen=True)
class BenchSuite:
    """One registered benchmark suite: a name, its script, a one-liner."""

    name: str
    script: str
    description: str

    def path(self) -> Path:
        return benchmarks_dir() / self.script


_SUITES: Dict[str, BenchSuite] = {
    suite.name: suite
    for suite in (
        # Serving-system suites (the CI smoke set).
        BenchSuite("kernels", "bench_kernels.py", "the batch kernel vs the scalar loop"),
        BenchSuite("dynamic", "bench_dynamic.py", "dynamic oracle mutations and diff publish"),
        BenchSuite("async", "bench_async.py", "asyncio front end under connection load"),
        BenchSuite(
            "observability",
            "bench_observability.py",
            "tracing/metrics instrumentation overhead",
        ),
        BenchSuite("serving", "bench_serving.py", "batch engine, cache, blocking query server"),
        BenchSuite("query_latency", "bench_query_latency.py", "single-pair query latency"),
        # Paper-reproduction suites.
        BenchSuite("table1", "bench_table1.py", "paper Table 1: index construction"),
        BenchSuite("table3", "bench_table3.py", "paper Table 3: methods comparison"),
        BenchSuite("table4", "bench_table4_datasets.py", "paper Table 4: dataset statistics"),
        BenchSuite("table5", "bench_table5_ordering.py", "paper Table 5: vertex orderings"),
        BenchSuite("figure2", "bench_figure2.py", "paper Figure 2: label distributions"),
        BenchSuite("figure3", "bench_figure3.py", "paper Figure 3: pruning effectiveness"),
        BenchSuite("figure4", "bench_figure4.py", "paper Figure 4: query time breakdown"),
        BenchSuite("figure5", "bench_figure5.py", "paper Figure 5: bit-parallel sweep"),
        BenchSuite("scaling", "bench_scaling.py", "synthetic graph size scaling"),
        BenchSuite("variants", "bench_variants.py", "index variant comparison"),
        BenchSuite("ablations", "bench_ablations.py", "pruning/ordering/theorem ablations"),
    )
}


def benchmarks_dir() -> Path:
    """The directory holding ``bench_*.py`` (env-overridable)."""
    override = os.environ.get("REPRO_BENCH_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "benchmarks"


def list_suites() -> List[BenchSuite]:
    """All registered suites, in registration (roughly: cost-tier) order."""
    return list(_SUITES.values())


def get_suite(name: str) -> BenchSuite:
    """Look a suite up by name.

    Raises
    ------
    KeyError
        With a message naming the known suites, when ``name`` is unknown.
    """
    try:
        return _SUITES[name]
    except KeyError:
        known = ", ".join(sorted(_SUITES))
        raise KeyError(f"unknown bench suite {name!r} (known: {known})") from None


def _load_module(suite: BenchSuite) -> ModuleType:
    path = suite.path()
    if not path.is_file():
        raise FileNotFoundError(
            f"suite {suite.name!r}: script {path} not found "
            "(set REPRO_BENCH_DIR to the benchmarks directory)"
        )
    module_name = f"repro_bench_{suite.name}"
    spec = importlib.util.spec_from_file_location(module_name, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    # Registered so dataclasses/pickling inside the script resolve the module.
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


def run_suite(name: str, *, smoke: bool = False) -> BenchResult:
    """Run one suite's ``collect_results`` adapter and validate its output."""
    suite = get_suite(name)
    module = _load_module(suite)
    adapter = getattr(module, "collect_results", None)
    if not callable(adapter):
        raise SchemaError(
            f"suite {suite.name!r}: {suite.script} has no collect_results() adapter"
        )
    result = adapter(smoke=smoke)
    if not isinstance(result, BenchResult):
        raise SchemaError(
            f"suite {suite.name!r}: collect_results() returned "
            f"{type(result).__name__}, expected BenchResult"
        )
    if result.suite != suite.name:
        raise SchemaError(
            f"suite {suite.name!r}: collect_results() labelled its result "
            f"{result.suite!r}"
        )
    return result
