"""Benchmark for the query-serving subsystem.

Measures, on a generated scale-free graph of >= 10k vertices:

* per-pair ``index.distance`` loop throughput (the pre-serving baseline),
* :class:`~repro.serving.engine.BatchQueryEngine` batched throughput and
  per-batch P50/P95/P99 latency,
* cache-fronted serving throughput and hit rate on a skewed (hot-pair)
  workload.

The headline acceptance number is the batched-vs-scalar speedup, asserted to
be at least 5x.  Also runnable standalone: ``python benchmarks/bench_serving.py``.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from repro.core.index import PrunedLandmarkLabeling
from repro.experiments.workloads import random_pairs
from repro.generators import barabasi_albert_graph
from repro.serving import BatchQueryEngine, LRUCache, QueryServer

#: Minimum batched/scalar speedup the serving subsystem promises.
REQUIRED_SPEEDUP = 5.0


def run_serving_benchmark(
    *,
    num_vertices: int = 10_000,
    attach: int = 5,
    num_queries: int = 50_000,
    scalar_sample: int = 2_000,
    batch_size: int = 4_096,
    hot_pairs: int = 512,
    seed: int = 13,
) -> Dict[str, float]:
    """Build the index once and measure every serving configuration on it."""
    graph = barabasi_albert_graph(num_vertices, attach, seed=seed)
    build_start = time.perf_counter()
    index = PrunedLandmarkLabeling(num_bit_parallel_roots=8).build(graph)
    build_seconds = time.perf_counter() - build_start

    pairs = np.asarray(
        random_pairs(num_vertices, num_queries, seed=seed + 1), dtype=np.int64
    )
    sources, targets = pairs[:, 0], pairs[:, 1]

    # Baseline: the per-pair Python loop every pre-serving caller used.
    scalar_start = time.perf_counter()
    scalar_results = [
        index.distance(int(s), int(t))
        for s, t in zip(sources[:scalar_sample], targets[:scalar_sample])
    ]
    scalar_seconds = time.perf_counter() - scalar_start
    scalar_qps = scalar_sample / scalar_seconds

    # Batched engine over the full workload, chunked like the server would.
    engine = BatchQueryEngine(index)
    batch_results = []
    batch_seconds = []
    for start in range(0, num_queries, batch_size):
        stop = start + batch_size
        batch_start = time.perf_counter()
        batch_results.append(engine.query_batch(sources[start:stop], targets[start:stop]))
        batch_seconds.append(time.perf_counter() - batch_start)
    batched = np.concatenate(batch_results)
    batch_qps = num_queries / sum(batch_seconds)
    latencies_ms = np.asarray(batch_seconds) * 1000.0
    p50, p95, p99 = np.percentile(latencies_ms, [50.0, 95.0, 99.0])

    if not np.array_equal(batched[:scalar_sample], np.asarray(scalar_results)):
        raise AssertionError("batched engine disagrees with scalar queries")

    # Cache-fronted server on a skewed workload: most traffic hits hot pairs.
    rng = np.random.default_rng(seed + 2)
    hot = pairs[rng.integers(0, hot_pairs, size=num_queries // 2)]
    skewed = np.concatenate([hot, pairs[: num_queries // 2]])
    rng.shuffle(skewed)
    cache = LRUCache(65_536)
    with QueryServer(engine, cache=cache, max_batch_size=batch_size) as server:
        served_start = time.perf_counter()
        for start in range(0, skewed.shape[0], batch_size):
            chunk = skewed[start: start + batch_size]
            server.submit(chunk[:, 0], chunk[:, 1]).wait(120)
        served_seconds = time.perf_counter() - served_start
        server_stats = server.metrics_snapshot()

    return {
        "num_vertices": num_vertices,
        "num_edges": graph.num_edges,
        "build_seconds": build_seconds,
        "num_queries": num_queries,
        "scalar_qps": scalar_qps,
        "batch_qps": batch_qps,
        "speedup": batch_qps / scalar_qps,
        "batch_p50_ms": float(p50),
        "batch_p95_ms": float(p95),
        "batch_p99_ms": float(p99),
        "served_qps": skewed.shape[0] / served_seconds,
        "served_p50_ms": server_stats["latency_p50_ms"],
        "served_p95_ms": server_stats["latency_p95_ms"],
        "served_p99_ms": server_stats["latency_p99_ms"],
        "cache_hit_rate": server_stats["cache_hit_rate"],
    }


def format_serving_report(results: Dict[str, float]) -> str:
    """Human-readable serving benchmark report."""
    lines = [
        "Serving benchmark (batched engine vs per-pair loop)",
        f"  graph: {results['num_vertices']:,.0f} vertices / "
        f"{results['num_edges']:,.0f} edges "
        f"(index built in {results['build_seconds']:.1f}s)",
        f"  workload: {results['num_queries']:,.0f} uniform random pairs",
        "",
        f"  per-pair loop      {results['scalar_qps']:12,.0f} queries/s",
        f"  batched engine     {results['batch_qps']:12,.0f} queries/s "
        f"({results['speedup']:.1f}x speedup)",
        f"    batch latency    p50 {results['batch_p50_ms']:.2f} ms | "
        f"p95 {results['batch_p95_ms']:.2f} ms | p99 {results['batch_p99_ms']:.2f} ms",
        f"  cached server      {results['served_qps']:12,.0f} queries/s "
        f"(hit rate {results['cache_hit_rate']:.1%}, skewed workload)",
        f"    request latency  p50 {results['served_p50_ms']:.2f} ms | "
        f"p95 {results['served_p95_ms']:.2f} ms | p99 {results['served_p99_ms']:.2f} ms",
    ]
    return "\n".join(lines)


def test_serving_throughput_and_tail_latency(run_once, save_result, full_scale):
    """The batched engine must beat the per-pair loop by >= 5x at >= 10k vertices."""
    kwargs = dict(num_vertices=20_000, num_queries=100_000) if full_scale else {}
    results = run_once(run_serving_benchmark, **kwargs)
    text = format_serving_report(results)
    print("\n" + text)
    save_result("serving", text)

    assert results["num_vertices"] >= 10_000
    assert results["speedup"] >= REQUIRED_SPEEDUP, (
        f"batched engine speedup {results['speedup']:.1f}x below the "
        f"{REQUIRED_SPEEDUP:.0f}x serving requirement"
    )
    assert results["cache_hit_rate"] > 0.0
    assert results["batch_p99_ms"] >= results["batch_p50_ms"]


def collect_results(*, smoke: bool = False):
    """Run the suite and emit the shared observatory schema (``repro.obs``)."""
    from repro.obs import Metric, bench_result

    if smoke:
        results = run_serving_benchmark(
            num_vertices=3_000,
            attach=3,
            num_queries=20_000,
            scalar_sample=500,
            hot_pairs=256,
        )
    else:
        results = run_serving_benchmark()
    metrics = [
        Metric(
            "batch_qps", results["batch_qps"], unit="queries/s", higher_is_better=True
        ),
        Metric(
            "scalar_qps", results["scalar_qps"], unit="queries/s", higher_is_better=True
        ),
        Metric("speedup", results["speedup"], unit="x", higher_is_better=True),
        Metric(
            "served_qps", results["served_qps"], unit="queries/s", higher_is_better=True
        ),
        Metric(
            "batch_p50_ms", results["batch_p50_ms"], unit="ms", higher_is_better=False
        ),
        Metric(
            "batch_p99_ms", results["batch_p99_ms"], unit="ms", higher_is_better=False
        ),
        Metric(
            "served_p99_ms", results["served_p99_ms"], unit="ms", higher_is_better=False
        ),
        Metric("cache_hit_rate", results["cache_hit_rate"], higher_is_better=True),
        Metric(
            "build_seconds", results["build_seconds"], unit="s", higher_is_better=False
        ),
        Metric("num_vertices", results["num_vertices"]),
    ]
    return bench_result("serving", metrics, smoke=smoke)


if __name__ == "__main__":
    report = run_serving_benchmark()
    print(format_serving_report(report))
    if report["speedup"] < REQUIRED_SPEEDUP:
        raise SystemExit(
            f"FAIL: speedup {report['speedup']:.1f}x < {REQUIRED_SPEEDUP:.0f}x"
        )
