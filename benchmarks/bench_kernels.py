"""Benchmark for the batch kernel.

Measures, on a generated clustered power-law graph, the batch kernel's
throughput through ``distance_batch`` at batch sizes 1, 16, 256 and 4096,
and its one-to-many fan-out latency through ``distances_from`` (100 targets,
and all vertices), on an index with and without bit-parallel labels — and
pins down the two guarantees the kernel makes:

* **Speed**: at batch size 4096 on the bit-parallel index, the kernel
  answers at least ``REQUIRED_SPEEDUP``x faster than the scalar per-pair
  ``index.distance`` loop.
* **Exactness**: ``distance_batch`` and both fan-out shapes are
  byte-identical to the scalar loop.

Every batch-size and fan-out figure is a row of its own (its ``bp:`` /
``nobp:`` prefix names the index), gated like ``best_qps``, ``scalar_qps``
and ``speedup``: ``*_qps`` rows are throughputs (higher is better), ``*_us``
rows fan-out latencies (lower is better).

Also runnable standalone: ``python benchmarks/bench_kernels.py`` (pass
``--smoke`` for the reduced-scale CI configuration, which keeps the
byte-identity assertions exact but relaxes the speedup floor that needs
full scale to be meaningful).
"""

from __future__ import annotations

import sys
import time
from typing import Dict

import numpy as np

from repro.core.index import PrunedLandmarkLabeling
from repro.generators import holme_kim_graph

#: Minimum batch-kernel vs scalar-loop speedup promised at full scale.
REQUIRED_SPEEDUP = 3.0
#: Relaxed floor for the reduced-scale smoke configuration.
SMOKE_SPEEDUP = 1.5
#: Batch sizes swept per index.
BATCH_SIZES = (1, 16, 256, 4096)
#: Targets per subset fan-out.
FANOUT_TARGETS = 100
#: Fan-out calls timed per shape.
FANOUT_CALLS = 30


def _time_batches(
    index: PrunedLandmarkLabeling, pairs: np.ndarray, batch_size: int, *, repeats: int = 3
) -> float:
    """Best-of-``repeats`` throughput (pairs/s) at one batch size."""
    sources, targets = pairs[:, 0], pairs[:, 1]
    total = sources.shape[0]
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        for lo in range(0, total, batch_size):
            index.distance_batch(sources[lo: lo + batch_size], targets[lo: lo + batch_size])
        best = max(best, total / (time.perf_counter() - start))
    return best


def _fanout_us(index: PrunedLandmarkLabeling, calls) -> float:
    """Median microseconds per ``distances_from`` call over ``calls``."""
    timings = []
    for source, targets in calls:
        start = time.perf_counter()
        index.distances_from(source, targets)
        timings.append(time.perf_counter() - start)
    return 1e6 * float(np.median(timings))


def _scalar_baseline(
    index: PrunedLandmarkLabeling, pairs: np.ndarray, *, repeats: int = 3
) -> float:
    """Throughput (pairs/s) of the scalar per-pair query loop."""
    best = 0.0
    pair_list = [(int(s), int(t)) for s, t in pairs]
    for _ in range(repeats):
        start = time.perf_counter()
        for s, t in pair_list:
            index.distance(s, t)
        best = max(best, len(pair_list) / (time.perf_counter() - start))
    return best


def _assert_byte_identical(
    index: PrunedLandmarkLabeling, pairs: np.ndarray, rng: np.random.Generator
) -> None:
    """``distance_batch`` and both fan-out shapes must match the scalar loop."""
    num_vertices = index.label_set.num_vertices
    sample = pairs[:300]
    scalar = np.asarray([index.distance(int(s), int(t)) for s, t in sample])
    if index.distance_batch(sample[:, 0], sample[:, 1]).tobytes() != scalar.tobytes():
        raise AssertionError("distance_batch disagrees with the scalar query")
    source = int(rng.integers(num_vertices))
    everyone = np.asarray([index.distance(source, t) for t in range(num_vertices)])
    if index.distances_from(source).tobytes() != everyone.tobytes():
        raise AssertionError("the full fan-out disagrees with the scalar query")
    subset = rng.integers(0, num_vertices, size=min(512, num_vertices))
    if index.distances_from(source, subset).tobytes() != everyone[subset].tobytes():
        raise AssertionError("the subset fan-out disagrees with the scalar query")


def run_kernel_benchmark(
    *,
    num_vertices: int = 8_000,
    attach: int = 3,
    triad_probability: float = 0.4,
    matrix_pairs: int = 8_192,
    scalar_pairs: int = 400,
    seed: int = 11,
) -> Dict[str, object]:
    """Measure the per-index rows and the acceptance speedup."""
    graph = holme_kim_graph(num_vertices, attach, triad_probability, seed=seed)
    rng = np.random.default_rng(seed + 1)
    pairs = rng.integers(0, num_vertices, size=(matrix_pairs, 2))
    fanouts = {
        "fanout100": [
            (int(rng.integers(num_vertices)), rng.integers(0, num_vertices, size=FANOUT_TARGETS))
            for _ in range(FANOUT_CALLS)
        ],
        "fanout_all": [(int(rng.integers(num_vertices)), None) for _ in range(FANOUT_CALLS)],
    }

    rows: Dict[str, float] = {}
    scalar_qps = 0.0
    layout = ""
    for variant, roots in (("bp", 16), ("nobp", 0)):
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=roots).build(graph)
        _assert_byte_identical(index, pairs, rng)
        layout = index.prepare_batch_kernel().backend_name
        if variant == "bp":
            scalar_qps = _scalar_baseline(index, pairs[:scalar_pairs])
        for batch_size in BATCH_SIZES:
            rows[f"{variant}:batch{batch_size}_qps"] = _time_batches(index, pairs, batch_size)
        for shape, calls in fanouts.items():
            # The full scan's hub-major arrays are derived on the first call.
            _fanout_us(index, calls[:1])
            rows[f"{variant}:{shape}_us"] = _fanout_us(index, calls)

    best_qps = rows[f"bp:batch{max(BATCH_SIZES)}_qps"]
    return {
        "num_vertices": num_vertices,
        "num_edges": graph.num_edges,
        "matrix_pairs": matrix_pairs,
        "layout": layout,
        "rows": rows,
        "scalar_qps": scalar_qps,
        "best_qps": best_qps,
        "speedup": best_qps / scalar_qps if scalar_qps else float("inf"),
    }


def format_kernel_report(results: Dict[str, object]) -> str:
    """Human-readable per-index rows."""
    rows = results["rows"]
    lines = [
        "Batch-kernel benchmark",
        f"  graph: {results['num_vertices']:,.0f} vertices / "
        f"{results['num_edges']:,.0f} edges, {results['matrix_pairs']:,.0f} "
        f"pairs per batch measurement, {results['layout']} key layout",
        "",
        f"  {'index':6s}" + "".join(f" {f'batch {b}':>11s}" for b in BATCH_SIZES)
        + f" {'fan-out 100':>12s} {'fan-out all':>12s}",
        f"  {'':6s}" + "".join(f" {'pairs/s':>11s}" for _ in BATCH_SIZES)
        + f" {'µs':>12s} {'µs':>12s}",
    ]
    for variant in ("bp", "nobp"):
        cells = "".join(f" {rows[f'{variant}:batch{b}_qps']:11,.0f}" for b in BATCH_SIZES)
        cells += f" {rows[f'{variant}:fanout100_us']:12,.0f} {rows[f'{variant}:fanout_all_us']:12,.0f}"
        lines.append(f"  {variant:6s}{cells}")
    lines += [
        "",
        f"  scalar per-pair loop {results['scalar_qps']:12,.0f} pairs/s",
        f"  batch kernel         {results['best_qps']:12,.0f} pairs/s "
        f"(batch {max(BATCH_SIZES)}, bit-parallel index)",
        f"  speedup              {results['speedup']:12,.1f}x",
    ]
    return "\n".join(lines)


def _check(results: Dict[str, object], *, smoke: bool) -> None:
    """Assert the acceptance bars (relaxed speedup floor at smoke scale)."""
    required = SMOKE_SPEEDUP if smoke else REQUIRED_SPEEDUP
    assert results["speedup"] >= required, (
        f"batch kernel speedup {results['speedup']:.1f}x below the "
        f"{required:.1f}x requirement over the scalar query loop"
    )
    if not smoke:
        assert results["num_vertices"] >= 8_000


def test_kernel_layer_beats_scalar_loop(run_once, save_result, full_scale):
    """The batch kernel must beat the scalar loop by >= 3x; all byte-identical."""
    kwargs = dict(num_vertices=12_000) if full_scale else {}
    results = run_once(run_kernel_benchmark, **kwargs)
    text = format_kernel_report(results)
    print("\n" + text)
    save_result("kernels", text)
    _check(results, smoke=False)


def _smoke_or_full(smoke: bool) -> Dict[str, object]:
    if smoke:
        return run_kernel_benchmark(num_vertices=1_500, matrix_pairs=2_048, scalar_pairs=150)
    return run_kernel_benchmark()


def collect_results(*, smoke: bool = False):
    """Run the suite and emit the shared observatory schema (``repro.obs``)."""
    from repro.obs import Metric, bench_result

    results = _smoke_or_full(smoke)
    _check(results, smoke=smoke)
    metrics = [
        Metric("best_qps", results["best_qps"], unit="pairs/s", higher_is_better=True),
        Metric("scalar_qps", results["scalar_qps"], unit="pairs/s", higher_is_better=True),
        Metric("speedup", results["speedup"], unit="x", higher_is_better=True),
        Metric("num_vertices", results["num_vertices"]),
        Metric("num_edges", results["num_edges"]),
    ]
    for name, value in sorted(results["rows"].items()):
        throughput = name.endswith("_qps")
        metrics.append(
            Metric(name, value, unit="pairs/s" if throughput else "us", higher_is_better=throughput)
        )
    return bench_result("kernels", metrics, smoke=smoke)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    report = _smoke_or_full(smoke)
    print(format_kernel_report(report))
    try:
        _check(report, smoke=smoke)
    except AssertionError as exc:
        raise SystemExit(f"FAIL: {exc}")
    print("PASS" + (" (smoke scale)" if smoke else ""))
