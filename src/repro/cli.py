"""Command-line interface: ``repro-pll``.

Six sub-commands cover the common workflows:

``repro-pll build``
    Read an edge list, build a pruned-landmark-labeling index and save it.
``repro-pll query``
    Load a saved index and answer distance queries from the command line.
``repro-pll serve``
    Run the long-lived query service (batched engine, hot-pair cache,
    metrics) over stdio or TCP.
``repro-pll datasets``
    List the built-in benchmark datasets (the paper's Table 4 stand-ins).
``repro-pll experiment``
    Regenerate any of the paper's tables and figures and print them as text
    (optionally also writing CSV files).
``repro-pll lint``
    Run reprolint, the project-specific static-analysis suite that enforces
    the serving stack's concurrency/lifecycle/protocol invariants.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro._version import __version__
from repro.analysis.cli import add_lint_arguments, run_lint_command

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro-pll`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-pll",
        description=(
            "Pruned landmark labeling: exact shortest-path distance queries "
            "(SIGMOD 2013 reproduction)"
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    build = subparsers.add_parser("build", help="build an index from an edge list")
    build.add_argument("edge_list", help="path to a whitespace-separated edge list")
    build.add_argument(
        "-o",
        "--output",
        required=True,
        help=(
            "output index file; a .npz suffix selects the compressed archive, "
            "any other suffix the raw layout that supports zero-copy "
            "(--mmap) loading"
        ),
    )
    build.add_argument(
        "--bit-parallel", type=int, default=16, help="number of bit-parallel BFSs"
    )
    build.add_argument(
        "--ordering",
        default="degree",
        choices=["degree", "closeness", "random"],
        help="vertex ordering strategy",
    )
    build.add_argument("--directed", action="store_true", help="treat edges as directed")

    query = subparsers.add_parser("query", help="answer distance queries from an index")
    query.add_argument("index", help="path to a saved index file")
    query.add_argument(
        "pairs",
        nargs="*",
        help="query pairs as 's,t' (e.g. 12,93); omit to read pairs from stdin",
    )
    query.add_argument(
        "--mmap",
        action="store_true",
        help=(
            "zero-copy load: memory-map the label arrays read-only instead "
            "of materialising heap copies (raw-layout indexes only; the OS "
            "pages in just the labels the queries touch)"
        ),
    )

    serve = subparsers.add_parser(
        "serve", help="serve distance queries as a long-lived batching service"
    )
    serve.add_argument(
        "index",
        nargs="?",
        default=None,
        help="path to a saved .npz index (or use --edge-list to build one)",
    )
    serve.add_argument(
        "--edge-list",
        default=None,
        help=(
            "build the index from this edge list at startup instead of "
            "loading a saved one; keeps the graph around, so the server "
            "accepts add/remove/publish mutations and --mutations replay"
        ),
    )
    serve.add_argument(
        "--mutations",
        default=None,
        help=(
            "replay this mutation file (add a b / remove a b / publish per "
            "line) against the shadow index before serving; requires "
            "--edge-list (a saved index carries no graph to mutate)"
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address for TCP serving"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port to listen on; omit to serve stdin/stdout instead",
    )
    # Accepted for old command lines: TCP is always served from the event loop.
    serve.add_argument("--async", action="store_true", help=argparse.SUPPRESS)
    serve.add_argument(
        "--http-port",
        type=int,
        default=None,
        help=(
            "also bind an HTTP admin plane on this port (requires --port): "
            "GET /metrics (Prometheus text exposition incl. latency/stage "
            "histograms and ALERTS series), GET /healthz, POST /publish, "
            "GET /alerts, GET /traces, GET /debug/threads, "
            "GET /debug/profile?seconds=N, GET /debug/bundle"
        ),
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help=(
            "slow-query log threshold in milliseconds: requests whose "
            "end-to-end latency meets it are kept in a dedicated trace ring "
            "and logged as structured JSON slow_query events (default: off)"
        ),
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help=(
            "emit operational events (startup, listeners, replay/warm "
            "summaries, worker respawns, publishes, shutdown) as one JSON "
            "object per stderr line instead of human-readable text"
        ),
    )
    serve.add_argument(
        "--warm",
        default=None,
        metavar="PAIRS_FILE",
        help=(
            "replay this query log (one 's t' or 's,t' pair per line) through "
            "the engine to populate the hot-pair cache before the listener "
            "accepts connections; requires a non-zero --cache-size"
        ),
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=65536,
        help="hot-pair LRU cache capacity (0 disables the cache)",
    )
    serve.add_argument(
        "--batch-size",
        type=int,
        default=2048,
        help="maximum query pairs coalesced into one engine call",
    )
    serve.add_argument(
        "--batch-timeout-ms",
        type=float,
        default=2.0,
        help="how long to wait for more requests before dispatching a batch",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=4096,
        help="admission control: maximum queued requests before rejecting",
    )
    serve.add_argument(
        "--gc-monitor",
        action="store_true",
        help=(
            "install the gc.callbacks pause monitor for the serve lifetime: "
            "stop-the-world collection pauses appear as gc_pause_seconds_total "
            "/ gc_pauses_total in the metrics and feed the GcPauseHigh alert"
        ),
    )
    serve.add_argument(
        "--shadow-sample",
        type=float,
        default=0.0,
        metavar="RATE",
        help=(
            "shadow correctness canary: asynchronously recompute this "
            "fraction of served batches (0..1) through the scalar per-pair "
            "path and count divergences as shadow_mismatches_total "
            "(default: 0, off)"
        ),
    )
    serve.add_argument(
        "--health-interval",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help=(
            "how often the health engine evaluates its alert rules (latency "
            "SLO burn rate, error rate, cache collapse, event-loop lag, GC "
            "pauses, worker respawns, dirty-vertex ratio, shadow mismatches) "
            "against a metrics snapshot; 0 disables the engine (default: 5)"
        ),
    )

    datasets = subparsers.add_parser("datasets", help="list the built-in datasets")
    datasets.add_argument(
        "--size-class", choices=["small", "large"], default=None, help="filter by size"
    )

    lint = subparsers.add_parser(
        "lint",
        help="run reprolint, the project-specific static-analysis suite",
        description=(
            "Check the codebase against the serving stack's concurrency, "
            "lifecycle and protocol invariants (rules RL001-RL008); see the "
            "README 'Static analysis' section for the catalogue."
        ),
    )
    add_lint_arguments(lint)

    bench = subparsers.add_parser(
        "bench",
        help="run benchmark suites and track their results over time",
        description=(
            "The performance observatory: run registered benchmark suites "
            "through the shared result schema (BENCH_<suite>.json), compare "
            "runs with noise-aware regression gating, render trend reports "
            "over a history directory, and snapshot a live /metrics endpoint."
        ),
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_sub.add_parser(
        "run", help="run one or more suites and write BENCH_<suite>.json files"
    )
    bench_run.add_argument(
        "--suite",
        nargs="*",
        default=None,
        metavar="NAME",
        help="suites to run (default: every registered suite; see 'bench list')",
    )
    bench_run.add_argument(
        "--smoke",
        action="store_true",
        help="run the reduced CI-scale configuration of each suite",
    )
    bench_run.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="repeats per suite; samples merge into one result (default 1)",
    )
    bench_run.add_argument(
        "--out",
        default="bench-results",
        metavar="DIR",
        help="directory for the BENCH_<suite>.json files (default bench-results)",
    )

    bench_sub.add_parser("list", help="list the registered benchmark suites")

    bench_compare = bench_sub.add_parser(
        "compare",
        help="compare two result files or directories; exit 1 on regression",
    )
    bench_compare.add_argument("baseline", help="baseline BENCH_*.json file or directory")
    bench_compare.add_argument("current", help="current BENCH_*.json file or directory")
    bench_compare.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="FRAC",
        help="relative band per gated metric (default 0.10; metric overrides win)",
    )
    bench_compare.add_argument(
        "--verbose",
        action="store_true",
        help="also show within-tolerance and informational rows",
    )

    bench_report = bench_sub.add_parser(
        "report", help="render a per-suite trend table over a history directory"
    )
    bench_report.add_argument(
        "history", help="directory tree holding BENCH_*.json files from past runs"
    )

    bench_scrape = bench_sub.add_parser(
        "scrape", help="snapshot a live /metrics endpoint into the result schema"
    )
    bench_scrape.add_argument("url", help="address of a serving /metrics endpoint")
    bench_scrape.add_argument(
        "--suite",
        default="scrape",
        help="suite name stamped on the snapshot (default 'scrape')",
    )
    bench_scrape.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also write BENCH_<suite>.json to this directory",
    )

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's tables or figures"
    )
    experiment.add_argument(
        "name",
        choices=[
            "table1",
            "table3",
            "table4",
            "table5",
            "figure2",
            "figure3",
            "figure4",
            "figure5",
            "ablation-ordering",
            "ablation-pruning",
            "ablation-theorem43",
        ],
        help="experiment to run",
    )
    experiment.add_argument(
        "--datasets", nargs="*", default=None, help="restrict to these dataset names"
    )
    experiment.add_argument(
        "--num-queries", type=int, default=1_000, help="random query pairs per dataset"
    )
    experiment.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for random query workloads and randomised orderings",
    )
    experiment.add_argument(
        "--no-baselines",
        action="store_true",
        help="table3 only: skip the baseline methods",
    )
    experiment.add_argument("--csv", default=None, help="also write results to this CSV file")
    return parser


def _command_build(args: argparse.Namespace) -> int:
    from repro.core.index import PrunedLandmarkLabeling
    from repro.core.serialization import save_index
    from repro.graph.io import read_edge_list

    graph, _ = read_edge_list(args.edge_list, directed=args.directed)
    if args.directed:
        print(
            "note: saved indexes support undirected graphs; the graph will be "
            "symmetrised",
            file=sys.stderr,
        )
        graph = graph.to_undirected()
    index = PrunedLandmarkLabeling(
        ordering=args.ordering, num_bit_parallel_roots=args.bit_parallel
    ).build(graph)
    save_index(index, args.output)
    print(
        f"indexed {graph.num_vertices} vertices / {graph.num_edges} edges; "
        f"average label size {index.average_label_size():.1f}; "
        f"index written to {args.output}"
    )
    return 0


def _parse_pairs(tokens: Sequence[str]) -> List[tuple]:
    from repro.serving.protocol import parse_pair

    pairs = []
    for token in tokens:
        try:
            pairs.append(parse_pair(token))
        except ValueError as exc:
            raise ValueError(f"cannot parse query pair {token!r}; {exc}") from None
    return pairs


def _command_query(args: argparse.Namespace) -> int:
    from repro.core.serialization import load_index
    from repro.errors import SerializationError, VertexError

    try:
        index = load_index(args.index, mmap=args.mmap)
    except SerializationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tokens = list(args.pairs)
    if not tokens:
        tokens = [line.strip() for line in sys.stdin if line.strip()]
    try:
        pairs = _parse_pairs(tokens)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        distances = index.distances(pairs)
    except VertexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for (s, t), distance in zip(pairs, distances):
        rendered = "inf" if distance == float("inf") else f"{distance:g}"
        print(f"{s}\t{t}\t{rendered}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.core.serialization import load_index
    from repro.errors import GraphError, SerializationError
    from repro.graph.io import read_edge_list
    from repro.serving import (
        LRUCache,
        ServerMetrics,
        SnapshotManager,
        StructuredLogger,
        TraceRecorder,
    )

    if (args.index is None) == (args.edge_list is None):
        print(
            "error: serve needs exactly one input: a saved index or --edge-list",
            file=sys.stderr,
        )
        return 2
    if args.http_port is not None and args.port is None:
        print(
            "error: the HTTP admin plane (--http-port) is served beside the "
            "TCP listener; it requires --port",
            file=sys.stderr,
        )
        return 2
    if args.warm is not None and args.cache_size <= 0:
        print(
            "error: --warm populates the hot-pair cache; it requires a "
            "non-zero --cache-size",
            file=sys.stderr,
        )
        return 2
    if not 0.0 <= args.shadow_sample <= 1.0:
        print(
            "error: --shadow-sample is a sampling rate; it must be between "
            "0 and 1",
            file=sys.stderr,
        )
        return 2
    if args.health_interval < 0:
        print(
            "error: --health-interval must be non-negative (0 disables "
            "the health engine)",
            file=sys.stderr,
        )
        return 2
    # --log-json switches every operational announcement to one-JSON-object-
    # per-line events; without it the human-readable lines below stay exactly
    # as they were.  The slow-query log is always structured (it is meant for
    # pipelines), so --slow-ms gets a JSON logger of its own if needed.
    logger = StructuredLogger(component="cli") if args.log_json else None
    slow_logger = None
    if args.slow_ms is not None:
        base = logger if logger is not None else StructuredLogger()
        slow_logger = base.child("slow-query")
    tracer = TraceRecorder(slow_threshold_ms=args.slow_ms, logger=slow_logger)
    if args.edge_list is not None:
        try:
            graph, _ = read_edge_list(args.edge_list)
        except (OSError, GraphError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        manager = SnapshotManager.from_graph(graph)
        source = args.edge_list
    else:
        try:
            index = load_index(args.index)
        except SerializationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if logger is not None:
            logger.event(
                "index_loaded",
                ordering=index.ordering,
                bit_parallel_roots=index.num_bit_parallel_roots,
            )
        else:
            print(
                f"index metadata: ordering={index.ordering} "
                f"bit_parallel_roots={index.num_bit_parallel_roots}",
                file=sys.stderr,
            )
        manager = SnapshotManager.from_index(index)
        source = args.index
    cache = LRUCache(args.cache_size) if args.cache_size > 0 else None
    metrics = ServerMetrics()
    # SIGTERM must unwind the process as SystemExit(143), not kill it
    # outright, so every caller's finally block runs: perfbench/launch.py
    # writes its --spans and --peak (VmHWM) files from one.  The TCP front
    # end drains on SIGTERM itself while it serves; this handler covers the
    # rest of the command (stdio sessions, cache warming).  Restore the
    # previous handler so in-process callers (tests) are unaffected
    # afterwards.
    import signal

    previous_handler = None
    try:
        previous_handler = signal.signal(
            signal.SIGTERM, lambda signum, frame: sys.exit(143)
        )
    except ValueError:  # not in the main thread; keep default behaviour
        pass
    gc_monitor_enabled = False
    if args.gc_monitor:
        from repro.obs import enable_gc_monitor

        enable_gc_monitor()
        gc_monitor_enabled = True
    try:
        kernel_info = manager.current.engine.kernel_info()
        if logger is not None:
            logger.event("kernel_layout", **kernel_info)
            logger.event(
                "serve_start",
                source=source,
                num_vertices=manager.current.engine.num_vertices,
                cache_size=args.cache_size,
                batch_size=args.batch_size,
                writable=manager.writable,
                slow_ms=args.slow_ms,
                kernel=kernel_info["name"],
            )
        else:
            print(
                f"serving {manager.current.engine.num_vertices} vertices from {source} "
                f"(cache={args.cache_size}, batch={args.batch_size}, "
                f"writable={manager.writable}, "
                f"kernel={kernel_info['name']})",
                file=sys.stderr,
            )
        if args.warm is not None:
            exit_code = _warm_serve_cache(args, manager, cache, logger)
            if exit_code != 0:
                return exit_code
        return _serve_front_end(args, manager, metrics, cache, tracer, logger)
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
        if gc_monitor_enabled:
            from repro.obs import disable_gc_monitor

            disable_gc_monitor()


def _start_observability(args, front, logger=None):
    """Attach the health engine and shadow canary to a serving front end.

    Works for the blocking :class:`QueryServer` facade and the
    :class:`AsyncQueryFrontend` it wraps — each exposes ``metrics_snapshot``
    plus the caller-owned ``health`` / ``shadow`` attachment slots.  Returns
    ``(health, shadow)`` (either may be ``None``) for :func:`_stop_observability`.
    """
    from repro.serving import HealthMonitor, ShadowCanary

    health = None
    shadow = None
    if args.shadow_sample > 0:
        shadow = ShadowCanary(
            args.shadow_sample,
            logger=logger.child("shadow") if logger is not None else None,
        )
        shadow.start()
        front.shadow = shadow
    if args.health_interval > 0:
        health = HealthMonitor(
            front.metrics_snapshot,
            interval_seconds=args.health_interval,
            logger=logger.child("health") if logger is not None else None,
        )
        health.start()
        front.health = health
    return health, shadow


def _stop_observability(health, shadow) -> None:
    """Stop the serve-lifetime health/shadow threads (either may be ``None``)."""
    if health is not None:
        health.stop()
    if shadow is not None:
        shadow.flush()
        shadow.stop()


def _warm_serve_cache(args, manager, cache, logger=None) -> int:
    """Replay the ``--warm`` query log into the hot-pair cache (before listening)."""
    from repro.errors import ReproError
    from repro.serving import read_pairs_file, warm_cache

    engine = manager.current.engine
    try:
        pairs = read_pairs_file(args.warm)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        stats = warm_cache(engine, cache, pairs)
    except ReproError as exc:
        print(f"error: cannot warm cache; {exc}", file=sys.stderr)
        return 2
    if logger is not None:
        logger.event("cache_warmed", path=args.warm, **stats)
    else:
        print(
            f"warmed cache from {args.warm}: {stats['pairs']} pairs replayed in "
            f"{stats['seconds']:.2f}s, {stats['cached']} entries cached, replay "
            f"hit rate {stats['hit_rate']:.1%}",
            file=sys.stderr,
        )
    return 0


def _serve_front_end(args, manager, metrics, cache, tracer=None, logger=None) -> int:
    """Serve stdio through the blocking facade, or TCP (+ HTTP) from the event
    loop, until EOF/``QUIT`` or SIGTERM/SIGINT drains it."""
    import asyncio

    from repro.errors import ReproError
    from repro.serving import AsyncQueryFrontend, QueryServer, replay_mutations, serve_stdio

    # Constructed before any mutations replay: the front end pins the current
    # snapshot version for cache invalidation at construction, so a replayed
    # publish afterwards bumps the version and flushes any --warm entries on
    # the first batch instead of serving them stale.
    knobs = dict(
        cache=cache,
        max_batch_size=args.batch_size,
        batch_timeout=args.batch_timeout_ms / 1000.0,
        max_pending=args.max_pending,
        metrics=metrics,
        tracer=tracer,
    )
    if args.port is None:
        front = QueryServer(
            manager,
            logger=logger.child("server") if logger is not None else None,
            **knobs,
        )
    else:
        front = AsyncQueryFrontend(
            manager,
            logger=logger.child("aio") if logger is not None else None,
            **knobs,
        )

    if args.mutations is not None:
        try:
            with open(args.mutations, "r", encoding="utf-8") as handle:
                counts = replay_mutations(front, handle)
        except (OSError, ValueError, ReproError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if logger is not None:
            logger.event(
                "mutations_replayed", path=args.mutations,
                version=manager.version, **counts,
            )
        else:
            print(
                f"replayed {args.mutations}: {counts['added']} insertions, "
                f"{counts['removed']} deletions, {counts['published']} "
                f"publishes (now at version {manager.version})",
                file=sys.stderr,
            )

    def announce(front) -> None:
        host, port = front.tcp_address
        http_address = front.http_address
        if logger is not None:
            event = {"host": host, "port": port, "frontend": "async"}
            if http_address is not None:
                event["http_host"], event["http_port"] = http_address
            logger.event("listening", **event)
            return
        print(f"listening on {host}:{port} (async)", file=sys.stderr)
        if http_address is not None:
            http_host, http_port = http_address
            print(
                f"admin plane on http://{http_host}:{http_port} "
                "(GET /metrics, GET /healthz, POST /publish, GET /alerts, "
                "GET /traces, GET /debug/threads, GET /debug/profile, "
                "GET /debug/bundle)",
                file=sys.stderr,
            )
        sys.stderr.flush()

    health, shadow = _start_observability(args, front, logger)
    try:
        if args.port is None:
            if logger is not None:
                logger.event("listening", transport="stdio")
            else:
                print(
                    "reading queries from stdin ('s t' or 's,t' per line; "
                    "add/remove a b and publish to mutate; STATS for metrics; "
                    "TRACES for recent traces; QUIT to exit)",
                    file=sys.stderr,
                )
            with front:
                serve_stdio(front)
        else:
            asyncio.run(
                front.serve(args.host, args.port, http_port=args.http_port, ready=announce)
            )
    except KeyboardInterrupt:  # pragma: no cover - interactive or non-main-thread loops
        pass
    finally:
        _stop_observability(health, shadow)
    stats = front.metrics_snapshot()
    if logger is not None:
        logger.event(
            "serve_done",
            num_queries=stats["num_queries"],
            num_batches=stats["num_batches"],
            latency_p50_ms=stats["latency_p50_ms"],
            latency_p99_ms=stats["latency_p99_ms"],
        )
    else:
        print(
            f"served {stats['num_queries']:.0f} queries in "
            f"{stats['num_batches']:.0f} batches "
            f"(p50 {stats['latency_p50_ms']:.3f} ms, "
            f"p99 {stats['latency_p99_ms']:.3f} ms)",
            file=sys.stderr,
        )
    return 0


def _command_datasets(args: argparse.Namespace) -> int:
    from repro.datasets.registry import get_dataset, list_datasets

    print(f"{'name':12s} {'type':9s} {'class':6s} {'paper |V|':>12s} {'paper |E|':>13s}  description")
    for name in list_datasets(args.size_class):
        spec = get_dataset(name)
        print(
            f"{spec.name:12s} {spec.network_type:9s} {spec.size_class:6s} "
            f"{spec.paper_vertices:12,d} {spec.paper_edges:13,d}  {spec.description}"
        )
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    from repro import obs

    if args.bench_command == "list":
        for suite in obs.list_suites():
            print(f"{suite.name:16s} {suite.description}")
        return 0

    if args.bench_command == "run":
        if args.repeat < 1:
            print("error: --repeat must be >= 1", file=sys.stderr)
            return 2
        try:
            results = obs.run_suites(
                args.suite,
                smoke=args.smoke,
                repeat=args.repeat,
                out_dir=args.out,
                echo=print,
            )
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        total = sum(len(result.metrics) for result in results)
        print(f"[bench] {len(results)} suite(s), {total} metrics -> {args.out}")
        return 0

    if args.bench_command == "compare":
        tolerance = obs.compare.DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
        try:
            comparisons = obs.compare_paths(
                args.baseline, args.current, tolerance=tolerance
            )
        except (OSError, obs.SchemaError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(obs.format_comparisons(comparisons, verbose=args.verbose))
        return 1 if obs.has_regressions(comparisons) else 0

    if args.bench_command == "report":
        try:
            history = obs.load_history(args.history)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not history:
            print(f"no readable BENCH_*.json files under {args.history}", file=sys.stderr)
            return 2
        print(obs.format_trend(history))
        return 0

    if args.bench_command == "scrape":
        try:
            result = obs.scrape_url(args.url, suite=args.suite)
        except (OSError, obs.SchemaError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.out:
            path = obs.write_result(result, args.out)
            print(f"[bench] wrote {path} ({len(result.metrics)} metrics)")
        else:
            print(result.to_json(), end="")
        return 0

    raise ValueError(f"unknown bench command {args.bench_command!r}")  # pragma: no cover


def _command_experiment(args: argparse.Namespace) -> int:
    from repro import experiments as exp

    csv_rows = None
    if args.name == "table1":
        rows = exp.run_table1(args.datasets, num_queries=args.num_queries, seed=args.seed)
        print(exp.format_table1(rows))
        csv_rows = rows
    elif args.name == "table3":
        measurements = exp.run_table3(
            args.datasets,
            num_queries=args.num_queries,
            include_baselines=not args.no_baselines,
            seed=args.seed,
        )
        print(exp.format_table3(measurements))
        csv_rows = [m.as_dict() for m in measurements]
    elif args.name == "table4":
        rows = exp.run_table4(args.datasets, seed=args.seed)
        print(exp.format_table4(rows))
        csv_rows = rows
    elif args.name == "table5":
        rows = exp.run_table5(args.datasets, seed=args.seed)
        print(exp.format_table5(rows))
        csv_rows = rows
    elif args.name == "figure2":
        degrees = exp.run_figure2_degrees(args.datasets)
        distances = exp.run_figure2_distances(args.datasets, seed=args.seed)
        print(exp.format_figure2(degrees, distances))
    elif args.name == "figure3":
        profiles = exp.run_figure3(args.datasets, seed=args.seed)
        print(exp.format_figure3(profiles))
    elif args.name == "figure4":
        curves = exp.run_figure4(args.datasets, num_pairs=args.num_queries, seed=args.seed)
        print(exp.format_figure4(curves))
    elif args.name == "figure5":
        points = exp.run_figure5(
            args.datasets, num_queries=args.num_queries, seed=args.seed
        )
        print(exp.format_figure5(points))
        csv_rows = [p.as_dict() for p in points]
    elif args.name == "ablation-ordering":
        rows = exp.ordering_ablation(args.datasets, seed=args.seed)
        print(exp.format_ablation(rows, "Ablation: vertex ordering strategies"))
        csv_rows = rows
    elif args.name == "ablation-pruning":
        from repro.datasets.registry import load_dataset

        dataset = (args.datasets or ["gnutella"])[0]
        rows = exp.pruning_ablation(load_dataset(dataset), seed=args.seed)
        print(exp.format_ablation(rows, f"Ablation: pruning on/off ({dataset})"))
        csv_rows = rows
    elif args.name == "ablation-theorem43":
        dataset = (args.datasets or ["epinions"])[0]
        rows = exp.theorem43_check(
            dataset, num_pairs=args.num_queries, seed=args.seed
        )
        print(exp.format_ablation(rows, "Ablation: Theorem 4.3 label-size bound"))
        csv_rows = rows
    else:  # pragma: no cover - argparse prevents this
        raise ValueError(f"unknown experiment {args.name}")

    if args.csv and csv_rows:
        exp.write_csv(csv_rows, args.csv)
        print(f"\nwrote {len(csv_rows)} rows to {args.csv}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-pll`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "build":
        return _command_build(args)
    if args.command == "query":
        return _command_query(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "datasets":
        return _command_datasets(args)
    if args.command == "bench":
        return _command_bench(args)
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "lint":
        return run_lint_command(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
