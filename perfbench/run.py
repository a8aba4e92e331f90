#!/usr/bin/env python3
"""The repository benchmark: index build, skewed served reads, reads beside writes.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload library --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen; ``perfbench/README.md``
defines every metric and the layer predictions):

``library``
    Builds a Holme–Kim graph with ``repro-pll build --bit-parallel 16`` in a
    subprocess, reloads it with ``load_index(mmap=True)`` and answers scalar
    ``distance``, 4096-pair ``distance_batch`` and 100-target
    ``distances_from`` calls in this process.  Never touches ``serving``.
``serve-read``
    The same graph family served by ``repro-pll serve <index> --async`` with
    the default cache, warmed with a hot set of pairs; one client process
    keeps ``nproc`` connections busy.  Half its pairs come from the hot set,
    half are pairs no request has asked before, and 1 in 20 lines is a
    ``many`` fan-out.
``serve-write``
    A smaller graph served writable (``--edge-list``); one connection sends
    the same reads, the other a ``remove``/``add`` stream that restores the
    graph, with ``publish`` every few mutations.

Every answer is checked against BFS distances computed by
``perfbench/graphs.py`` on the generated graph; a wrong distance fails the
run (exit 1).  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` a separate traced run reports the
per-layer metrics, timed by wrapping each layer's public entry points from
outside the program (``perfbench/tracer.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.request

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import graphs  # noqa: E402
import tracer  # noqa: E402
from launch import peak_rss_mib  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CHILD_ENV = dict(os.environ, PYTHONPATH=SRC)

#: Graph size per workload; every graph is Holme–Kim with m=6, triad 0.4.
VERTICES = {"library": 8000, "serve-read": 8000, "serve-write": 2000}
EDGES_PER_VERTEX = 6
TRIAD = 0.4
BIT_PARALLEL = "16"
#: Set-ups (and builds) per untraced run: ``setup_s`` is their median,
#: ``build_s`` the fastest build.  Set-up on the small graph is short, so
#: more of them are needed to outvote a slow moment of the machine.
SETUPS = {"library": 3, "serve-read": 3, "serve-write": 5}
#: Request pool: sources with BFS ground truth, the hot pair set and fan-outs.
POOL_SOURCES = 256
#: The served pair mix is the skewed mix of ``benchmarks/bench_serving.py``:
#: half the pairs uniform over a hot set of 512, half never asked before.
#: The server's ``--warm`` replay puts the hot set in its cache before it
#: listens, and the default cache (65536 pairs) holds the hot set and every
#: cold pair of a run, so nothing is evicted: on serve-read hot pairs hit and
#: cold pairs miss from the first request on, and the window's hit share is
#: ``HOT_SHARE`` whatever the run length or throughput.
HOT_PAIRS = 512
HOT_SHARE = 0.5
FANOUT_TARGETS = 100
FANOUT_POOL = 256
FANOUT_EVERY = 20
SCALAR_PAIRS = 4096
BATCH_PAIRS = 4096
#: The split of serve-read's window that the layer predictions rest on: the
#: cache hit share, and the kernel's and the coalescing window's shares of
#: the server's mean request latency (a probe of the stage histograms on a
#: 2-vCPU machine put them at ~10 % and ~81 %).  Printed beside the measured
#: split; a figure more than ``SPLIT_TOLERANCE`` off is flagged, not failed.
PREDICTED_SPLIT = {
    "window_hit_share": HOT_SHARE,
    "kernel_latency_share": 0.10,
    "coalesce_latency_share": 0.81,
}
SPLIT_TOLERANCE = 0.05
#: The library workload cycles its three query phases in rounds this long.
ROUND_S = 0.6
#: Seconds of load before the measured window opens (cache and loop warm-up).
WARMUP_S = 1.0
#: Writer stream: one line every this many seconds, ``publish`` after every
#: ``PUBLISH_EVERY`` mutations.  At this rate removals (about 0.25 s each on
#: the 2k graph) keep the server busy about a quarter of the time, and a
#: run still holds about ten of them for the pair p99 to reflect.
WRITE_INTERVAL_S = 0.5
PUBLISH_EVERY = 3
CHECKS_PER_PUBLISH = 4
#: A client using this share of one core or more is the bottleneck.
CLIENT_BOTTLENECK_SHARE = 0.9
#: Figures printed before the result line but not gated in ``BENCHMARK.json``
#: (``perfbench/README.md`` says why), with their units.
PRINTED = {
    "build_s": "s",
    "query_us": "us",
    "fanout_p50_ms": "ms",
    "insert_p50_ms": "ms",
    "remove_p50_ms": "ms",
    "publish_p50_ms": "ms",
    "window_hit_share": "ratio",
    "kernel_latency_share": "ratio",
    "coalesce_latency_share": "ratio",
}

_clock = time.perf_counter


class BenchError(RuntimeError):
    """The workload could not run to completion."""


# --------------------------------------------------------------------------- #
# Inputs and ground truth
# --------------------------------------------------------------------------- #


class Inputs:
    """Everything a workload sends, generated from the seed, plus BFS truth."""

    def __init__(self, seed: int, vertices: int) -> None:
        self.seed = seed
        self.n = vertices
        self.edges = generate_edges(seed, vertices)
        self.csr = graphs.Csr(vertices, self.edges)
        rng = np.random.default_rng(seed)
        self.sources = rng.choice(vertices, POOL_SOURCES, replace=False).astype(np.int64)
        self.row = {int(s): i for i, s in enumerate(self.sources)}
        self.truth = np.stack([self.csr.bfs(int(s)) for s in self.sources]).astype(np.float64)
        self.truth[self.truth < 0] = math.inf
        # Hot and cold pairs take their targets from disjoint halves of one
        # permutation, so no cold pair is a hot one.
        targets = rng.permutation(vertices)
        self.cold_targets = targets[: vertices // 2]
        hot_targets = targets[vertices // 2:]
        self.hot = np.stack([
            self.sources[rng.integers(POOL_SOURCES, size=HOT_PAIRS)],
            hot_targets[rng.integers(len(hot_targets), size=HOT_PAIRS)],
        ], axis=1)
        self.fanouts = [
            (int(self.sources[rng.integers(POOL_SOURCES)]),
             rng.integers(vertices, size=FANOUT_TARGETS).tolist())
            for _ in range(FANOUT_POOL)
        ]

    def expected(self, source: int, targets) -> np.ndarray:
        return self.truth[self.row[source], targets]

    def cold_pair(self, k: int):
        """Cold pair number ``k`` as the load generator forms it."""
        return (int(self.sources[k % POOL_SOURCES]),
                int(self.cold_targets[k // POOL_SOURCES % len(self.cold_targets)]))

    def write_hot(self, path: str) -> None:
        """The hot set as a ``--warm`` query log, one ``s t`` per line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(f"{s} {t}\n" for s, t in self.hot.tolist())


def generate_edges(seed: int, vertices: int):
    return graphs.holme_kim_edges(vertices, EDGES_PER_VERTEX, TRIAD, seed)


class MutatedTruth:
    """BFS truth on the generated graph with at most one edge removed."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self._graphs = {}
        self._rows = {}

    def distances(self, removed, source: int, targets) -> np.ndarray:
        if removed is None:
            return self.inputs.expected(source, targets)
        removed = tuple(removed)
        key = (removed, source)
        if key not in self._rows:
            if removed not in self._graphs:
                edges = [e for e in self.inputs.edges if e != removed]
                self._graphs[removed] = graphs.Csr(self.inputs.n, edges)
            row = self._graphs[removed].bfs(source).astype(np.float64)
            row[row < 0] = math.inf
            self._rows[key] = row
        return self._rows[key][targets]


def write_stream(inputs: Inputs):
    """A ``remove``/``add`` stream restoring the graph, ``publish`` every few.

    Returns ``(lines, removed_at, checks)``: the wire lines, the edge removed
    in the published state after each ``publish`` line (``None`` when the
    graph is whole), and the check pairs asked after each publish.
    """
    rng = np.random.default_rng(inputs.seed + 1)
    lines, removed_at, checks = [], {}, {}
    removed = None
    mutations = 0
    for index in rng.permutation(len(inputs.edges))[:200]:
        a, b = inputs.edges[int(index)]
        for op in ("remove", "add"):
            lines.append(f"{op} {a} {b}")
            removed = (a, b) if op == "remove" else None
            mutations += 1
            if mutations % PUBLISH_EVERY == 0:
                position = len(lines)
                lines.append("publish")
                removed_at[position] = removed
                sources = inputs.sources[rng.integers(POOL_SOURCES, size=CHECKS_PER_PUBLISH)]
                targets = [a, b] + rng.integers(inputs.n, size=CHECKS_PER_PUBLISH - 2).tolist()
                checks[str(position)] = [[int(s), int(t)] for s, t in zip(sources, targets)]
    return lines, removed_at, checks


def parse_distance(line: str, source: int, target: int) -> float:
    parts = line.split("\t")
    if len(parts) != 3 or int(parts[0]) != source or int(parts[1]) != target:
        raise ValueError(f"malformed reply {line!r} for ({source}, {target})")
    return math.inf if parts[2] == "inf" else float(parts[2])


# --------------------------------------------------------------------------- #
# Processes
# --------------------------------------------------------------------------- #


class Processes:
    """Every child process this run starts; all are stopped before exit."""

    def __init__(self) -> None:
        self.live = []

    def start(self, args, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(args, env=CHILD_ENV, **kwargs)
        self.live.append(proc)
        return proc

    def reaped(self, proc: subprocess.Popen) -> None:
        self.live.remove(proc)

    def stop(self, proc: subprocess.Popen, timeout: float = 60.0) -> None:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.reaped(proc)

    def stop_all(self) -> None:
        for proc in list(self.live):
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.live.clear()


def repro_command(spans=None, peak=None):
    """Argument prefix running ``repro-pll``: through ``launch.py`` when
    tracing to ``spans`` or reporting the peak RSS to ``peak``."""
    if spans is None and peak is None:
        return [sys.executable, "-m", "repro.cli"]
    command = [sys.executable, os.path.join(HERE, "launch.py")]
    if spans is not None:
        command += ["--spans", spans]
    if peak is not None:
        command += ["--peak", peak]
    return command + ["--"]


def run_build(procs: Processes, work: str, edge_path: str, index_path: str, spans=None):
    """``repro-pll build``: returns ``(seconds, index bytes, peak RSS MiB)``."""
    peak_path = os.path.join(work, "build-peak.txt")
    args = repro_command(spans, peak_path) + [
        "build", edge_path, "-o", index_path, "--bit-parallel", BIT_PARALLEL,
    ]
    log_path = os.path.join(work, "build.log")
    with open(log_path, "w", encoding="utf-8") as log:
        start = _clock()
        proc = procs.start(args, stdout=log, stderr=subprocess.STDOUT)
        proc.wait()
        seconds = _clock() - start
    procs.reaped(proc)
    if proc.returncode != 0:
        raise BenchError(f"repro-pll build exited {proc.returncode}: {tail(log_path)}")
    with open(peak_path, "r", encoding="utf-8") as handle:
        peak = float(handle.read())
    return seconds, os.path.getsize(index_path), peak


def tail(path: str, lines: int = 12) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        return "".join(handle.readlines()[-lines:])


class Server:
    """One ``repro-pll serve --async`` process with its admin plane."""

    def __init__(self, procs: Processes, work: str, args, tag: str, spans=None) -> None:
        self.procs = procs
        self.log_path = os.path.join(work, f"server-{tag}.log")
        command = repro_command(spans) + ["serve"] + list(args) + [
            "--async", "--port", "0", "--http-port", "0", "--log-json",
        ]
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = procs.start(command, stdout=subprocess.DEVNULL, stderr=log)
        self.host, self.port, self.http_port = self._wait_listening()

    def _wait_listening(self):
        deadline = _clock() + 120.0
        while _clock() < deadline:
            with open(self.log_path, "r", encoding="utf-8", errors="replace") as handle:
                for line in handle:
                    if '"listening"' in line:
                        event = json.loads(line)
                        return event["host"], event["port"], event["http_port"]
            if self.proc.poll() is not None:
                raise BenchError(f"server exited {self.proc.returncode}: {tail(self.log_path)}")
            time.sleep(0.002)
        raise BenchError("server did not start listening within 120 s")

    def ask(self, line: str) -> str:
        with socket.create_connection((self.host, self.port), timeout=60) as sock:
            handle = sock.makefile("rw", encoding="utf-8", newline="\n")
            handle.write(line + "\n")
            handle.flush()
            return handle.readline().rstrip("\n")

    def scrape(self) -> dict:
        url = f"http://{self.host}:{self.http_port}/metrics"
        with urllib.request.urlopen(url, timeout=30) as response:
            return parse_exposition(response.read().decode("utf-8"))

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", "r", encoding="utf-8") as handle:
            fields = handle.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        self.procs.stop(self.proc)
        if self.proc.returncode not in (0, -signal.SIGTERM):
            raise BenchError(f"server exited {self.proc.returncode}: {tail(self.log_path)}")


def parse_exposition(text: str) -> dict:
    """``/metrics`` text as ``{series: value}``."""
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


def window_split(scrapes) -> dict:
    """The measured window's cache hit share, and the kernel's and the
    coalescing window's shares of the server's mean request latency, from
    the ``/metrics`` counters fetched when the window opened and closed."""
    before, after = (parse_exposition(text) for text in scrapes)

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    def mean(name: str) -> float:
        count = delta(name + "_count")
        return delta(name + "_sum") / count if count else 0.0

    lookups = delta("repro_pll_cache_hits") + delta("repro_pll_cache_misses")
    latency = mean("repro_pll_latency_seconds")
    if not lookups or not latency:
        raise BenchError("the server counted no cache lookups or requests in the window")
    return {
        "window_hit_share": delta("repro_pll_cache_hits") / lookups,
        "kernel_latency_share": mean("repro_pll_stage_kernel_seconds") / latency,
        "coalesce_latency_share": mean("repro_pll_stage_batch_seconds") / latency,
    }


def first_answer(server: Server, inputs: Inputs) -> bool:
    s, t = (int(v) for v in inputs.hot[0])
    reply = server.ask(f"{s} {t}")
    return parse_distance(reply, s, t) == inputs.expected(s, [t])[0]


def run_client(procs, work, server, inputs, readers, seconds, writes=None, checks=None):
    plan = {
        "host": server.host,
        "port": server.port,
        "http_port": server.http_port,
        "warmup": WARMUP_S,
        "seconds": seconds,
        "seed": inputs.seed,
        "readers": readers,
        "hot": inputs.hot.tolist(),
        "hot_share": HOT_SHARE,
        "sources": inputs.sources.tolist(),
        "cold_targets": inputs.cold_targets.tolist(),
        "fanouts": inputs.fanouts,
        "fanout_every": FANOUT_EVERY,
        "write_interval": WRITE_INTERVAL_S,
        "writes": writes or [],
        "checks": checks or {},
    }
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "client.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    cpu_before = server.cpu_seconds()
    start = _clock()
    proc = procs.start([sys.executable, os.path.join(HERE, "client.py"), plan_path, result_path])
    try:
        proc.wait(timeout=WARMUP_S + seconds + 120)
    finally:
        procs.stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"load generator exited {proc.returncode}")
    wall = _clock() - start
    with open(result_path, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    result["server_cpu_share"] = (server.cpu_seconds() - cpu_before) / wall
    return result


# --------------------------------------------------------------------------- #
# Checking and statistics
# --------------------------------------------------------------------------- #


class Tally:
    """Answers attempted, and those that failed (error, refusal or wrong)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.examples = []

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    def record_wrong(self, what: str) -> None:
        self.wrong += 1
        if len(self.examples) < 5:
            self.examples.append(what)


def check_reads(tally: Tally, inputs: Inputs, records, truth: MutatedTruth, candidates_of=None) -> None:
    """Check every reader reply; ``candidates_of(sent, received)`` lists the
    graph states (removed edge or ``None``) a reply may reflect."""
    for kind, item, sent, received, reply in records:
        tally.attempted += 1
        if reply[0].startswith("error"):
            tally.errors += 1
            continue
        if kind == 0:
            source, targets = int(inputs.hot[item][0]), [int(inputs.hot[item][1])]
        elif kind == 2:
            source, target = inputs.cold_pair(item)
            targets = [target]
        else:
            source, targets = inputs.fanouts[item]
        try:
            got = np.array([parse_distance(line, source, t) for line, t in zip(reply, targets)])
        except ValueError as exc:
            tally.record_wrong(str(exc))
            continue
        states = candidates_of(sent, received) if candidates_of else [None]
        if not any(np.array_equal(got, truth.distances(state, source, targets)) for state in states):
            tally.record_wrong(f"{source}->{targets[:3]}: got {got[:3].tolist()}")


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def window(records, start: float, seconds: float):
    """The requests sent and answered within the measured window."""
    opens = start + WARMUP_S
    return [r for r in records if opens <= r[2] and r[3] <= opens + seconds]


# --------------------------------------------------------------------------- #
# library
# --------------------------------------------------------------------------- #


def import_serialization():
    """The program's ``repro.core.serialization``, imported from this checkout."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro.core.serialization

    return repro.core.serialization


def library_slice(seconds: float, call, items, position: int, check):
    """Call ``call(item)`` over ``items`` (cycled from ``position``) for
    ``seconds``; returns ``(item number, latency)`` per call and the next
    position."""
    timed = []
    deadline = _clock() + seconds
    while _clock() < deadline:
        number = position % len(items)
        item = items[number]
        position += 1
        started = time.perf_counter_ns()
        result = call(item)
        timed.append((number, (time.perf_counter_ns() - started) / 1e9))
        check(item, result)
    return timed, position


def seconds_of(timed):
    return [seconds for _, seconds in timed]


def item_fastest(timed):
    """Each item's fastest call: the cost of each query in the pool.

    A query is a fixed computation, and a busy machine only ever adds to its
    time, so its fastest call is its cost.  Each item runs tens of times
    spread over the whole window, so a slow spell has to cover all of them
    to move the figure.
    """
    by_item = {}
    for number, seconds in timed:
        by_item[number] = min(seconds, by_item.get(number, math.inf))
    return list(by_item.values())


def library_queries(index, inputs: Inputs, tally: Tally, seconds: float, phases=("pair", "batch", "fanout")):
    """Run the phases round-robin in short slices for ``seconds``, so a slow
    moment of the machine falls on every phase alike.

    Returns per phase ``(item number, latency)`` for every call after the
    first round, which is an unrecorded warm-up.
    """
    rng = np.random.default_rng(inputs.seed + 2)
    picks = rng.integers(POOL_SOURCES, size=SCALAR_PAIRS)
    pairs = list(zip(inputs.sources[picks].tolist(),
                     rng.integers(inputs.n, size=SCALAR_PAIRS).tolist()))
    batches = []
    for _ in range(8):
        picks = rng.integers(POOL_SOURCES, size=BATCH_PAIRS)
        batches.append((picks, inputs.sources[picks], rng.integers(inputs.n, size=BATCH_PAIRS)))

    def check_pair(item, distance):
        tally.attempted += 1
        if distance != inputs.expected(item[0], [item[1]])[0]:
            tally.record_wrong(f"distance{item} = {distance}")

    def check_batch(item, distances):
        tally.attempted += 1
        picks, _, targets = item
        if not np.array_equal(distances, inputs.truth[picks, targets]):
            tally.record_wrong("distance_batch mismatch")

    def check_fanout(item, distances):
        tally.attempted += 1
        if not np.array_equal(distances, inputs.expected(item[0], item[1])):
            tally.record_wrong(f"distances_from({item[0]}) mismatch")

    work = {
        "pair": (lambda p: index.distance(*p), pairs, check_pair),
        "batch": (lambda b: index.distance_batch(b[1], b[2]), batches, check_batch),
        "fanout": (lambda f: index.distances_from(f[0], f[1]), inputs.fanouts, check_fanout),
    }
    samples = {phase: [] for phase in phases}
    positions = dict.fromkeys(phases, 0)
    slice_s = ROUND_S / len(phases)
    deadline = _clock() + slice_s * len(phases) + seconds
    warm = True
    while warm or _clock() < deadline:
        for phase in phases:
            call, items, check = work[phase]
            timed, positions[phase] = library_slice(slice_s, call, items, positions[phase], check)
            if not warm:
                samples[phase].extend(timed)
        warm = False
    return samples


def library(args, work, procs, tally):
    inputs = Inputs(args.seed, VERTICES["library"])
    serialization = import_serialization()
    edge_path = os.path.join(work, "graph.txt")
    index_path = os.path.join(work, "graph.pll")
    if args.trace:
        return library_traced(args, work, procs, tally, inputs, serialization, edge_path, index_path)
    setups, builds = [], []
    samples = {"pair": [], "batch": [], "fanout": []}
    for number in range(SETUPS["library"]):
        # A fresh file each time: the previous index is still mapped.
        index_path = os.path.join(work, f"graph-{number}.pll")
        start = _clock()
        graphs.write_edge_list(edge_path, generate_edges(args.seed, inputs.n))
        builds.append(run_build(procs, work, edge_path, index_path))
        index = serialization.load_index(index_path, mmap=True)
        index.prepare_batch_kernel()
        s, t = (int(v) for v in inputs.hot[0])
        answer = index.distance(s, t)
        setups.append(_clock() - start)
        tally.attempted += 1
        if answer != inputs.expected(s, [t])[0]:
            tally.record_wrong(f"first answer distance({s}, {t}) = {answer}")
        # Each set-up is followed by its share of the query window, so the
        # window spreads over the whole run and an item's cost is moved only
        # by a slow spell covering all of it.
        share = library_queries(index, inputs, tally, args.seconds / SETUPS["library"])
        for phase, timed in share.items():
            samples[phase].extend(timed)
    # The gated figures are taken over the pools (4096 pairs, 8 batches, 256
    # fan-outs) of each item's cost, its fastest call; query_us keeps every
    # call's time, stalls included.
    pair, batch, fanout = (item_fastest(samples[phase]) for phase in ("pair", "batch", "fanout"))
    metrics = {
        "setup_s": statistics.median(setups),
        "index_bytes": float(builds[-1][1]),
        "peak_rss_mb": statistics.median(b[2] for b in builds),
        "pair_qps": 1 / statistics.fmean(pair),
        "pair_p50_ms": percentile(pair, 50) * 1e3,
        "pair_p99_ms": percentile(pair, 99) * 1e3,
        "fanout_p90_ms": percentile(fanout, 90) * 1e3,
        "batch_pairs_per_s": BATCH_PAIRS / statistics.fmean(batch),
    }
    calls = {phase: len(timed) for phase, timed in samples.items()}
    extra = {
        "build_s": min(b[0] for b in builds),
        "fanout_p50_ms": percentile(fanout, 50) * 1e3,
        "query_us": 1e6 * statistics.fmean(seconds_of(samples["pair"])),
        "samples": " ".join(f"{phase}={n}" for phase, n in calls.items()),
        "kernel": index.prepare_batch_kernel().backend_name,
        "connections": 0,
    }
    return metrics, extra


def library_traced(args, work, procs, tally, inputs, serialization, edge_path, index_path):
    build_spans = os.path.join(work, "spans-build.json")
    graphs.write_edge_list(edge_path, inputs.edges)
    run_build(procs, work, edge_path, index_path, spans=build_spans)
    share = args.seconds / 4
    index = serialization.load_index(index_path, mmap=True)
    untraced = seconds_of(library_queries(index, inputs, tally, share, phases=("pair",))["pair"])
    recorder = tracer.Recorder()
    tracer.install(recorder)
    try:
        # Looked up through the module, so the call goes through the wrapper.
        index = serialization.load_index(index_path, mmap=True)
        index.prepare_batch_kernel()
        pair = seconds_of(library_queries(index, inputs, tally, share, phases=("pair",))["pair"])
        library_queries(index, inputs, tally, 2 * share, phases=("batch", "fanout"))
    finally:
        tracer.uninstall(recorder)
    layers = layer_metrics([tracer.load_dump(build_spans), recorder.as_dict()], scrape=None)
    # A scalar distance() is one label merge plus one bit-parallel test; the
    # rest of its measured time (the index facade) is unattributed.
    mean_call = statistics.fmean(pair)
    attributed = 1e-6 * (layers["core.labels.query_us"] + layers["core.bitparallel.query_us"])
    layers.update({
        "unattributed_share": 1 - attributed / mean_call,
        "unattributed_base_ms": 1e3 * mean_call,
        "untraced_pair_qps": 1 / statistics.fmean(untraced),
        "traced_pair_qps": 1 / mean_call,
    })
    layers["trace_overhead"] = layers["traced_pair_qps"] / layers["untraced_pair_qps"]
    return layers, {"kernel": index.prepare_batch_kernel().backend_name, "connections": 0}


# --------------------------------------------------------------------------- #
# serve-read and serve-write
# --------------------------------------------------------------------------- #


def serve_args(workload: str, work: str, edge_path: str, index_path: str):
    warm = ["--warm", os.path.join(work, "hot.txt")]
    if workload == "serve-read":
        return [index_path] + warm
    return ["--edge-list", edge_path] + warm


def write_inputs(work: str, inputs: Inputs, edge_path: str) -> None:
    """The files the server is given: the edge list and the hot set."""
    graphs.write_edge_list(edge_path, generate_edges(inputs.seed, inputs.n))
    inputs.write_hot(os.path.join(work, "hot.txt"))


def serve_setup(args, work, procs, tally, inputs, edge_path, index_path, tag: str):
    """Generate, build (serve-read), start the server, get the first answer."""
    start = _clock()
    write_inputs(work, inputs, edge_path)
    build = None
    if args.workload == "serve-read":
        build = run_build(procs, work, edge_path, index_path)
    server = start_server(args, work, procs, tally, inputs, edge_path, index_path, tag)
    return _clock() - start, build, server


def start_server(args, work, procs, tally, inputs, edge_path, index_path, tag, spans=None):
    server = Server(procs, work, serve_args(args.workload, work, edge_path, index_path), tag,
                    spans=spans)
    tally.attempted += 1
    if not first_answer(server, inputs):
        tally.record_wrong(f"first answer from server {tag}")
    return server


def serve_load(args, work, procs, tally, inputs, server, seconds):
    """Drive the server for ``seconds``; check every reply; return statistics."""
    writer = args.workload == "serve-write"
    readers = 1 if writer else (os.cpu_count() or 1)
    lines, removed_at, checks = write_stream(inputs) if writer else ([], {}, {})
    result = run_client(procs, work, server, inputs, readers, seconds, lines, checks)
    records = [r for conn in result["readers"] for r in conn]
    truth = MutatedTruth(inputs)
    candidates_of = None
    mutations = result["mutations"]
    if writer:
        publishes = [(sent, acked, removed_at[pos]) for pos, _, sent, acked, _ in mutations
                     if pos in removed_at]
        starts = [-math.inf] + [p[0] for p in publishes]
        ends = [p[1] for p in publishes] + [math.inf]
        states = [None] + [p[2] for p in publishes]

        def candidates_of(sent, received):
            return [state for state, lo, hi in zip(states, starts, ends)
                    if lo <= received and hi >= sent]

        for *_, ack in mutations:
            tally.attempted += 1
            if not ack.startswith("ok"):
                tally.errors += 1
        for pos, s, t, reply in result["checks"]:
            tally.attempted += 1
            try:
                got = parse_distance(reply, s, t)
            except ValueError:
                tally.errors += 1
                continue
            if got != truth.distances(removed_at[int(pos)], s, [t])[0]:
                tally.record_wrong(f"after publish at {pos}: ({s}, {t}) = {got}")
    check_reads(tally, inputs, records, truth, candidates_of)
    measured = window(records, result["start"], seconds)
    pairs = [r for r in measured if r[0] != 1]
    fanouts = [r for r in measured if r[0] == 1]
    if not pairs or not fanouts:
        raise BenchError("no pair or fan-out request completed in the measured window")
    duration = max(r[3] for r in measured) - min(r[2] for r in measured)

    def latency_ms(group, q):
        return percentile([r[3] - r[2] for r in group], q) * 1e3

    stats = {
        "pair_qps": len(pairs) / duration,
        "pair_p50_ms": latency_ms(pairs, 50),
        "pair_p99_ms": latency_ms(pairs, 99),
        "fanout_p50_ms": latency_ms(fanouts, 50),
        "fanout_p90_ms": latency_ms(fanouts, 90),
        "batch_pairs_per_s": (len(pairs) + FANOUT_TARGETS * len(fanouts)) / duration,
        "query_us": 1e6 * statistics.fmean(r[3] - r[2] for r in pairs),
        "client_cpu_share": result["cpu_share"],
        "server_cpu_share": result["server_cpu_share"],
        "connections": readers + (1 if writer else 0),
        "samples": f"pair={len(pairs)} fanout={len(fanouts)} mutations={len(mutations)}",
        **window_split(result["scrapes"]),
    }
    for op in ("add", "remove", "publish"):
        times = [acked - due for pos, due, _, acked, _ in mutations
                 if lines[pos].split()[0] == op]
        if times:
            stats[f"{'insert' if op == 'add' else op}_p50_ms"] = percentile(times, 50) * 1e3
    return stats


def serve(args, work, procs, tally):
    inputs = Inputs(args.seed, VERTICES[args.workload])
    edge_path = os.path.join(work, "graph.txt")
    index_path = os.path.join(work, "graph.pll")
    if args.trace:
        return serve_traced(args, work, procs, tally, inputs, edge_path, index_path)
    setups, builds = [], []
    if args.workload == "serve-write":
        # The writable server builds its index in memory and saves none, so
        # index_bytes comes from one saved-index build of the same graph.
        graphs.write_edge_list(edge_path, inputs.edges)
        builds = [run_build(procs, work, edge_path, index_path)]
    server = None
    for attempt in range(SETUPS[args.workload]):
        if server is not None:
            server.stop()
        seconds, build, server = serve_setup(
            args, work, procs, tally, inputs, edge_path, index_path, tag=str(attempt)
        )
        setups.append(seconds)
        if build is not None:
            builds.append(build)
    stats = serve_load(args, work, procs, tally, inputs, server, args.seconds)
    scrape = server.scrape()
    peak = peak_rss_mib(server.proc.pid)
    server.stop()
    metrics = {
        "setup_s": statistics.median(setups),
        "index_bytes": float(builds[-1][1]),
        "peak_rss_mb": peak,
    }
    for name in ("pair_qps", "pair_p50_ms", "pair_p99_ms", "fanout_p90_ms", "batch_pairs_per_s"):
        metrics[name] = stats.pop(name)
    if args.workload == "serve-read":
        stats["build_s"] = min(b[0] for b in builds)
    stats["kernel"] = kernel_name(scrape)
    stats["server_rss_mb"] = round(scrape.get("repro_pll_process_rss_bytes", 0.0) / 2**20, 1)
    stats["load_generator_bottleneck"] = stats["client_cpu_share"] >= CLIENT_BOTTLENECK_SHARE
    return metrics, stats


def kernel_name(scrape: dict) -> str:
    for key in scrape:
        if key.startswith("repro_pll_kernel_info{"):
            return key.split('kernel="')[1].split('"')[0]
    return "unknown"


def serve_traced(args, work, procs, tally, inputs, edge_path, index_path):
    half = args.seconds / 2
    write_inputs(work, inputs, edge_path)
    build_spans = os.path.join(work, "spans-build.json")
    if args.workload == "serve-read":
        run_build(procs, work, edge_path, index_path, spans=build_spans)
    server = start_server(args, work, procs, tally, inputs, edge_path, index_path, "plain")
    untraced = serve_load(args, work, procs, tally, inputs, server, half)
    server.stop()
    spans_path = os.path.join(work, "spans-server.json")
    server = start_server(args, work, procs, tally, inputs, edge_path, index_path, "traced",
                          spans=spans_path)
    traced = serve_load(args, work, procs, tally, inputs, server, half)
    scrape = server.scrape()
    server.stop()
    dumps = [tracer.load_dump(spans_path)]
    if os.path.exists(build_spans):
        dumps.append(tracer.load_dump(build_spans))
    layers = layer_metrics(dumps, scrape)
    counts = merged_counts(dumps)
    served = counts.get("serving.cache.dispatch_pairs", 0) + counts.get(
        "serving.engine.one_to_many_pairs", 0)
    if served != scrape["repro_pll_num_queries"]:
        raise BenchError(
            f"traced pair count {served:.0f} != server num_queries "
            f"{scrape['repro_pll_num_queries']:.0f}"
        )
    layers.update(attribution(dumps[0], scrape))
    layers.update({
        # The window's split, from the untraced half like every figure the
        # tracer's own cost would move.
        "serving.cache.hit_ratio": untraced["window_hit_share"],
        "kernel_latency_share": untraced["kernel_latency_share"],
        "coalesce_latency_share": untraced["coalesce_latency_share"],
        "untraced_pair_qps": untraced["pair_qps"],
        "traced_pair_qps": traced["pair_qps"],
        "trace_overhead": traced["pair_qps"] / untraced["pair_qps"],
        "client.connections": traced["connections"],
        "client.cpu_share": traced["client_cpu_share"],
        "server.cpu_share": traced["server_cpu_share"],
        "client.bottleneck": float(traced["client_cpu_share"] >= CLIENT_BOTTLENECK_SHARE),
    })
    return layers, {"kernel": kernel_name(scrape), "connections": traced["connections"],
                    "client_cpu_share": traced["client_cpu_share"],
                    "server_cpu_share": traced["server_cpu_share"]}


# --------------------------------------------------------------------------- #
# Per-layer metrics from spans
# --------------------------------------------------------------------------- #


def merged_counts(dumps) -> dict:
    counts = {}
    for dump in dumps:
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return counts


def layer_metrics(dumps, scrape) -> dict:
    """Mean self seconds per call of each layer, plus the layer counters."""
    calls, self_s = {}, {}
    for dump in dumps:
        for key, (n, seconds) in tracer.self_times(dump["spans"]).items():
            calls[key] = calls.get(key, 0) + n
            self_s[key] = self_s.get(key, 0.0) + seconds
    counts = merged_counts(dumps)

    def mean(key: str) -> float:
        return self_s[key] / calls[key] if calls.get(key) else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def stage_ms(stage: str) -> float:
        if not scrape:
            return 0.0
        base = f"repro_pll_stage_{stage}_seconds"
        return 1e3 * ratio(scrape.get(base + "_sum", 0.0), scrape.get(base + "_count", 0.0))

    layers = {
        "graph.read_s": mean("graph.read"),
        "graph.order_s": mean("graph.order"),
        "core.bitparallel.build_s": mean("core.bitparallel.build"),
        "core.pruned.build_s": mean("core.pruned.build"),
        "core.pruned.visited": counts.get("core.pruned.visited", 0),
        "core.pruned.labeled": counts.get("core.pruned.labeled", 0),
        "core.pruned.label_ratio": ratio(counts.get("core.pruned.labeled", 0),
                                         counts.get("core.pruned.visited", 0)),
        "core.query.kernel_prep_s": mean("core.query.kernel_prep"),
        "core.serialization.save_s": mean("core.serialization.save"),
        "core.serialization.load_s": mean("core.serialization.load"),
        "core.labels.entries_per_vertex": ratio(counts.get("core.labels.entries", 0),
                                                counts.get("core.labels.vertices", 0)),
        "core.labels.query_us": 1e6 * mean("core.labels.query"),
        "core.bitparallel.query_us": 1e6 * mean("core.bitparallel.query"),
        "core.kernels.query_pairs_s": mean("core.kernels.query_pairs"),
        "core.kernels.pairs": counts.get("core.kernels.pairs", 0),
        "core.bitparallel.query_pairs_s": mean("core.bitparallel.query_pairs"),
        "core.kernels.one_to_many_s": mean("core.kernels.one_to_many"),
        "core.bitparallel.one_to_many_s": mean("core.bitparallel.one_to_many"),
        "serving.protocol.parse_s": mean("serving.protocol.parse"),
        "serving.protocol.format_s": mean("serving.protocol.format"),
        "serving.aio.admitted": counts.get("serving.aio.admitted", 0),
        "serving.aio.rejected": counts.get("serving.aio.rejected", 0),
        "serving.aio.queue_wait_ms": stage_ms("queue"),
        "serving.aio.coalesce_wait_ms": stage_ms("batch"),
        "serving.aio.pairs_per_batch": ratio(counts.get("serving.cache.dispatch_pairs", 0),
                                             calls.get("serving.cache.dispatch", 0)),
        "serving.cache.probe_s": mean("serving.cache.probe"),
        "serving.cache.hit_ratio": ratio(counts.get("serving.cache.hits", 0),
                                         counts.get("serving.cache.lookups", 0)),
        "serving.cache.hits": counts.get("serving.cache.hits", 0),
        "serving.cache.lookups": counts.get("serving.cache.lookups", 0),
        "serving.cache.clears": calls.get("serving.cache.clear", 0),
        "serving.engine.query_batch_s": mean("serving.engine.query_batch"),
        "serving.engine.batches": calls.get("serving.engine.query_batch", 0),
        "serving.engine.one_to_many_s": mean("serving.engine.one_to_many"),
        "serving.snapshot.insert_s": mean("serving.snapshot.insert"),
        "serving.snapshot.remove_s": mean("serving.snapshot.remove"),
        "serving.snapshot.publish_s": mean("serving.snapshot.publish"),
        "core.dynamic.freeze_s": mean("core.dynamic.freeze"),
        "core.dynamic.dirty_vertices": ratio(counts.get("core.dynamic.dirty_vertices", 0),
                                             calls.get("core.dynamic.freeze", 0)),
        "kernel_latency_share": 0.0,
        "coalesce_latency_share": 0.0,
        "env.nproc": float(os.cpu_count() or 1),
        "client.connections": 0.0,
        "client.cpu_share": 0.0,
        "server.cpu_share": 0.0,
        "client.bottleneck": 0.0,
    }
    return layers


def attribution(dump: dict, scrape: dict) -> dict:
    """Split the server's mean pair latency into named stages.

    A pair request runs from the start of ``parse_pair`` to the end of its
    ``format_distance_line`` on the event loop.  Named stages: parse,
    admission (``submit``), queue wait and coalescing window (the server's
    stage histograms), the engine dispatch of the request's batch (weighted
    by the pairs each batch carried), and reply formatting.  The rest —
    executor hand-offs and task wake-ups — is unattributed.
    """
    requests = dump["requests"]
    batches = dump["batches"]
    if not requests or not batches:
        return {"unattributed_share": 0.0, "unattributed_base_ms": 0.0}
    total = statistics.fmean(end - start for start, _, _, _, end in requests)
    parse = statistics.fmean(parsed - start for start, parsed, _, _, _ in requests)
    submit = statistics.fmean(submit for _, _, submit, _, _ in requests)
    fmt = statistics.fmean(end - formatted for _, _, _, formatted, end in requests)
    pairs = sum(n for _, _, n in batches)
    dispatch = sum((end - start) * n for start, end, n in batches) / pairs
    waits = 1e9 * sum(
        scrape[f"repro_pll_stage_{stage}_seconds_sum"] / scrape[f"repro_pll_stage_{stage}_seconds_count"]
        for stage in ("queue", "batch")
    )
    unattributed = total - (parse + submit + waits + dispatch + fmt)
    return {"unattributed_share": unattributed / total, "unattributed_base_ms": total / 1e6}


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #


def load_manifest() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(VERTICES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.exists(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no program to benchmark: {SRC}/repro/cli.py is missing "
              "(run from the root of a repository checkout)", file=sys.stderr)
        return 2
    manifest = load_manifest()
    specs = manifest["per_layer" if args.trace else "end_to_end"]
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    procs = Processes()
    tally = Tally()
    try:
        runner = library if args.workload == "library" else serve
        metrics, extra = runner(args, work, procs, tally)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        procs.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in sorted(extra.items()) if k not in PRINTED)
          + f" nproc={os.cpu_count()}")
    if not args.trace:
        for name, unit in PRINTED.items():
            if name in extra:
                print(f"metric {name} {extra[name]:.6g} {unit}")
        print(f"metric error_ratio {tally.failed / max(tally.attempted, 1):.6g} ratio "
              f"({tally.errors} errors or refusals, {tally.wrong} wrong, "
              f"{tally.attempted} attempted)")
    if args.workload == "serve-read" and "window_hit_share" in extra:
        for name, predicted in PREDICTED_SPLIT.items():
            off = abs(extra[name] - predicted) > SPLIT_TOLERANCE
            print(f"split {name} measured {extra[name]:.3f} predicted {predicted:.2f}"
                  + (" (off the prediction)" if off else ""))
    for example in tally.examples:
        print(f"wrong: {example}")
    output = {}
    for spec in specs:
        value = float(metrics[spec["name"]])
        output[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"metric {spec['name']} {value:.6g} {spec['unit']}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": output,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
