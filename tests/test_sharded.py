"""Tests for multi-process sharded serving over shared-memory generations."""

from __future__ import annotations

import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.index import PrunedLandmarkLabeling
from repro.errors import ServingError, VertexError
from repro.graph.csr import Graph
from repro.serving import (
    LRUCache,
    QueryServer,
    ServerMetrics,
    ShardedQueryEngine,
    SnapshotManager,
)
from tests.conftest import sample_pairs

#: Pool/shard settings that force even tiny test batches through the workers.
WORKER_KWARGS = dict(num_workers=2, min_shard_size=4, local_threshold=0)


def _segment_names(prefix: str):
    shm = Path("/dev/shm")
    if not shm.exists():
        pytest.skip("no /dev/shm on this platform")
    return sorted(p.name for p in shm.iterdir() if p.name.startswith(prefix))


class TestShardedEngine:
    def test_matches_single_process_engine(self, small_social_graph):
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=4).build(
            small_social_graph
        )
        pairs = np.asarray(
            sample_pairs(small_social_graph, 300, seed=3), dtype=np.int64
        )
        # Include identical endpoints (the s == t short-circuit crosses the
        # process boundary too).
        pairs[:10, 1] = pairs[:10, 0]
        expected = index.distance_batch(pairs[:, 0], pairs[:, 1])
        with ShardedQueryEngine(index, **WORKER_KWARGS) as engine:
            spans = []
            result = engine.query_batch(pairs[:, 0], pairs[:, 1], span_sink=spans)
            assert np.array_equal(result, expected)
            assert engine.stats.num_queries == pairs.shape[0]
            # The batch fanned out as one shard per worker slot, and the shard
            # pair counts cover it.  Which pool process ran each shard is the
            # scheduler's choice: one worker may take both.
            assert [span.name for span in spans] == ["shard", "shard"]
            assert sum(span.attrs["pairs"] for span in spans) == pairs.shape[0]
            assert set(engine.worker_seconds()) == {span.attrs["worker"] for span in spans}

    def test_disconnected_pairs_cross_processes(self, disconnected_graph):
        index = PrunedLandmarkLabeling().build(disconnected_graph)
        with ShardedQueryEngine(index, **WORKER_KWARGS) as engine:
            result = engine.query_batch([0, 3, 5, 0], [1, 4, 0, 4])
            assert np.array_equal(result, [1.0, 1.0, np.inf, np.inf])

    def test_validates_vertex_ids(self, small_social_graph):
        index = PrunedLandmarkLabeling().build(small_social_graph)
        with ShardedQueryEngine(index, **WORKER_KWARGS) as engine:
            with pytest.raises(VertexError):
                engine.query_batch([0], [small_social_graph.num_vertices])
            with pytest.raises(VertexError):
                engine.query_batch([-1], [0])

    def test_requires_shared_manager(self, small_social_graph):
        manager = SnapshotManager.from_graph(small_social_graph)
        with pytest.raises(ServingError):
            ShardedQueryEngine(manager, **WORKER_KWARGS)

    def test_closed_engine_rejects_queries(self, path_graph):
        engine = ShardedQueryEngine(
            PrunedLandmarkLabeling().build(path_graph), **WORKER_KWARGS
        )
        engine.close()
        with pytest.raises(ServingError):
            engine.query_batch([0], [1])
        engine.close()  # idempotent


def _calls_until_respawn(engine, call, attempts: int = 200):
    """Results of ``call()``, repeated until the engine has rebuilt its pool.

    A SIGKILLed worker breaks the pool only once the executor notices the
    exit; until then the surviving worker may answer alone, and that answer
    must be right too.
    """
    results = []
    for _ in range(attempts):
        results.append(call())
        if engine.num_respawns:
            return results
        time.sleep(0.01)
    pytest.fail("the pool was never rebuilt after a worker was killed")


class TestWorkerRespawn:
    def test_dead_worker_respawns_and_batch_succeeds(self, small_social_graph):
        """SIGKILLing a worker breaks the pool; a batch that meets the broken
        pool rebuilds it, re-attaches the generation, and still answers
        correctly."""
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=2).build(
            small_social_graph
        )
        metrics = ServerMetrics()
        pairs = np.asarray(
            sample_pairs(small_social_graph, 200, seed=11), dtype=np.int64
        )
        expected = index.distance_batch(pairs[:, 0], pairs[:, 1])
        with ShardedQueryEngine(index, metrics=metrics, **WORKER_KWARGS) as engine:
            # ping() answers with the pids that took its probes; under host
            # load one worker can take both, so only "at least one" holds.
            before = engine.ping()
            assert 1 <= len(before) <= 2
            assert np.array_equal(
                engine.query_batch(pairs[:, 0], pairs[:, 1]), expected
            )
            os.kill(before[0], signal.SIGKILL)
            # The batch that meets the broken pool heals it within the call:
            # pool rebuilt, fresh workers attach the generation by name, the
            # batch retries.  Every batch on the way answers correctly.
            results = _calls_until_respawn(
                engine, lambda: engine.query_batch(pairs[:, 0], pairs[:, 1])
            )
            for result in results:
                assert np.array_equal(result, expected)
            assert engine.num_respawns == 1
            after = engine.ping()
            assert 1 <= len(after) <= 2
            assert before[0] not in after
        stats = metrics.snapshot()
        assert stats["num_worker_respawns"] == 1

    def test_ping_alone_heals_a_broken_pool(self, small_social_graph):
        index = PrunedLandmarkLabeling().build(small_social_graph)
        with ShardedQueryEngine(index, **WORKER_KWARGS) as engine:
            victims = engine.ping()
            for pid in victims:
                os.kill(pid, signal.SIGKILL)
            healed = _calls_until_respawn(engine, engine.ping)[-1]
            assert 1 <= len(healed) <= 2
            assert not set(victims) & set(healed)
            assert engine.num_respawns == 1
            # And the healed pool serves.
            assert engine.query_batch([0, 1], [5, 6]).shape == (2,)

    def test_ping_rejected_after_close(self, path_graph):
        engine = ShardedQueryEngine(
            PrunedLandmarkLabeling().build(path_graph), **WORKER_KWARGS
        )
        engine.close()
        with pytest.raises(ServingError):
            engine.ping()


class TestPublishWhileQuerying:
    def test_workers_never_observe_torn_snapshots(self):
        """Concurrent publishes vs cross-process batches: every batch must be
        internally consistent with exactly one published graph version."""
        chain = [(i, i + 1) for i in range(7)]
        with_edge = Graph(8, chain + [(0, 7)])
        without_edge = Graph(8, chain)
        pair_set = [(0, 7), (0, 6), (0, 5), (1, 7), (2, 7), (7, 0)]
        pairs = np.asarray(pair_set * 12, dtype=np.int64)
        expected_with = PrunedLandmarkLabeling().build(with_edge).distances(pairs)
        expected_without = (
            PrunedLandmarkLabeling().build(without_edge).distances(pairs)
        )
        assert not np.array_equal(expected_with, expected_without)

        manager = SnapshotManager.from_graph(with_edge, shared=True)
        engine = ShardedQueryEngine(manager, **WORKER_KWARGS)
        stop = threading.Event()
        publish_error = []

        def churn():
            present = True
            try:
                while not stop.is_set():
                    if present:
                        manager.remove_edge(0, 7)
                    else:
                        manager.insert_edge(0, 7)
                    present = not present
                    manager.publish()
                    time.sleep(0.002)
            except Exception as exc:  # pragma: no cover - surfaced below
                publish_error.append(exc)

        publisher = threading.Thread(target=churn)
        publisher.start()
        try:
            for _ in range(40):
                result = engine.query_batch(pairs[:, 0], pairs[:, 1])
                matches_with = np.array_equal(result, expected_with)
                matches_without = np.array_equal(result, expected_without)
                assert matches_with or matches_without, (
                    "batch mixed distances from different snapshot versions"
                )
        finally:
            stop.set()
            publisher.join(timeout=30)
            engine.close()
            manager.close()
        assert not publish_error, publish_error
        assert manager.version > 1

    def test_generation_unlinked_after_last_reader_detaches(self, path_graph):
        manager = SnapshotManager.from_graph(path_graph, shared=True)
        first = manager.current.generation
        assert first is not None
        assert _segment_names(first.name)
        # A reader pins the generation across a publish...
        assert first.acquire()
        manager.insert_edge(0, 4)
        manager.publish()
        assert first.retired
        assert not first.unlinked
        assert _segment_names(first.name), "generation vanished under a reader"
        # ...and the last detach reclaims it.
        first.release()
        assert first.unlinked
        assert _segment_names(first.name) == []
        manager.close()

    def test_no_segments_leak_across_publish_cycles(self, path_graph):
        manager = SnapshotManager.from_graph(path_graph, shared=True)
        engine = ShardedQueryEngine(manager, **WORKER_KWARGS)
        generation_names = [manager.current.generation.name]
        try:
            for round_number in range(4):
                manager.insert_edge(0, 2 + round_number % 3)
                manager.publish()
                generation_names.append(manager.current.generation.name)
                engine.query_batch([0, 1, 2, 3, 4], [4, 3, 2, 1, 0])
                # Only the current generation may remain on disk.
                for name in generation_names[:-1]:
                    assert _segment_names(name) == []
                assert _segment_names(generation_names[-1])
        finally:
            engine.close()
            manager.close()
        for name in generation_names:
            assert _segment_names(name) == []


class TestServerIntegration:
    def test_query_server_over_sharded_engine(self, small_social_graph):
        manager = SnapshotManager.from_graph(small_social_graph, shared=True)
        metrics = ServerMetrics()
        engine = ShardedQueryEngine(manager, metrics=metrics, **WORKER_KWARGS)
        pairs = sample_pairs(small_social_graph, 200, seed=9)
        expected = manager.current.engine.query_pairs(pairs)
        try:
            with QueryServer(
                engine, cache=LRUCache(1024), metrics=metrics
            ) as server:
                assert server.snapshot_manager is manager
                result = server.distances(pairs)
                assert np.array_equal(result, expected)
                # Mutations flow through the sharded backend to the manager.
                server.insert_edge(0, small_social_graph.num_vertices - 1)
                server.publish()
                assert manager.version == 2
                assert (
                    server.distance(0, small_social_graph.num_vertices - 1) == 1.0
                )
                stats = server.metrics_snapshot()
                assert stats["num_workers"] >= 1
                assert stats["worker_busy_seconds_total"] > 0.0
        finally:
            engine.close()
            manager.close()
