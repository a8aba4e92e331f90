"""Tests for the asyncio serving front end: protocol, admin plane, drain."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.index import PrunedLandmarkLabeling
from repro.errors import AdmissionError, ServingError, VertexError
from repro.serving import (
    AsyncQueryFrontend,
    BatchQueryEngine,
    LRUCache,
    ServerMetrics,
    SnapshotManager,
)
from tests.conftest import sample_pairs


def run(coroutine):
    """Run one test coroutine on a fresh event loop."""
    return asyncio.run(coroutine)


async def _send_lines(host, port, payload: str):
    """One protocol session: send ``payload``, return the reply lines until EOF."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(payload.encode("utf-8"))
    await writer.drain()
    writer.write_eof()
    lines = []
    while True:
        raw = await reader.readline()
        if not raw:
            break
        lines.append(raw.decode("utf-8").rstrip("\n"))
    writer.close()
    return lines


async def _http_request(host, port, method: str, path: str, body: bytes = b""):
    reader, writer = await asyncio.open_connection(host, port)
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    header, _, payload = raw.partition(b"\r\n\r\n")
    return int(header.split()[1]), payload.decode("utf-8")


@pytest.fixture
def engine(small_social_graph):
    index = PrunedLandmarkLabeling(num_bit_parallel_roots=2).build(small_social_graph)
    return BatchQueryEngine(index)


class TestFrontendQueries:
    def test_wire_replies_match_index(self, engine, small_social_graph):
        pairs = sample_pairs(small_social_graph, 40, seed=5)

        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            await frontend.start_tcp()
            host, port = frontend.tcp_address
            payload = "".join(f"{s} {t}\n" for s, t in pairs) + "QUIT\n"
            lines = await _send_lines(host, port, payload)
            await frontend.stop()
            return lines

        lines = run(scenario())
        assert len(lines) == len(pairs)
        for (s, t), line in zip(pairs, lines):
            expected = engine.index.distance(s, t)
            rendered = "inf" if expected == float("inf") else f"{expected:g}"
            assert line == f"{s}\t{t}\t{rendered}"

    def test_comma_form_and_blank_and_parse_error(self, engine):
        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            await frontend.start_tcp()
            host, port = frontend.tcp_address
            lines = await _send_lines(host, port, "0,5\n\nnot a pair\n9 9\nQUIT\n")
            await frontend.stop()
            return lines

        lines = run(scenario())
        assert lines[0].startswith("0\t5\t")
        assert lines[1].startswith("error: cannot parse query")
        assert lines[2] == "9\t9\t0"

    def test_engine_timeout_answers_error_line(self, engine, monkeypatch):
        """A wedged backend (engine timeout) answers an error line — it must
        not kill the session."""

        def wedged(*_args, **_kwargs):
            raise TimeoutError("engine call did not complete in time")

        monkeypatch.setattr(engine, "query_batch", wedged)

        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            reply = await frontend._handle_line("0 5")
            await frontend.stop()
            return reply

        reply = run(scenario())
        assert reply.startswith("error: engine call")

    def test_out_of_range_vertex_answers_error_line(self, engine):
        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            await frontend.start_tcp()
            host, port = frontend.tcp_address
            lines = await _send_lines(host, port, "0 100000\n-1 0\nQUIT\n")
            await frontend.stop()
            return lines

        lines = run(scenario())
        assert all(line.startswith("error:") for line in lines)

    def test_concurrent_submissions_coalesce(self, engine):
        async def scenario():
            frontend = AsyncQueryFrontend(engine, batch_timeout=0.05)
            await frontend.start()
            futures = [frontend.submit([i], [7 - i]) for i in range(6)]
            results = await asyncio.gather(*futures)
            await frontend.stop()
            return results, frontend.metrics_snapshot()

        results, stats = run(scenario())
        for i, result in enumerate(results):
            assert result[0] == engine.index.distance(i, 7 - i)
        assert stats["num_queries"] == 6
        # Six submits with no awaits in between land in fewer batches.
        assert stats["num_batches"] < stats["num_requests"]

    def test_failed_batch_retries_each_request_and_books_the_group_once(
        self, engine, monkeypatch
    ):
        """A coalesced batch holding one poisoned request: the healthy
        requests are answered on retry, the poisoned one gets its error, and
        the retry group is booked as one batch with one error."""
        original = engine.query_batch

        def poisoned(sources, targets, *args, **kwargs):
            if 13 in np.asarray(sources):
                raise RuntimeError("poisoned source 13")
            return original(sources, targets, *args, **kwargs)

        monkeypatch.setattr(engine, "query_batch", poisoned)

        async def scenario():
            frontend = AsyncQueryFrontend(engine, batch_timeout=0.05)
            await frontend.start()
            futures = [
                frontend.submit([0, 1], [5, 6]),
                frontend.submit([13], [2]),
                frontend.submit([3], [4]),
            ]
            results = await asyncio.gather(*futures, return_exceptions=True)
            await frontend.stop()
            return results, frontend.metrics_snapshot(), frontend.tracer.recent()

        (first, poisoned_reply, last), stats, traces = run(scenario())
        index = engine.index
        assert np.array_equal(first, index.distance_batch([0, 1], [5, 6]))
        assert np.array_equal(last, index.distance_batch([3], [4]))
        assert isinstance(poisoned_reply, RuntimeError)
        assert "poisoned source 13" in str(poisoned_reply)
        assert stats["num_queries"] == 3
        assert stats["num_requests"] == 2
        assert stats["num_batches"] == 1
        assert stats["num_errors"] == 1
        assert stats["verbs"] == {"pair": 3}
        assert [trace["status"] for trace in traces] == ["retried", "retried", "error"]

    def test_submit_requires_start(self, engine):
        frontend = AsyncQueryFrontend(engine)
        with pytest.raises(ServingError):
            frontend.submit([0], [1])

    def test_vertex_validated_at_submission(self, engine):
        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            try:
                with pytest.raises(VertexError):
                    frontend.submit([0], [10**6])
            finally:
                await frontend.stop()

        run(scenario())

    def test_admission_control_rejects_burst(self, engine):
        async def scenario():
            frontend = AsyncQueryFrontend(engine, max_pending=2)
            await frontend.start()
            # No suspension points between submits: the batcher cannot drain,
            # so the third submission must bounce.
            first = frontend.submit([0], [1])
            second = frontend.submit([1], [2])
            with pytest.raises(AdmissionError):
                frontend.submit([2], [3])
            await asyncio.gather(first, second)
            await frontend.stop()
            return frontend.metrics_snapshot()

        stats = run(scenario())
        assert stats["num_rejected"] == 1

    def test_cache_hits_and_invalidation_on_publish(self, small_social_graph):
        async def scenario():
            manager = SnapshotManager.from_graph(small_social_graph)
            cache = LRUCache(256)
            frontend = AsyncQueryFrontend(manager, cache=cache)
            await frontend.start()
            before = await frontend.distance(0, 5)
            again = await frontend.distance(0, 5)
            hits_after_repeat = cache.stats.hits
            reply = await frontend.apply_mutation("add", (0, 199))
            assert "pending publish" in reply
            await frontend.publish()
            refreshed = await frontend.distance(0, 199)
            await frontend.stop()
            return before, again, hits_after_repeat, refreshed, len(cache)

        before, again, hits, refreshed, cached = run(scenario())
        assert before == again
        assert hits >= 1
        assert refreshed == 1.0
        # The publish cleared the warm entries; only post-publish pairs remain.
        assert cached == 1


class TestStatsCommands:
    def test_stats_and_stats_json_lines(self, engine):
        async def scenario():
            frontend = AsyncQueryFrontend(engine, cache=LRUCache(16))
            await frontend.start()
            await frontend.start_tcp()
            host, port = frontend.tcp_address
            lines = await _send_lines(host, port, "0 5\nSTATS\nstats json\nQUIT\n")
            await frontend.stop()
            return lines

        lines = run(scenario())
        assert lines[0].startswith("0\t5\t")
        for payload in (lines[1], lines[2]):
            parsed = json.loads(payload)
            assert parsed["num_queries"] == 1
            assert "cache_hit_rate" in parsed
            assert "num_connections" in parsed


class TestHttpAdminPlane:
    def test_metrics_healthz_publish_and_errors(self, small_social_graph):
        async def scenario():
            manager = SnapshotManager.from_graph(small_social_graph)
            frontend = AsyncQueryFrontend(manager)
            await frontend.start()
            await frontend.start_tcp()
            await frontend.start_http()
            host, port = frontend.tcp_address
            http_host, http_port = frontend.http_address
            await _send_lines(host, port, "0 5\nadd 0 199\nQUIT\n")

            metrics = await _http_request(http_host, http_port, "GET", "/metrics")
            health = await _http_request(http_host, http_port, "GET", "/healthz")
            published = await _http_request(http_host, http_port, "POST", "/publish")
            missing = await _http_request(http_host, http_port, "GET", "/nope")
            wrong_verb = await _http_request(http_host, http_port, "POST", "/metrics")
            version = manager.version
            await frontend.stop()
            return metrics, health, published, missing, wrong_verb, version

        metrics, health, published, missing, wrong_verb, version = run(scenario())

        status, body = metrics
        assert status == 200
        assert body.endswith("\n")
        samples = {}
        for line in body.splitlines():
            if line.startswith("# HELP") or line.startswith("# TYPE"):
                continue
            name, _, value = line.partition(" ")
            samples[name] = value
        assert float(samples["repro_pll_num_queries"]) == 1.0
        assert "repro_pll_latency_p99_ms" in samples
        assert "# TYPE repro_pll_num_queries counter" in body

        status, body = health
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["snapshot_version"] == 1

        status, body = published
        assert status == 200
        assert json.loads(body) == {"published": True, "version": 2}
        assert version == 2

        assert missing[0] == 404
        assert wrong_verb[0] == 405

    def test_over_limit_header_line_answers_400(self, engine):
        """A header line over the 64 KiB stream limit must get a 400, not an
        unhandled task exception and a silent close."""

        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            await frontend.start_http()
            http_host, http_port = frontend.http_address
            reader, writer = await asyncio.open_connection(http_host, http_port)
            writer.write(
                b"GET /healthz HTTP/1.1\r\nX-Huge: " + b"a" * 70_000 + b"\r\n\r\n"
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(-1), timeout=10)
            writer.close()
            await frontend.stop()
            return raw

        raw = run(scenario())
        assert raw.startswith(b"HTTP/1.1 400")

    def test_publish_without_writable_backend_conflicts(self, engine):
        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            await frontend.start_http()
            http_host, http_port = frontend.http_address
            result = await _http_request(http_host, http_port, "POST", "/publish")
            await frontend.stop()
            return result

        status, body = run(scenario())
        assert status == 409
        assert "error" in json.loads(body)


class TestGracefulShutdownUnderLoad:
    def test_every_client_gets_reply_or_clean_error_and_no_leaks(
        self, small_social_graph
    ):
        """Drain with in-flight queries: every client sees a response or a
        clean ``error:`` line, never a hang or a torn reply."""
        num_clients = 24
        queries_per_client = 30

        manager = SnapshotManager.from_graph(small_social_graph)
        outcomes = []

        async def client(host, port, index):
            reader, writer = await asyncio.open_connection(host, port)
            replies, errors = 0, 0
            torn = False
            try:
                for number in range(queries_per_client):
                    s = (index + number) % small_social_graph.num_vertices
                    t = (index * 7 + number) % small_social_graph.num_vertices
                    writer.write(f"{s} {t}\n".encode())
                    await writer.drain()
                    raw = await reader.readline()
                    if not raw:
                        break  # clean EOF from the drain
                    line = raw.decode().rstrip("\n")
                    if not line.endswith("\n") and not raw.endswith(b"\n"):
                        torn = True
                        break
                    if line.startswith("error:"):
                        errors += 1
                    else:
                        replies += 1
            except ConnectionError:
                pass
            finally:
                writer.close()
            outcomes.append((replies, errors, torn))

        async def scenario():
            frontend = AsyncQueryFrontend(
                manager, batch_timeout=0.005, metrics=ServerMetrics()
            )
            await frontend.start()
            await frontend.start_tcp()
            host, port = frontend.tcp_address
            tasks = [
                asyncio.create_task(client(host, port, index))
                for index in range(num_clients)
            ]
            # Let the load build, then drain while queries are in flight.
            await asyncio.sleep(0.1)
            assert frontend.num_connections == num_clients
            await frontend.stop()
            await asyncio.wait_for(asyncio.gather(*tasks), timeout=30)
            return frontend.metrics_snapshot()

        stats = asyncio.run(scenario())

        assert len(outcomes) == num_clients
        assert all(not torn for _replies, _errors, torn in outcomes)
        # The drain happened mid-stream: real work was answered, and nobody
        # was left hanging (gather returned within the timeout).
        assert sum(replies for replies, _errors, _torn in outcomes) > 0
        assert stats["num_queries"] > 0

    def test_drain_completes_with_idle_admin_connection(self, engine):
        """An admin connection that never sends a request must not hold the
        drain hostage (Python >= 3.12.1 waits for handlers in wait_closed)."""

        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            await frontend.start_http()
            http_host, http_port = frontend.http_address
            reader, writer = await asyncio.open_connection(http_host, http_port)
            try:
                await asyncio.wait_for(frontend.stop(), timeout=15)
                # The idle connection was force-closed by the drain.
                assert (await reader.read()) == b""
            finally:
                writer.close()

        run(scenario())

    def test_stop_is_idempotent_and_rejects_new_submissions(self, engine):
        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            result = await frontend.distance(0, 5)
            await frontend.stop()
            await frontend.stop()  # idempotent
            with pytest.raises(ServingError):
                frontend.submit([0], [1])
            return result

        assert run(scenario()) == engine.index.distance(0, 5)


class TestServeOrchestration:
    def test_serve_runs_until_requested_stop(self, engine):
        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            ready = asyncio.Event()
            observed = {}

            def on_ready(front):
                observed["tcp"] = front.tcp_address
                observed["http"] = front.http_address
                ready.set()

            serve_task = asyncio.create_task(
                frontend.serve(
                    "127.0.0.1",
                    0,
                    http_port=0,
                    install_signal_handlers=False,
                    ready=on_ready,
                )
            )
            await asyncio.wait_for(ready.wait(), timeout=10)
            host, port = observed["tcp"]
            lines = await _send_lines(host, port, "0 5\nQUIT\n")
            frontend.request_stop()
            await asyncio.wait_for(serve_task, timeout=30)
            return lines, observed

        lines, observed = run(scenario())
        assert lines[0].startswith("0\t5\t")
        assert observed["http"] is not None


class TestTracesAndDebugSurface:
    def test_traces_endpoint_returns_recorded_traces(self, engine):
        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            await frontend.start_tcp()
            await frontend.start_http()
            host, port = frontend.tcp_address
            http_host, http_port = frontend.http_address
            await _send_lines(host, port, "0 5\n1 7\nQUIT\n")
            all_traces = await _http_request(http_host, http_port, "GET", "/traces")
            limited = await _http_request(
                http_host, http_port, "GET", "/traces?limit=1"
            )
            wire = await _send_lines(host, port, "TRACES\nQUIT\n")
            await frontend.stop()
            return all_traces, limited, wire

        (status, body), (lim_status, lim_body), wire = run(scenario())
        assert status == 200
        payload = json.loads(body)
        assert payload["num_recorded"] == 2
        assert len(payload["recent"]) == 2
        names = [s["name"] for s in payload["recent"][0]["spans"]]
        for expected in ("queue", "batch", "kernel", "reply"):
            assert expected in names
        assert lim_status == 200
        assert len(json.loads(lim_body)["recent"]) == 1
        # The wire TRACES command serves the same payload shape.
        assert json.loads(wire[0])["num_recorded"] == 2

    def test_traces_rejects_negative_limit(self, engine):
        """Regression: ``limit=-N`` used to slice off the N oldest traces and
        answer 200, like a valid request."""

        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            await frontend.start_http()
            http_host, http_port = frontend.http_address
            await frontend.distance(0, 5)
            await frontend.distance(1, 7)
            negative = await _http_request(
                http_host, http_port, "GET", "/traces?limit=-1"
            )
            zero = await _http_request(http_host, http_port, "GET", "/traces?limit=0")
            await frontend.stop()
            return negative, zero

        (status, body), (zero_status, zero_body) = run(scenario())
        assert status == 400
        assert "non-negative" in json.loads(body)["error"]
        assert zero_status == 200
        assert json.loads(zero_body)["recent"] == []

    def test_debug_threads_dumps_all_stacks(self, engine):
        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            await frontend.start_http()
            http_host, http_port = frontend.http_address
            result = await _http_request(
                http_host, http_port, "GET", "/debug/threads"
            )
            await frontend.stop()
            return result

        status, body = run(scenario())
        assert status == 200
        assert "--- thread" in body
        assert "MainThread" in body
        # The dump shows real stack frames, not just thread names.
        assert "File \"" in body

    def test_debug_profile_returns_pstats_report(self, engine):
        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            await frontend.start_http()
            http_host, http_port = frontend.http_address
            ok = await _http_request(
                http_host, http_port, "GET", "/debug/profile?seconds=0.05"
            )
            bad = await _http_request(
                http_host, http_port, "GET", "/debug/profile?seconds=bogus"
            )
            negative = await _http_request(
                http_host, http_port, "GET", "/debug/profile?seconds=-1"
            )
            await frontend.stop()
            return ok, bad, negative

        ok, bad, negative = run(scenario())
        assert ok[0] == 200
        assert "cumulative" in ok[1]  # the pstats sort header
        assert bad[0] == 400
        assert negative[0] == 400

    def test_debug_profile_concurrent_runs_conflict(self, engine):
        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            await frontend.start_http()
            http_host, http_port = frontend.http_address
            first = asyncio.create_task(
                _http_request(
                    http_host, http_port, "GET", "/debug/profile?seconds=0.3"
                )
            )
            await asyncio.sleep(0.1)  # first profile is mid-flight
            second = await _http_request(
                http_host, http_port, "GET", "/debug/profile?seconds=0.05"
            )
            first_result = await first
            await frontend.stop()
            return first_result, second

        first, second = run(scenario())
        assert first[0] == 200
        assert second[0] == 409

    def test_metrics_exposes_index_health_and_histograms(self, small_social_graph):
        async def scenario():
            manager = SnapshotManager.from_graph(small_social_graph)
            frontend = AsyncQueryFrontend(manager)
            await frontend.start()
            await frontend.start_tcp()
            await frontend.start_http()
            host, port = frontend.tcp_address
            http_host, http_port = frontend.http_address
            await _send_lines(host, port, "0 5\nadd 0 199\nQUIT\n")
            status, body = await _http_request(http_host, http_port, "GET", "/metrics")
            await frontend.stop()
            return status, body

        status, body = run(scenario())
        assert status == 200
        assert "repro_pll_index_label_entries " in body
        assert "repro_pll_index_bit_parallel_roots " in body
        # One pending shadow mutation since the last publish.
        assert "repro_pll_index_dirty_vertices 1" in body
        # True histogram series for end-to-end latency and every stage.
        assert "# TYPE repro_pll_latency_seconds histogram" in body
        assert 'repro_pll_latency_seconds_bucket{le="+Inf"} 1' in body
        for stage in ("queue", "batch", "kernel", "cache_probe"):
            assert f"# TYPE repro_pll_stage_{stage}_seconds histogram" in body


class TestOneToManyWire:
    def test_one_to_many_wire_session(self, engine):
        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            await frontend.start_tcp()
            host, port = frontend.tcp_address
            lines = await _send_lines(
                host, port, "many 0 1 2\none-to-many,0,3\nmany 0\nQUIT\n"
            )
            snapshot = frontend.metrics_snapshot()
            await frontend.stop()
            return lines, snapshot

        lines, snapshot = run(scenario())
        index = engine.index
        for line, t in zip(lines[:3], (1, 2, 3)):
            expected = index.distance(0, t)
            rendered = "inf" if expected == float("inf") else f"{expected:g}"
            assert line == f"0\t{t}\t{rendered}"
        assert lines[3].startswith("error: cannot parse query")
        assert snapshot["verbs"]["one_to_many"] == 3

    def test_query_one_to_many_coroutine_matches_batch(self, engine):
        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            try:
                return await frontend.query_one_to_many(0, [1, 2, 3])
            finally:
                await frontend.stop()

        distances = run(scenario())
        expected = engine.index.distance_batch([0, 0, 0], [1, 2, 3])
        assert list(distances) == list(expected)

    def test_one_to_many_admission_control(self, engine):
        """Fan-outs share the max_pending budget instead of bypassing it."""

        async def scenario():
            frontend = AsyncQueryFrontend(engine, max_pending=2)
            await frontend.start()
            # No suspension points between submits: the batcher cannot drain,
            # so the fan-out arriving third must bounce like a pair would.
            first = frontend.submit([0], [1])
            second = frontend.submit([1], [2])
            with pytest.raises(AdmissionError):
                await frontend.query_one_to_many(0, [1, 2, 3])
            await asyncio.gather(first, second)
            # Budget released again: the same fan-out is admitted now.
            distances = await frontend.query_one_to_many(0, [1, 2, 3])
            snapshot = frontend.metrics_snapshot()
            await frontend.stop()
            return distances, snapshot

        distances, snapshot = run(scenario())
        assert distances.shape == (3,)
        assert snapshot["num_rejected"] == 1

    def test_event_loop_lag_gauge_present(self, engine):
        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            # Let the lag sampler complete at least zero-or-one cycles; the
            # gauge must exist (and be finite) even before the first sample.
            snapshot = frontend.metrics_snapshot()
            await frontend.stop()
            return snapshot

        snapshot = run(scenario())
        assert "event_loop_lag_seconds" in snapshot
        assert snapshot["event_loop_lag_seconds"] >= 0.0
