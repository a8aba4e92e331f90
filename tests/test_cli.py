"""Tests for the command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.graph.io import write_edge_list


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])


class TestBuildAndQuery:
    def test_build_then_query(self, tmp_path, small_social_graph, capsys):
        edge_path = tmp_path / "graph.txt"
        write_edge_list(small_social_graph, edge_path)
        index_path = tmp_path / "index.npz"

        assert main(
            ["build", str(edge_path), "-o", str(index_path), "--bit-parallel", "2"]
        ) == 0
        assert index_path.exists()
        out = capsys.readouterr().out
        assert "indexed" in out

        assert main(["query", str(index_path), "0,5", "3,7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        source, target, distance = lines[0].split("\t")
        assert (source, target) == ("0", "5")
        assert distance not in ("", "inf")

    def test_build_raw_layout_and_mmap_query(
        self, tmp_path, small_social_graph, capsys
    ):
        """A non-.npz output selects the raw layout, which --mmap loads zero-copy."""
        edge_path = tmp_path / "graph.txt"
        write_edge_list(small_social_graph, edge_path)
        index_path = tmp_path / "index.pll"

        assert main(["build", str(edge_path), "-o", str(index_path)]) == 0
        capsys.readouterr()
        assert main(["query", "--mmap", str(index_path), "0,5", "3,7"]) == 0
        mmap_lines = capsys.readouterr().out.strip().splitlines()
        assert main(["query", str(index_path), "0,5", "3,7"]) == 0
        heap_lines = capsys.readouterr().out.strip().splitlines()
        assert mmap_lines == heap_lines
        assert len(mmap_lines) == 2

    def test_query_mmap_rejects_npz(self, tmp_path, small_social_graph, capsys):
        edge_path = tmp_path / "graph.txt"
        write_edge_list(small_social_graph, edge_path)
        index_path = tmp_path / "index.npz"
        main(["build", str(edge_path), "-o", str(index_path)])
        capsys.readouterr()
        assert main(["query", "--mmap", str(index_path), "0,5"]) == 2
        assert "memory-mapped" in capsys.readouterr().err

    def test_query_bad_pair_format(self, tmp_path, small_social_graph, capsys):
        edge_path = tmp_path / "graph.txt"
        write_edge_list(small_social_graph, edge_path)
        index_path = tmp_path / "index.npz"
        main(["build", str(edge_path), "-o", str(index_path)])
        capsys.readouterr()
        assert main(["query", str(index_path), "0-5-7"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "0-5-7" in err

    def test_query_non_integer_pair(self, tmp_path, small_social_graph, capsys):
        edge_path = tmp_path / "graph.txt"
        write_edge_list(small_social_graph, edge_path)
        index_path = tmp_path / "index.npz"
        main(["build", str(edge_path), "-o", str(index_path)])
        capsys.readouterr()
        assert main(["query", str(index_path), "a,b"]) == 2
        assert "must be integers" in capsys.readouterr().err

    def test_query_out_of_range_vertex(self, tmp_path, small_social_graph, capsys):
        edge_path = tmp_path / "graph.txt"
        write_edge_list(small_social_graph, edge_path)
        index_path = tmp_path / "index.npz"
        main(["build", str(edge_path), "-o", str(index_path)])
        capsys.readouterr()
        assert main(["query", str(index_path), "0,999999"]) == 2
        err = capsys.readouterr().err
        assert "out of range" in err and "999999" in err

    def test_query_missing_index_file(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "missing.npz"), "0,1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_query_vertex_id_beyond_int64(self, tmp_path, small_social_graph, capsys):
        edge_path = tmp_path / "graph.txt"
        write_edge_list(small_social_graph, edge_path)
        index_path = tmp_path / "index.npz"
        main(["build", str(edge_path), "-o", str(index_path)])
        capsys.readouterr()
        huge = str(10**30)
        assert main(["query", str(index_path), f"0,{huge}"]) == 2
        assert "does not fit 64 bits" in capsys.readouterr().err


class TestServeCommand:
    @pytest.fixture
    def index_path(self, tmp_path, small_social_graph):
        edge_path = tmp_path / "graph.txt"
        write_edge_list(small_social_graph, edge_path)
        path = tmp_path / "index.npz"
        main(["build", str(edge_path), "-o", str(path), "--bit-parallel", "2"])
        return path

    def test_serve_stdio_session(self, index_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("0 5\n0,5\nSTATS\nQUIT\n"))
        assert main(["serve", str(index_path)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("0\t5\t")
        assert lines[1] == lines[0]
        assert '"num_queries"' in lines[2]
        assert "serving" in captured.err
        assert "served" in captured.err

    def test_serve_rejects_removed_sharding_flags(self, index_path, capsys):
        # One process serves: the multi-process flags are unknown arguments
        # to argparse (exit 2), never silently ignored.
        for flags in (["--workers", "2"], ["--min-shard-size", "4"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", str(index_path), *flags])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_sigterm_unwinds_and_restores_handler(self, index_path, monkeypatch):
        """SIGTERM during serve raises SystemExit(143), so the caller's
        finally blocks run (perfbench writes its --spans/--peak files from
        one), and the caller's own SIGTERM handler is back afterwards."""
        import signal
        import time

        import repro.cli as cli

        def terminated(*_args, **_kwargs):
            signal.raise_signal(signal.SIGTERM)
            time.sleep(1.0)  # the handler raises before this returns
            return 0

        monkeypatch.setattr(cli, "_serve_front_end", terminated)

        def caller_handler(signum, frame):
            raise AssertionError("serve's own SIGTERM handler was bypassed")

        previous = signal.signal(signal.SIGTERM, caller_handler)
        try:
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", str(index_path)])
            assert excinfo.value.code == 143
            assert signal.getsignal(signal.SIGTERM) is caller_handler
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_serve_missing_index(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nope.npz")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_cache_disabled(self, index_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("0 5\nQUIT\n"))
        assert main(["serve", str(index_path), "--cache-size", "0"]) == 0
        assert capsys.readouterr().out.startswith("0\t5\t")

    def test_serve_kernel_rejects_unknown_name(self, index_path, capsys):
        # There is one batch kernel: serve takes no --kernel choice at all.
        for name in ("vulkan", "narrow"):
            with pytest.raises(SystemExit):
                main(["serve", str(index_path), "--kernel", name])

    def test_serve_requires_exactly_one_input(self, index_path, tmp_path, capsys):
        assert main(["serve"]) == 2
        assert "exactly one input" in capsys.readouterr().err
        edge_path = tmp_path / "g.txt"
        edge_path.write_text("0 1\n")
        assert main(["serve", str(index_path), "--edge-list", str(edge_path)]) == 2
        assert "exactly one input" in capsys.readouterr().err

    def test_serve_edge_list_with_mutations(self, tmp_path, capsys, monkeypatch):
        import io

        edge_path = tmp_path / "g.txt"
        edge_path.write_text("0 1\n1 2\n2 3\n3 4\n")
        mutations_path = tmp_path / "muts.txt"
        mutations_path.write_text(
            "# evolve the path graph\nremove 2 3\nadd 0 4\n"
        )
        monkeypatch.setattr("sys.stdin", io.StringIO("2 3\n0 4\nQUIT\n"))
        assert main([
            "serve",
            "--edge-list", str(edge_path),
            "--mutations", str(mutations_path),
        ]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        # The deletion is live: 2-3 now routes 2-1-0-4-3 over the new edge.
        assert lines[0] == "2\t3\t4"
        assert lines[1] == "0\t4\t1"     # insertion is live
        assert "replayed" in captured.err
        assert "1 insertions, 1 deletions" in captured.err

    def test_serve_live_mutation_session(self, tmp_path, capsys, monkeypatch):
        import io

        edge_path = tmp_path / "g.txt"
        edge_path.write_text("0 1\n1 2\n")
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("0 2\nremove 1 2\npublish\n0 2\nQUIT\n"),
        )
        assert main(["serve", "--edge-list", str(edge_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "0\t2\t2"
        assert lines[1].startswith("ok remove")
        assert lines[2] == "ok published version=2"
        assert lines[3] == "0\t2\tinf"

    def test_serve_mutations_require_edge_list(self, index_path, tmp_path, capsys):
        mutations_path = tmp_path / "muts.txt"
        mutations_path.write_text("add 0 1\n")
        assert main([
            "serve", str(index_path), "--mutations", str(mutations_path)
        ]) == 2
        assert "no writable shadow index" in capsys.readouterr().err

    def test_serve_missing_mutations_file(self, tmp_path, capsys):
        edge_path = tmp_path / "g.txt"
        edge_path.write_text("0 1\n")
        assert main([
            "serve",
            "--edge-list", str(edge_path),
            "--mutations", str(tmp_path / "nope.txt"),
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_async_flag_is_accepted_and_changes_nothing(
        self, index_path, capsys, monkeypatch
    ):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("0 5\nQUIT\n"))
        assert main(["serve", str(index_path), "--async"]) == 0
        assert capsys.readouterr().out.startswith("0\t5\t")

    def test_serve_http_port_requires_port(self, index_path, capsys):
        assert main(["serve", str(index_path), "--http-port", "0"]) == 2
        assert "requires --port" in capsys.readouterr().err

    def test_serve_warm_requires_cache(self, index_path, tmp_path, capsys):
        warm_path = tmp_path / "warm.txt"
        warm_path.write_text("0 5\n")
        assert main([
            "serve", str(index_path),
            "--warm", str(warm_path),
            "--cache-size", "0",
        ]) == 2
        assert "--cache-size" in capsys.readouterr().err

    def test_serve_warm_missing_file(self, index_path, tmp_path, capsys):
        assert main([
            "serve", str(index_path), "--warm", str(tmp_path / "nope.txt")
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_warm_replays_before_listening(
        self, index_path, tmp_path, capsys, monkeypatch
    ):
        import io

        warm_path = tmp_path / "warm.txt"
        warm_path.write_text("# hot pairs\n0 5\n0,5\n3 7\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("0 5\nQUIT\n"))
        assert main(["serve", str(index_path), "--warm", str(warm_path)]) == 0
        captured = capsys.readouterr()
        assert "warmed cache from" in captured.err
        assert "3 pairs replayed" in captured.err
        # The served query hits the warmed cache.
        assert captured.out.splitlines()[0].startswith("0\t5\t")

    def test_serve_log_json_and_slow_query_log(self, index_path, capsys, monkeypatch):
        import io
        import json

        monkeypatch.setattr("sys.stdin", io.StringIO("0 5\nTRACES\nQUIT\n"))
        assert main([
            "serve", str(index_path), "--log-json", "--slow-ms", "0"
        ]) == 0
        captured = capsys.readouterr()
        # Every stderr line is one JSON event — no human-readable prose left.
        events = [json.loads(line) for line in captured.err.splitlines() if line]
        names = [event["event"] for event in events]
        assert "serve_start" in names
        assert "listening" in names
        assert "serve_done" in names
        # --slow-ms 0 makes every request slow; the slow log fired.
        slow = [e for e in events if e["event"] == "slow_query"]
        assert slow and slow[0]["component"] == "slow-query"
        assert "trace_id" in slow[0]
        # The TRACES wire command serves the ring over stdio too.
        payload = json.loads(captured.out.splitlines()[1])
        assert payload["num_recorded"] == 1
        assert payload["slow_threshold_ms"] == 0.0

    def _stats_from_session(self, capsys):
        import json

        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        return json.loads(lines[-1])

    def test_serve_gc_monitor_enables_and_tears_down(
        self, index_path, capsys, monkeypatch
    ):
        import gc
        import io

        callbacks_before = len(gc.callbacks)
        monkeypatch.setattr("sys.stdin", io.StringIO("0 5\nSTATS\nQUIT\n"))
        assert main(["serve", str(index_path), "--gc-monitor"]) == 0
        # The pause series only exist while the hook is installed.
        stats = self._stats_from_session(capsys)
        assert "gc_pauses_total" in stats
        assert "gc_pause_seconds_total" in stats
        # The process-wide gc callback must not leak out of the serve call.
        assert len(gc.callbacks) == callbacks_before

    def test_serve_without_gc_monitor_has_no_pause_series(
        self, index_path, capsys, monkeypatch
    ):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("STATS\nQUIT\n"))
        assert main(["serve", str(index_path)]) == 0
        # "Not measured" rather than an eternally-zero counter.
        assert "gc_pauses_total" not in self._stats_from_session(capsys)

    def test_serve_shadow_sample_session(self, index_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("0 5\n1 6\nSTATS\nQUIT\n"))
        assert main(["serve", str(index_path), "--shadow-sample", "1.0"]) == 0
        stats = self._stats_from_session(capsys)
        assert stats["shadow_mismatches_total"] == 0.0
        assert "shadow_pairs_total" in stats
        # The health engine rides along at its default interval.
        assert "alerts_firing" in stats

    def test_serve_health_interval_zero_disables_engine(
        self, index_path, capsys, monkeypatch
    ):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("STATS\nQUIT\n"))
        assert main(["serve", str(index_path), "--health-interval", "0"]) == 0
        stats = self._stats_from_session(capsys)
        assert "alerts_firing" not in stats

    def test_serve_alerts_wire_verb_over_stdio(
        self, index_path, capsys, monkeypatch
    ):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("ALERTS\nQUIT\n"))
        assert main(["serve", str(index_path)]) == 0
        report = self._stats_from_session(capsys)
        assert report["enabled"] is True
        assert {rule["alertname"] for rule in report["rules"]} >= {
            "LatencySLOBurnRate",
            "ShadowMismatch",
        }

    def test_serve_shadow_sample_rejects_out_of_range(self, index_path, capsys):
        assert main(["serve", str(index_path), "--shadow-sample", "1.5"]) == 2
        assert "--shadow-sample" in capsys.readouterr().err
        assert main(["serve", str(index_path), "--shadow-sample", "-0.5"]) == 2

    def test_serve_health_interval_rejects_negative(self, index_path, capsys):
        assert main(["serve", str(index_path), "--health-interval", "-1"]) == 2
        assert "--health-interval" in capsys.readouterr().err

    def test_serve_slow_ms_without_log_json_keeps_human_messages(
        self, index_path, capsys, monkeypatch
    ):
        import io
        import json

        monkeypatch.setattr("sys.stdin", io.StringIO("0 5\nQUIT\n"))
        assert main(["serve", str(index_path), "--slow-ms", "0"]) == 0
        captured = capsys.readouterr()
        assert "serving" in captured.err  # human announcements stay
        slow_lines = [
            json.loads(line)
            for line in captured.err.splitlines()
            if line.startswith("{")
        ]
        assert any(event["event"] == "slow_query" for event in slow_lines)

    def test_serve_async_session_over_subprocess(self, tmp_path):
        """End to end: --async serves TCP + HTTP admin plane, SIGTERM drains."""
        import json
        import os
        import re
        import signal
        import socket
        import subprocess
        import sys as _sys

        edge_path = tmp_path / "g.txt"
        edge_path.write_text("0 1\n1 2\n2 3\n")
        # Warm the (0, 3) pair at version 1 (distance 3), then replay a
        # mutation file whose publish makes it 1 — the served answer must be
        # the post-replay one, not the stale warmed entry.
        warm_path = tmp_path / "warm.txt"
        warm_path.write_text("0 3\n")
        mutations_path = tmp_path / "muts.txt"
        mutations_path.write_text("add 0 3\npublish\n")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                _sys.executable, "-m", "repro.cli", "serve",
                "--edge-list", str(edge_path),
                "--async", "--port", "0", "--http-port", "0",
                "--warm", str(warm_path),
                "--mutations", str(mutations_path),
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            port = http_port = None
            for _ in range(50):
                line = proc.stderr.readline()
                match = re.search(r"listening on 127\.0\.0\.1:(\d+) \(async\)", line)
                if match:
                    port = int(match.group(1))
                match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
                if match:
                    http_port = int(match.group(1))
                    break
            assert port is not None and http_port is not None

            with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
                conn.settimeout(10)
                conn.sendall(b"0 3\nremove 0 3\npublish\n0 3\n")
                data = b""
                while data.count(b"\n") < 4:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    data += chunk
                replies = data.decode().splitlines()
                # Post-replay distance, not the stale warmed version-1 entry.
                assert replies[0] == "0\t3\t1"
                assert replies[1].startswith("ok remove")
                assert replies[2] == "ok published version=3"
                assert replies[3] == "0\t3\t3"

                with socket.create_connection(
                    ("127.0.0.1", http_port), timeout=10
                ) as admin:
                    admin.settimeout(10)
                    admin.sendall(
                        b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                        b"Connection: close\r\n\r\n"
                    )
                    raw = b""
                    while True:
                        chunk = admin.recv(4096)
                        if not chunk:
                            break
                        raw += chunk
                health = json.loads(raw.partition(b"\r\n\r\n")[2])
                assert health["status"] == "ok"
                assert health["snapshot_version"] == 3

                # Graceful drain: the open connection sees EOF, exit code 0.
                proc.send_signal(signal.SIGTERM)
                assert conn.recv(4096) == b""
            assert proc.wait(timeout=30) == 0
            assert "served" in proc.stderr.read()
        finally:
            if proc.poll() is None:  # pragma: no cover - only on test failure
                proc.kill()
                proc.wait(timeout=10)


class TestDatasetsCommand:
    def test_lists_builtin_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "gnutella" in out and "hollywood" in out

    def test_size_class_filter(self, capsys):
        assert main(["datasets", "--size-class", "large"]) == 0
        out = capsys.readouterr().out
        assert "hollywood" in out
        assert "gnutella" not in out


class TestExperimentCommand:
    def test_table4_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "table4.csv"
        code = main(
            [
                "experiment",
                "table4",
                "--datasets",
                "gnutella",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        assert csv_path.exists()
        out = capsys.readouterr().out
        assert "Table 4" in out

    def test_table5_command(self, capsys):
        code = main(["experiment", "table5", "--datasets", "notredame"])
        assert code == 0
        assert "Table 5" in capsys.readouterr().out

    def test_ablation_pruning_command(self, capsys):
        code = main(["experiment", "ablation-pruning", "--datasets", "notredame"])
        assert code == 0
        assert "pruning" in capsys.readouterr().out

    def test_seed_flag_is_reproducible(self, capsys):
        assert (
            main(["experiment", "table4", "--datasets", "gnutella", "--seed", "7"]) == 0
        )
        first = capsys.readouterr().out
        assert (
            main(["experiment", "table4", "--datasets", "gnutella", "--seed", "7"]) == 0
        )
        assert capsys.readouterr().out == first


class TestBenchCommand:
    """The ``repro-pll bench`` surface, run against a fake suite directory."""

    FAKE = (
        "from repro.obs import bench_result\n"
        "def collect_results(*, smoke=False):\n"
        "    return bench_result(\n"
        "        'kernels',\n"
        "        [{'name': 'qps', 'value': %s, 'higher_is_better': True}],\n"
        "        smoke=smoke,\n"
        "    )\n"
    )

    @pytest.fixture
    def fake_bench_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        return tmp_path

    def _write_suite(self, directory, value):
        (directory / "bench_kernels.py").write_text(self.FAKE % value)

    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("kernels", "async", "table1", "ablations"):
            assert name in out

    def test_bench_run_writes_schema_valid_results(
        self, fake_bench_dir, tmp_path, capsys
    ):
        from repro.obs import read_result

        self._write_suite(fake_bench_dir, "100.0")
        out_dir = tmp_path / "results"
        code = main(
            ["bench", "run", "--smoke", "--suite", "kernels", "--out", str(out_dir)]
        )
        assert code == 0
        result = read_result(out_dir / "BENCH_kernels.json")
        assert result.suite == "kernels"
        assert result.fingerprint.smoke
        assert "running kernels [smoke]" in capsys.readouterr().out

    def test_bench_run_unknown_suite_exits_2(self, fake_bench_dir, capsys):
        assert main(["bench", "run", "--suite", "bogus"]) == 2
        assert "unknown bench suite" in capsys.readouterr().err

    def test_bench_run_bad_repeat_exits_2(self, capsys):
        assert main(["bench", "run", "--repeat", "0"]) == 2
        assert "--repeat" in capsys.readouterr().err

    def test_bench_compare_detects_injected_slowdown(
        self, fake_bench_dir, tmp_path, capsys
    ):
        self._write_suite(fake_bench_dir, "1000.0")
        base = tmp_path / "base"
        assert main(["bench", "run", "--suite", "kernels", "--out", str(base)]) == 0
        self._write_suite(fake_bench_dir, "500.0")  # inject a 2x slowdown
        cur = tmp_path / "cur"
        assert main(["bench", "run", "--suite", "kernels", "--out", str(cur)]) == 0
        capsys.readouterr()

        assert main(["bench", "compare", str(base), str(cur)]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        # A run compared against itself must be clean.
        assert main(["bench", "compare", str(base), str(base)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_bench_compare_tolerance_flag_widens_band(
        self, fake_bench_dir, tmp_path, capsys
    ):
        self._write_suite(fake_bench_dir, "1000.0")
        base = tmp_path / "base"
        main(["bench", "run", "--suite", "kernels", "--out", str(base)])
        self._write_suite(fake_bench_dir, "500.0")
        cur = tmp_path / "cur"
        main(["bench", "run", "--suite", "kernels", "--out", str(cur)])
        capsys.readouterr()
        # The multiplicative band admits throughput down to 1000/(1+1.5) = 400.
        assert main(
            ["bench", "compare", str(base), str(cur), "--tolerance", "1.5"]
        ) == 0

    def test_bench_compare_missing_path_exits_2(self, tmp_path, capsys):
        code = main(
            ["bench", "compare", str(tmp_path / "a"), str(tmp_path / "b")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bench_report_renders_trend(self, fake_bench_dir, tmp_path, capsys):
        self._write_suite(fake_bench_dir, "100.0")
        hist = tmp_path / "hist"
        main(["bench", "run", "--suite", "kernels", "--out", str(hist / "r1")])
        main(["bench", "run", "--suite", "kernels", "--out", str(hist / "r2")])
        capsys.readouterr()
        assert main(["bench", "report", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "== kernels (2 run(s)) ==" in out

    def test_bench_report_missing_dir_exits_2(self, tmp_path, capsys):
        assert main(["bench", "report", str(tmp_path / "none")]) == 2
        assert "error" in capsys.readouterr().err

    def test_bench_scrape_bad_url_exits_2(self, capsys):
        assert main(["bench", "scrape", "127.0.0.1:1/metrics"]) == 2
        assert "error" in capsys.readouterr().err
