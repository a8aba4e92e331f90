"""Serving glue for the health engine: default rules, monitor, shadow canary.

``repro.obs.health`` is deliberately serving-agnostic; this module binds it to
the serving stack three ways:

* :func:`default_alert_rules` — the rule set every front end ships with,
  written against the shared name registry (``repro.obs.names``) so the rules
  can never drift from the exposition.
* :class:`HealthMonitor` — a daemon thread that periodically feeds
  ``metrics_snapshot()`` into a :class:`~repro.obs.health.HealthEngine`.  A
  plain thread works identically under the asyncio front end and the
  blocking facade over it (snapshots are safe to take from any thread), and
  keeps rule evaluation off the event loop entirely.
* :class:`ShadowCanary` — online correctness re-verification: a sampled
  fraction of served batches is recomputed through the scalar baseline path
  (:meth:`PrunedLandmarkLabeling.distance`, the paper's Algorithm 2) on a
  bounded background thread, and every divergence increments
  ``shadow_mismatches_total``.  A wrong distance served by an optimised
  kernel becomes a counter, an alert, and — through the benchmark baselines'
  exact-zero gate — a CI failure.
"""

from __future__ import annotations

import json
import queue
import random
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.obs import names
from repro.obs.health import BurnRateRule, DeltaRule, HealthEngine, ThresholdRule
from repro.serving.engine import BatchQueryEngine

__all__ = [
    "HealthMonitor",
    "ShadowCanary",
    "alerts_wire_reply",
    "augment_snapshot",
    "default_alert_rules",
]

#: Severity vocabulary (Google SRE: pages wake a human, tickets wait for one).
SEVERITY_PAGE = "page"
SEVERITY_TICKET = "ticket"


def default_alert_rules(
    *,
    latency_slo_seconds: float = 0.025,
    latency_objective: float = 0.99,
    burn_factor: float = 14.4,
) -> Tuple[object, ...]:
    """The serving rule set: one rule per failure mode the dashboard tracks.

    ``latency_slo_seconds`` must coincide with a histogram bucket bound
    (default 25 ms, a :data:`DEFAULT_LATENCY_BUCKETS` edge) — the burn-rate
    rule counts "good" requests from the cumulative bucket at that bound.
    """
    return (
        # The tentpole rule: multi-window error-budget burn over the PR 6
        # latency histogram.  At objective 0.99 a burn of 14.4 exhausts a
        # 30-day budget in ~2 days — the canonical page-fast threshold.
        BurnRateRule(
            name="LatencySLOBurnRate",
            severity=SEVERITY_PAGE,
            histogram=names.LATENCY_SECONDS,
            objective=latency_objective,
            threshold_seconds=latency_slo_seconds,
            short_window_seconds=60.0,
            long_window_seconds=300.0,
            burn_factor=burn_factor,
            for_seconds=0.0,
            description=(
                f"requests slower than {latency_slo_seconds * 1000:g} ms are "
                f"burning the {latency_objective:.0%} SLO budget at >= "
                f"{burn_factor:g}x in both the 1 m and 5 m windows"
            ),
        ),
        DeltaRule(
            name="ErrorRateHigh",
            severity=SEVERITY_PAGE,
            numerator=(names.NUM_ERRORS, names.NUM_REJECTED),
            denominator=(names.NUM_REQUESTS, names.NUM_REJECTED),
            window_seconds=60.0,
            threshold=0.05,
            for_seconds=30.0,
            description="errors + admission rejections above 5% of requests over 1 m",
        ),
        ThresholdRule(
            name="CacheHitRateCollapse",
            severity=SEVERITY_TICKET,
            metric=names.CACHE_HIT_RATE,
            threshold=0.10,
            op="<",
            guard_metric=names.NUM_QUERIES,
            guard_min=1000.0,
            for_seconds=60.0,
            description="hot-pair cache hit rate below 10% with meaningful traffic",
        ),
        ThresholdRule(
            name="EventLoopLagHigh",
            severity=SEVERITY_TICKET,
            metric=names.EVENT_LOOP_LAG_SECONDS,
            threshold=0.25,
            for_seconds=10.0,
            description="asyncio event-loop scheduling lag above 250 ms",
        ),
        # Mean pause over the window, a deliberate proxy for pause p99: the
        # lock-free GcPauseMonitor exports totals only (adding per-pause
        # histograms to a gc callback is not worth the risk — see its
        # docstring), and a 50 ms *mean* pause already implies a far worse
        # tail.
        DeltaRule(
            name="GcPauseHigh",
            severity=SEVERITY_TICKET,
            numerator=(names.GC_PAUSE_SECONDS_TOTAL,),
            denominator=(names.GC_PAUSES_TOTAL,),
            window_seconds=60.0,
            threshold=0.05,
            for_seconds=30.0,
            description="mean stop-the-world GC pause above 50 ms over 1 m",
        ),
        ThresholdRule(
            name="DirtyVertexRatioHigh",
            severity=SEVERITY_TICKET,
            metric=names.INDEX_DIRTY_VERTICES,
            denominator=names.INDEX_NUM_VERTICES,
            threshold=0.25,
            for_seconds=60.0,
            description=(
                "more than 25% of vertices dirtied since the last snapshot "
                "publish — incremental updates are outrunning publishes"
            ),
        ),
        DeltaRule(
            name="ShadowMismatch",
            severity=SEVERITY_PAGE,
            numerator=(names.SHADOW_MISMATCHES_TOTAL,),
            window_seconds=300.0,
            threshold=0.0,
            for_seconds=0.0,
            description=(
                "the shadow canary saw a served distance disagree with the "
                "scalar baseline within the last 5 m"
            ),
        ),
    )


class HealthMonitor:
    """Background evaluation of a rule set against live metrics snapshots.

    A daemon thread calls ``snapshot_fn()`` every ``interval_seconds`` and
    folds the result into a :class:`HealthEngine`.  The same object works
    with ``QueryServer.metrics_snapshot`` and
    ``AsyncQueryFrontend.metrics_snapshot``; both are safe to call from a
    foreign thread.  :meth:`tick` is public so tests (and benchmarks) can
    drive evaluation deterministically with an explicit clock instead of
    sleeping.
    """

    def __init__(
        self,
        snapshot_fn: Callable[[], Mapping[str, object]],
        *,
        rules: Optional[Sequence[object]] = None,
        interval_seconds: float = 5.0,
        horizon_seconds: float = 900.0,
        logger: Optional[object] = None,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError("health monitor interval must be positive")
        self.engine = HealthEngine(
            default_alert_rules() if rules is None else rules,
            horizon_seconds=horizon_seconds,
            logger=logger,
        )
        self.interval_seconds = float(interval_seconds)
        self._snapshot_fn = snapshot_fn
        self._logger = logger
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # Monotone tick counter; written by whichever thread drives tick().
        # Plain int writes are atomic under the GIL and this is test/debug
        # telemetry, so it deliberately takes no lock.
        self.num_ticks = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "HealthMonitor":
        """Start the evaluation thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop_event.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-pll-health", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the evaluation thread (idempotent, safe before start)."""
        self._stop_event.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "HealthMonitor":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval_seconds):
            self.tick()

    # ------------------------------------------------------------------ #
    # Evaluation and reporting
    # ------------------------------------------------------------------ #

    def tick(self, now: Optional[float] = None) -> List[str]:
        """Evaluate every rule against a fresh snapshot; returns transitions."""
        try:
            snapshot = self._snapshot_fn()
        except Exception as exc:
            # A failing snapshot source must not kill the monitor thread;
            # surface it as an event and keep the previous alert states.
            if self._logger is not None:
                try:
                    self._logger.event("health_snapshot_error", error=repr(exc))
                except Exception:
                    pass
            return []
        events = self.engine.observe(
            snapshot, time.monotonic() if now is None else now
        )
        self.num_ticks += 1
        return events

    def active_alerts(self) -> List[Dict[str, str]]:
        """Pending/firing alerts (the ``ALERTS`` exposition label sets)."""
        return self.engine.active_alerts()

    def alert_gauges(self) -> Dict[str, float]:
        """``alerts_firing`` / ``alerts_pending`` rollup gauges."""
        return self.engine.alert_gauges()

    def alerts_payload(self) -> Dict[str, object]:
        """The ``/alerts`` endpoint body."""
        return self.engine.alerts_payload(time.monotonic())


def alerts_wire_reply(health: Optional[HealthMonitor]) -> str:
    """The ``alerts`` wire-verb / ``GET /alerts`` JSON body.

    Shared by all three front ends so the reply shape cannot drift between
    them (the same reason ``protocol.py`` exists).  A front end without a
    monitor attached reports ``enabled: false`` rather than erroring.
    """
    if health is None:
        payload: Dict[str, object] = {
            "enabled": False,
            "rules": [],
            "firing": [],
            "pending": [],
            "recent": [],
        }
    else:
        payload = health.alerts_payload()
    return json.dumps(payload, sort_keys=True)


def augment_snapshot(
    stats: Dict[str, float],
    *,
    health: Optional[HealthMonitor] = None,
    shadow: Optional["ShadowCanary"] = None,
) -> Dict[str, float]:
    """Merge health-engine gauges and canary counters into one snapshot.

    Called by both front ends' ``metrics_snapshot``; the ``alerts`` list key
    is only present when something is pending/firing, mirroring how the
    renderer treats other optional structured keys.
    """
    if shadow is not None:
        stats.update(shadow.stats())
    if health is not None:
        stats.update(health.alert_gauges())
        active = health.active_alerts()
        if active:
            stats["alerts"] = active  # type: ignore[assignment]
    return stats


#: One queued verification item; ``None`` tells the canary worker to exit.
_WorkItem = Optional[Tuple[object, np.ndarray, np.ndarray, np.ndarray]]


class ShadowCanary:
    """Sampled online re-verification of served distances against the baseline.

    A fraction ``sample_rate`` of served batches is copied onto a bounded
    queue; a single daemon worker replays each pair through the scalar
    label-intersection path (``index.distance`` — the reference
    implementation every kernel is tested against) and counts divergences.
    Exact float equality is the right comparison: unweighted PLL distances
    are integral hop counts (or ``inf`` for disconnected pairs), so any
    difference at all is a wrong answer, not rounding.

    Back-pressure: when the queue is full the batch is *dropped* and counted
    (``shadow_dropped_total``) — the canary samples correctness, it must
    never stall serving.

    Lock discipline (reprolint RL001) — the RNG and counters are shared
    between the submitting (batcher) thread and the worker:

        _rng: guarded-by _lock
        _num_batches: guarded-by _lock
        _num_pairs: guarded-by _lock
        _num_mismatches: guarded-by _lock
        _num_dropped: guarded-by _lock
    """

    def __init__(
        self,
        sample_rate: float,
        *,
        seed: Optional[int] = None,
        max_queue: int = 64,
        max_pairs_per_batch: int = 1024,
        logger: Optional[object] = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("shadow sample rate must be within [0, 1]")
        if max_queue <= 0:
            raise ValueError("shadow queue capacity must be positive")
        if max_pairs_per_batch <= 0:
            raise ValueError("shadow max pairs per batch must be positive")
        self.sample_rate = float(sample_rate)
        self.max_pairs_per_batch = int(max_pairs_per_batch)
        self._logger = logger
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._num_batches = 0
        self._num_pairs = 0
        self._num_mismatches = 0
        self._num_dropped = 0
        self._queue: "queue.Queue[_WorkItem]" = queue.Queue(maxsize=max_queue)
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "ShadowCanary":
        """Start the verification worker (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._run, name="repro-pll-shadow", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Drain outstanding work and stop the worker (idempotent)."""
        thread = self._thread
        if thread is not None and thread.is_alive():
            self._queue.put(None)
            thread.join(timeout=10.0)
        self._thread = None

    def __enter__(self) -> "ShadowCanary":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def flush(self) -> None:
        """Block until every queued batch has been verified (for tests/benches)."""
        self._queue.join()

    # ------------------------------------------------------------------ #
    # Submission (batcher thread / event loop)
    # ------------------------------------------------------------------ #

    def maybe_submit(
        self,
        engine: BatchQueryEngine,
        sources: np.ndarray,
        targets: np.ndarray,
        distances: np.ndarray,
    ) -> bool:
        """Sample this served batch for re-verification; never blocks.

        Returns ``True`` when the batch was enqueued.  The arrays are copied
        before queueing: the batcher reuses/releases its buffers, and the
        verification happens later on another thread.
        """
        if self.sample_rate <= 0.0 or self._thread is None:
            return False
        with self._lock:
            sampled = self._rng.random() < self.sample_rate
        if not sampled:
            return False
        return self.submit(engine, sources, targets, distances)

    def submit(
        self,
        engine: BatchQueryEngine,
        sources: np.ndarray,
        targets: np.ndarray,
        distances: np.ndarray,
    ) -> bool:
        """Unconditionally enqueue one served batch (sampling already decided)."""
        limit = self.max_pairs_per_batch
        item = (
            engine,
            np.array(sources[:limit], dtype=np.int64, copy=True),
            np.array(targets[:limit], dtype=np.int64, copy=True),
            np.array(distances[:limit], dtype=np.float64, copy=True),
        )
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            with self._lock:
                self._num_dropped += 1
            return False
        return True

    # ------------------------------------------------------------------ #
    # Verification (worker thread)
    # ------------------------------------------------------------------ #

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                engine, sources, targets, served = item
                self._verify(engine, sources, targets, served)
            except Exception as exc:
                if self._logger is not None:
                    try:
                        self._logger.event("shadow_error", error=repr(exc))
                    except Exception:
                        pass
            finally:
                self._queue.task_done()

    def _verify(
        self,
        engine: BatchQueryEngine,
        sources: np.ndarray,
        targets: np.ndarray,
        served: np.ndarray,
    ) -> None:
        index = engine.index
        mismatches = []
        for s, t, answer in zip(sources, targets, served):
            expected = float(index.distance(int(s), int(t)))
            if expected != float(answer):
                mismatches.append((int(s), int(t), float(answer), expected))
        with self._lock:
            self._num_batches += 1
            self._num_pairs += int(sources.shape[0])
            self._num_mismatches += len(mismatches)
        if mismatches and self._logger is not None:
            try:
                self._logger.event(
                    "shadow_mismatch",
                    count=len(mismatches),
                    examples=[
                        {"s": s, "t": t, "served": got, "expected": want}
                        for s, t, got, want in mismatches[:5]
                    ],
                )
            except Exception:
                pass

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, float]:
        """Canary counters, named for direct merge into a metrics snapshot."""
        with self._lock:
            return {
                names.SHADOW_BATCHES_TOTAL: float(self._num_batches),
                names.SHADOW_PAIRS_TOTAL: float(self._num_pairs),
                names.SHADOW_MISMATCHES_TOTAL: float(self._num_mismatches),
                names.SHADOW_DROPPED_TOTAL: float(self._num_dropped),
            }
