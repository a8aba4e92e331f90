"""End-to-end request tracing: spans, trace ring buffers, slow-query log.

When a serving P99 spikes, a latency *histogram* says how bad it is but not
where the time went — queue wait, the coalescing window, the cache probe, the
kernel.  This module follows every request through its whole life instead:

* A **trace id** is minted at admission (:meth:`TraceRecorder.start`), before
  the request ever touches the batching queue, so a request can be correlated
  across log lines from the moment it exists.
* **Spans** are recorded as the request moves through the pipeline — queue
  wait, the coalescing window, the cache probe, the kernel (one span object
  stitched into every trace the batch served), and the reply write.  A span
  is just a name, a duration and a few attributes; recording one is an
  object construction and a list append, so instrumentation is cheap enough
  to leave on in production (see ``benchmarks/bench_observability.py`` for
  the measured overhead).
* Completed traces land in a **bounded ring buffer** of recent traces, and —
  when a slow threshold is configured (``serve --slow-ms``) — traces over the
  threshold land in a second ring buffer and are emitted through the
  structured **slow-query log**.  The async admin plane serves both rings as
  JSON on ``GET /traces``.
* :class:`StructuredLogger` is the JSON logging helper behind
  ``serve --log-json``: one JSON object per line (timestamp, event name,
  component, free-form fields), shared by the blocking facade, the asyncio
  front end and the CLI so operational events are machine-parseable across
  the whole stack.

:class:`NullTraceRecorder` is the no-op drop-in (``start`` returns ``None``,
everything else does nothing) used to measure instrumentation overhead and to
switch tracing off entirely.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import deque
from typing import IO, Dict, Iterable, List, Optional

__all__ = [
    "Span",
    "Trace",
    "TraceRecorder",
    "NullTraceRecorder",
    "StructuredLogger",
    "make_trace_id",
]

#: Per-process prefix so trace ids stay unique across server restarts.
_TRACE_PREFIX = f"{os.getpid() & 0xFFFF:04x}{int(time.time()) & 0xFFFF:04x}"
_TRACE_COUNTER = itertools.count(1)


def make_trace_id() -> str:
    """Mint one process-unique trace id (16 hex characters, counter based).

    Deliberately *not* cryptographic: minting must cost nanoseconds because it
    happens on every admission, and trace ids only need to be unique enough to
    correlate log lines and ``/traces`` entries.
    """
    return f"{_TRACE_PREFIX}{next(_TRACE_COUNTER) & 0xFFFFFFFF:08x}"


class Span:
    """One timed stage of a request's life: a name, a duration, attributes.

    Attributes are free-form (pair counts, cache hits); they ride
    along into the JSON rendering.  Spans are value objects shared freely
    between the traces of a coalesced batch — every request in a batch gets
    the *same* kernel span objects, which is exactly the semantics
    (they shared that engine call).
    """

    __slots__ = ("name", "seconds", "attrs")

    def __init__(self, name: str, seconds: float, **attrs) -> None:
        self.name = name
        self.seconds = seconds
        self.attrs = attrs

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "name": self.name,
            "ms": self.seconds * 1000.0,
        }
        record.update(self.attrs)
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.seconds * 1000.0:.3f}ms, {self.attrs})"


class Trace:
    """One request's trace: an id minted at admission plus its recorded spans."""

    __slots__ = ("trace_id", "started_at", "num_pairs", "spans", "total_seconds", "status")

    def __init__(self, trace_id: str, num_pairs: int) -> None:
        self.trace_id = trace_id
        #: Wall-clock admission time (``time.time``), for log correlation.
        self.started_at = time.time()
        self.num_pairs = num_pairs
        self.spans: List[Span] = []
        self.total_seconds = 0.0
        self.status = "ok"

    def add_span(self, name: str, seconds: float, **attrs) -> None:
        """Record one stage span (clamped non-negative against clock skew)."""
        self.spans.append(Span(name, seconds if seconds > 0.0 else 0.0, **attrs))

    def extend(self, spans: Iterable[Span]) -> None:
        """Attach already-built spans (the batch-shared cache/kernel spans)."""
        self.spans.extend(spans)

    def as_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "started_at": self.started_at,
            "num_pairs": self.num_pairs,
            "total_ms": self.total_seconds * 1000.0,
            "status": self.status,
            "spans": [span.as_dict() for span in self.spans],
        }


class TraceRecorder:
    """Thread-safe sink for completed traces: recent ring, slow ring, slow log.

    Parameters
    ----------
    capacity:
        Bound on the recent-trace ring buffer (oldest evicted first).
    slow_threshold_ms:
        Traces whose end-to-end time meets the threshold are additionally
        kept in the slow ring and emitted through ``logger`` as a
        ``slow_query`` event.  ``None`` (the default) disables the slow log.
    slow_capacity:
        Bound on the slow-trace ring buffer.
    logger:
        Optional :class:`StructuredLogger` for slow-query events.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = 256,
        *,
        slow_threshold_ms: Optional[float] = None,
        slow_capacity: int = 128,
        logger: Optional["StructuredLogger"] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("trace buffer capacity must be positive")
        self._lock = threading.Lock()
        self._recent: "deque[Trace]" = deque(maxlen=int(capacity))
        self._slow: "deque[Trace]" = deque(maxlen=int(slow_capacity))
        self.slow_threshold_ms = (
            float(slow_threshold_ms) if slow_threshold_ms is not None else None
        )
        self._logger = logger
        self._num_recorded = 0
        self._num_slow = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def start(self, num_pairs: int) -> Optional[Trace]:
        """Mint a trace id and open a trace for one admitted request."""
        return Trace(make_trace_id(), num_pairs)

    def record(self, trace: Optional[Trace], total_seconds: float, *, status: str = "ok") -> None:
        """Complete ``trace`` and file it into the ring buffers.

        ``total_seconds`` is the client-observed end-to-end time (admission to
        reply).  Slow traces are duplicated into the slow ring and logged.
        """
        if trace is None:
            return
        trace.total_seconds = total_seconds
        trace.status = status
        slow = (
            self.slow_threshold_ms is not None
            and total_seconds * 1000.0 >= self.slow_threshold_ms
        )
        with self._lock:
            self._recent.append(trace)
            self._num_recorded += 1
            if slow:
                self._slow.append(trace)
                self._num_slow += 1
        if slow and self._logger is not None:
            self._logger.event("slow_query", **trace.as_dict())

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    @property
    def num_recorded(self) -> int:
        """Total traces recorded (monotonic, not bounded by the ring)."""
        with self._lock:
            return self._num_recorded

    @property
    def num_slow(self) -> int:
        """Total traces that crossed the slow threshold (monotonic)."""
        with self._lock:
            return self._num_slow

    def recent(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Most recent traces as dicts, newest first."""
        with self._lock:
            traces = list(self._recent)
        traces.reverse()
        if limit is not None:
            traces = traces[: int(limit)]
        return [trace.as_dict() for trace in traces]

    def slow(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Traces over the slow threshold as dicts, newest first."""
        with self._lock:
            traces = list(self._slow)
        traces.reverse()
        if limit is not None:
            traces = traces[: int(limit)]
        return [trace.as_dict() for trace in traces]

    def snapshot(self, *, limit: Optional[int] = None) -> Dict[str, object]:
        """The ``GET /traces`` / wire ``TRACES`` payload: both rings plus config."""
        return {
            "slow_threshold_ms": self.slow_threshold_ms,
            "num_recorded": self.num_recorded,
            "num_slow": self.num_slow,
            "recent": self.recent(limit),
            "slow": self.slow(limit),
        }


class NullTraceRecorder(TraceRecorder):
    """Tracing switched off: ``start`` returns ``None``, everything else no-ops.

    The instrumented code paths guard span construction on the trace being
    non-``None``, so with this recorder the per-request tracing cost is one
    method call — the baseline the overhead benchmark compares against.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def start(self, num_pairs: int) -> Optional[Trace]:
        return None

    def record(self, trace, total_seconds: float, *, status: str = "ok") -> None:
        return None


class StructuredLogger:
    """One-JSON-object-per-line event logger (the ``--log-json`` helper).

    Every event line carries ``ts`` (epoch seconds), ``event`` and
    ``component`` plus the caller's fields, so the whole serving stack —
    blocking facade, asyncio front end, CLI — emits logs a
    pipeline can parse without per-module regexes.  Writes are serialised
    under a lock (lines from concurrent threads never interleave) and
    non-JSON-serialisable field values degrade to ``repr`` instead of
    raising: logging must never take the serving path down.
    """

    def __init__(
        self, stream: Optional[IO[str]] = None, *, component: str = "serving"
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._component = component
        self._lock = threading.Lock()

    def child(self, component: str) -> "StructuredLogger":
        """A logger sharing this stream (and lock) under another component tag."""
        clone = StructuredLogger.__new__(StructuredLogger)
        clone._stream = self._stream
        clone._component = component
        clone._lock = self._lock
        return clone

    def event(self, event: str, **fields) -> None:
        """Emit one event line; never raises."""
        record = {"ts": time.time(), "event": event, "component": self._component}
        record.update(fields)
        try:
            line = json.dumps(record, sort_keys=True, default=repr)
        except (TypeError, ValueError):  # pragma: no cover - repr default covers this
            line = json.dumps({"ts": record["ts"], "event": event, "component": self._component})
        try:
            with self._lock:
                self._stream.write(line + "\n")
                self._stream.flush()
        except Exception:  # pragma: no cover - a closed stream must not kill serving
            pass
