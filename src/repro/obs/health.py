"""Declarative health rules over metrics snapshots, with alert state machine.

PR 6 (tracing, histograms) and PR 9 (benchmark telemetry, resource gauges)
made the server *observable*; nothing in-process ever judged the signals.
This module closes the loop: a small rule language evaluated against
successive :meth:`ServerMetrics.snapshot` dictionaries, with the
Prometheus-style ``pending → firing → resolved`` alert lifecycle (a rule must
hold its breach for a ``for``-duration before it pages).

Three rule shapes cover the serving dashboard:

* :class:`ThresholdRule` — compare one gauge (optionally a ratio of two
  gauges) from the *latest* snapshot against a bound.  Example: cache
  hit-rate collapse, event-loop lag.
* :class:`DeltaRule` — compare the *windowed increase* of counters (again
  optionally a ratio) against a bound.  Example: error rate over the last
  minute, shadow-canary mismatches.
* :class:`BurnRateRule` — the Google-SRE multi-window burn rate over a
  latency histogram: the fraction of recent requests slower than the SLO
  threshold, divided by the error budget ``1 - objective``, evaluated over a
  short *and* a long window; the alert condition requires both to exceed the
  burn factor, which pages fast on a cliff yet ignores brief blips.

Rules return ``None`` — *insufficient data*, treated as "not breached" — when
their inputs are missing or their window is not yet covered, so a freshly
started server never fires spuriously.

Everything here is stdlib-only and serving-agnostic: snapshots are plain
mappings, time is an injected monotonic clock, and the serving glue
(background evaluation thread, default rule set) lives in
``repro.serving.alerts``.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import names

__all__ = [
    "AlertState",
    "BurnRateRule",
    "DeltaRule",
    "HealthEngine",
    "SnapshotWindow",
    "ThresholdRule",
]

#: Alert lifecycle states (Prometheus ``alertstate`` vocabulary).
STATE_OK = "ok"
STATE_PENDING = "pending"
STATE_FIRING = "firing"

#: Comparison operators a rule may use against its threshold.
_OPERATORS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda value, bound: value > bound,
    ">=": lambda value, bound: value >= bound,
    "<": lambda value, bound: value < bound,
    "<=": lambda value, bound: value <= bound,
}


def _compare(op: str, value: float, bound: float) -> bool:
    try:
        return _OPERATORS[op](value, bound)
    except KeyError:
        raise ValueError(f"unknown comparison operator {op!r}") from None


def _numeric(snapshot: Mapping[str, object], key: str) -> Optional[float]:
    value = snapshot.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


class SnapshotWindow:
    """Bounded history of ``(monotonic_time, snapshot)`` pairs.

    Backs the windowed rules: :meth:`delta` and :meth:`histogram_delta`
    subtract the snapshot taken at least ``window_seconds`` ago from the
    latest one.  When the history does not yet *cover* the window (server
    younger than the window, or observation gaps), they return ``None``
    rather than extrapolating — a half-covered error-rate window must not
    page anyone.

    Not thread safe on its own; :class:`HealthEngine` holds its lock around
    every call, the same contract :class:`~repro.serving.metrics.Histogram`
    has with ``ServerMetrics``.
    """

    def __init__(self, horizon_seconds: float = 900.0) -> None:
        if horizon_seconds <= 0:
            raise ValueError("snapshot window horizon must be positive")
        self.horizon_seconds = float(horizon_seconds)
        self._entries: Deque[Tuple[float, Mapping[str, object]]] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, now: float, snapshot: Mapping[str, object]) -> None:
        """Record one snapshot, evicting entries beyond the horizon."""
        self._entries.append((now, snapshot))
        cutoff = now - self.horizon_seconds
        # Keep one entry at/just beyond the horizon so the longest window
        # stays covered instead of flapping to "insufficient data".
        while len(self._entries) >= 2 and self._entries[1][0] <= cutoff:
            self._entries.popleft()

    def latest(self) -> Optional[Mapping[str, object]]:
        """The most recent snapshot, or ``None`` before the first append."""
        return self._entries[-1][1] if self._entries else None

    def _window_edges(
        self, window_seconds: float
    ) -> Optional[Tuple[Mapping[str, object], Mapping[str, object]]]:
        """(old, new) snapshots spanning >= ``window_seconds``, else ``None``."""
        if not self._entries:
            return None
        now, newest = self._entries[-1]
        cutoff = now - window_seconds
        old: Optional[Mapping[str, object]] = None
        for timestamp, snapshot in self._entries:
            if timestamp <= cutoff:
                old = snapshot
            else:
                break
        if old is None:
            return None
        return old, newest

    def value(self, key: str) -> Optional[float]:
        """The named gauge from the latest snapshot (``None`` when absent)."""
        latest = self.latest()
        if latest is None:
            return None
        return _numeric(latest, key)

    def delta(self, key: str, window_seconds: float) -> Optional[float]:
        """Increase of a counter over the last ``window_seconds``.

        Clamped at zero so a counter reset (process restart mid-window)
        reads as "no increase" rather than a huge negative spike.
        """
        edges = self._window_edges(window_seconds)
        if edges is None:
            return None
        old, new = edges
        before = _numeric(old, key)
        after = _numeric(new, key)
        if after is None:
            return None
        if before is None:
            before = 0.0
        return max(after - before, 0.0)

    def histogram_delta(
        self, key: str, window_seconds: float
    ) -> Optional[Tuple[List[Tuple[float, float]], float]]:
        """Windowed increase of one histogram: ``(cumulative buckets, count)``.

        Buckets are ``(le_bound, cumulative_increase)`` over the window; the
        second element is the total observation count increase.  ``None``
        when either edge lacks the histogram or the window is uncovered.
        """
        edges = self._window_edges(window_seconds)
        if edges is None:
            return None
        buckets_then = _histogram_buckets(edges[0], key)
        buckets_now = _histogram_buckets(edges[1], key)
        if buckets_now is None:
            return None
        then_by_bound: Dict[float, float] = dict(buckets_then or ())
        deltas = [
            (bound, max(cumulative - then_by_bound.get(bound, 0.0), 0.0))
            for bound, cumulative in buckets_now
        ]
        count_then = _histogram_count(edges[0], key) or 0.0
        count_now = _histogram_count(edges[1], key)
        if count_now is None:
            return None
        return deltas, max(count_now - count_then, 0.0)


def _histogram_entry(
    snapshot: Mapping[str, object], key: str
) -> Optional[Mapping[str, object]]:
    histograms = snapshot.get("histograms")
    if not isinstance(histograms, Mapping):
        return None
    entry = histograms.get(key)
    return entry if isinstance(entry, Mapping) else None


def _histogram_buckets(
    snapshot: Mapping[str, object], key: str
) -> Optional[List[Tuple[float, float]]]:
    entry = _histogram_entry(snapshot, key)
    if entry is None:
        return None
    buckets = entry.get("buckets")
    if not isinstance(buckets, Sequence):
        return None
    return [(float(bound), float(cumulative)) for bound, cumulative in buckets]


def _histogram_count(snapshot: Mapping[str, object], key: str) -> Optional[float]:
    entry = _histogram_entry(snapshot, key)
    if entry is None:
        return None
    count = entry.get("count")
    if isinstance(count, bool) or not isinstance(count, (int, float)):
        return None
    return float(count)


@dataclass(frozen=True)
class ThresholdRule:
    """Latest-snapshot gauge (or gauge ratio) compared against a bound.

    ``value = snapshot[metric]``, or ``snapshot[metric] /
    snapshot[denominator]`` when a denominator is named (zero denominator →
    insufficient data).  ``guard_metric`` gates evaluation entirely: until
    ``snapshot[guard_metric] >= guard_min`` the rule reports no data, which
    keeps e.g. a cache hit-rate rule quiet before meaningful traffic.
    """

    name: str
    severity: str
    metric: str
    threshold: float
    op: str = ">"
    denominator: Optional[str] = None
    guard_metric: Optional[str] = None
    guard_min: float = 0.0
    for_seconds: float = 0.0
    description: str = ""

    def evaluate(self, window: SnapshotWindow) -> Optional[float]:
        if self.guard_metric is not None:
            guard = window.value(self.guard_metric)
            if guard is None or guard < self.guard_min:
                return None
        value = window.value(self.metric)
        if value is None:
            return None
        if self.denominator is not None:
            denominator = window.value(self.denominator)
            if denominator is None or denominator <= 0:
                return None
            value /= denominator
        return value

    def breached(self, value: float) -> bool:
        return _compare(self.op, value, self.threshold)


@dataclass(frozen=True)
class DeltaRule:
    """Windowed counter increase (or increase ratio) compared against a bound.

    ``numerator`` and ``denominator`` are tuples of counter names whose
    windowed increases are summed; an empty denominator means the raw summed
    increase is the value.  A zero denominator increase with a non-empty
    denominator yields 0.0 (no traffic → no error rate), not missing data.
    """

    name: str
    severity: str
    numerator: Tuple[str, ...]
    threshold: float
    denominator: Tuple[str, ...] = ()
    window_seconds: float = 60.0
    op: str = ">"
    for_seconds: float = 0.0
    description: str = ""

    def evaluate(self, window: SnapshotWindow) -> Optional[float]:
        total = 0.0
        seen = False
        for key in self.numerator:
            delta = window.delta(key, self.window_seconds)
            if delta is not None:
                total += delta
                seen = True
        if not seen:
            return None
        if not self.denominator:
            return total
        denominator = 0.0
        for key in self.denominator:
            delta = window.delta(key, self.window_seconds)
            if delta is not None:
                denominator += delta
        if denominator <= 0:
            return 0.0
        return total / denominator

    def breached(self, value: float) -> bool:
        return _compare(self.op, value, self.threshold)


@dataclass(frozen=True)
class BurnRateRule:
    """Multi-window error-budget burn rate over a latency histogram.

    Per window: ``slow_fraction = 1 - (observations <= threshold_seconds) /
    observations``, ``burn = slow_fraction / (1 - objective)``.  The rule's
    value is the *minimum* of the short- and long-window burns, so the breach
    condition (``value >= burn_factor``) holds only when **both** windows
    burn — the standard SRE construction: the long window filters blips, the
    short window makes resolution fast once the cliff ends.

    ``threshold_seconds`` must be one of the histogram's bucket bounds (the
    cumulative count at that bound is exact); mismatches raise at
    construction via :meth:`validate_bounds` when the caller checks, or
    evaluate to ``None`` at runtime when the bound is absent.
    """

    name: str
    severity: str
    histogram: str
    objective: float
    threshold_seconds: float
    short_window_seconds: float = 60.0
    long_window_seconds: float = 300.0
    burn_factor: float = 14.4
    for_seconds: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError("SLO objective must be strictly between 0 and 1")
        if self.short_window_seconds >= self.long_window_seconds:
            raise ValueError("short burn window must be shorter than the long window")

    def validate_bounds(self, bounds: Sequence[float]) -> None:
        """Assert ``threshold_seconds`` is one of the histogram's bucket bounds."""
        if not any(abs(b - self.threshold_seconds) <= 1e-12 for b in bounds):
            raise ValueError(
                f"SLO threshold {self.threshold_seconds!r}s is not a bucket bound "
                f"of histogram {self.histogram!r}; the burn rate needs the exact "
                "cumulative count at the threshold"
            )

    def _window_burn(
        self, window: SnapshotWindow, window_seconds: float
    ) -> Optional[float]:
        delta = window.histogram_delta(self.histogram, window_seconds)
        if delta is None:
            return None
        buckets, count = delta
        if count <= 0:
            return None
        good = None
        for bound, cumulative in buckets:
            if abs(bound - self.threshold_seconds) <= 1e-12:
                good = cumulative
                break
        if good is None:
            return None
        slow_fraction = max(1.0 - good / count, 0.0)
        return slow_fraction / (1.0 - self.objective)

    def evaluate(self, window: SnapshotWindow) -> Optional[float]:
        short = self._window_burn(window, self.short_window_seconds)
        long = self._window_burn(window, self.long_window_seconds)
        if short is None or long is None:
            return None
        return min(short, long)

    def breached(self, value: float) -> bool:
        return value >= self.burn_factor


@dataclass
class AlertState:
    """Mutable lifecycle record the engine keeps per rule."""

    state: str = STATE_OK
    since: float = 0.0
    value: Optional[float] = None

    def as_dict(self, now: float) -> Dict[str, object]:
        payload: Dict[str, object] = {"alertstate": self.state}
        if self.state != STATE_OK:
            # Ages in seconds; key names deliberately stay outside the
            # RL008 metric-name grammar (these are payload fields, not series).
            payload["age"] = max(now - self.since, 0.0)
        if self.value is not None:
            payload["value"] = self.value
        return payload


@dataclass(frozen=True)
class _Transition:
    rule_name: str
    severity: str
    event: str
    value: Optional[float]
    held_seconds: float


class HealthEngine:
    """Evaluates a rule set against successive snapshots; tracks lifecycles.

    Lock discipline (reprolint RL001) — the history window and all state
    records are mutated through method calls the checker cannot see writes
    for, so they are declared:

        _window: guarded-by _lock
        _states: guarded-by _lock
        _recent: guarded-by _lock

    :meth:`observe` collects lifecycle transitions under the lock but emits
    the structured-log events only after releasing it, so a slow or
    re-entrant log sink can never stall snapshot readers.

    Time is always the caller's monotonic ``now`` — the engine never reads a
    clock itself, which makes the state machine exactly testable.
    """

    def __init__(
        self,
        rules: Sequence[object],
        *,
        horizon_seconds: float = 900.0,
        recent_capacity: int = 64,
        logger: Optional[object] = None,
    ) -> None:
        rule_names = [rule.name for rule in rules]
        if len(set(rule_names)) != len(rule_names):
            raise ValueError("alert rule names must be unique")
        self.rules = tuple(rules)
        self._logger = logger
        self._lock = threading.Lock()
        self._window = SnapshotWindow(horizon_seconds)
        self._states: Dict[str, AlertState] = {
            rule.name: AlertState() for rule in self.rules
        }
        self._recent: Deque[Dict[str, object]] = deque(maxlen=recent_capacity)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def observe(self, snapshot: Mapping[str, object], now: float) -> List[str]:
        """Fold one metrics snapshot in; run every rule; emit transitions.

        Returns the list of lifecycle events (``"<rule>:<event>"``) this
        observation caused, mostly for tests.
        """
        transitions: List[_Transition] = []
        with self._lock:
            self._window.append(now, snapshot)
            for rule in self.rules:
                value = rule.evaluate(self._window)
                breached = value is not None and rule.breached(value)
                state = self._states[rule.name]
                state.value = value
                transitions.extend(self._advance_locked(rule, state, breached, value, now))
            for transition in transitions:
                if transition.event == "resolved":
                    self._recent.append(
                        {
                            "alertname": transition.rule_name,
                            "severity": transition.severity,
                            "resolved_at": now,
                            "held": transition.held_seconds,
                        }
                    )
        events = []
        for transition in transitions:
            events.append(f"{transition.rule_name}:{transition.event}")
            self._log_transition(transition)
        return events

    def _advance_locked(
        self,
        rule: object,
        state: AlertState,
        breached: bool,
        value: Optional[float],
        now: float,
    ) -> List[_Transition]:
        for_seconds = float(rule.for_seconds)
        out: List[_Transition] = []
        if breached:
            if state.state == STATE_OK:
                if for_seconds > 0:
                    state.state = STATE_PENDING
                    state.since = now
                    out.append(_Transition(rule.name, rule.severity, "pending", value, 0.0))
                else:
                    state.state = STATE_FIRING
                    state.since = now
                    out.append(_Transition(rule.name, rule.severity, "firing", value, 0.0))
            elif state.state == STATE_PENDING and now - state.since >= for_seconds:
                held = now - state.since
                state.state = STATE_FIRING
                state.since = now
                out.append(_Transition(rule.name, rule.severity, "firing", value, held))
        else:
            if state.state == STATE_FIRING:
                held = now - state.since
                state.state = STATE_OK
                state.since = now
                out.append(_Transition(rule.name, rule.severity, "resolved", value, held))
            elif state.state == STATE_PENDING:
                # A pending breach that clears never paged anyone; reset
                # silently (matching Prometheus, which logs no event either).
                state.state = STATE_OK
                state.since = now
        return out

    def _log_transition(self, transition: _Transition) -> None:
        if self._logger is None:
            return
        try:
            self._logger.event(
                f"alert_{transition.event}",
                alertname=transition.rule_name,
                severity=transition.severity,
                value=transition.value,
                held_seconds=round(transition.held_seconds, 6),
            )
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def active_alerts(self) -> List[Dict[str, str]]:
        """Pending/firing alerts as ``ALERTS``-series label sets."""
        severities = {rule.name: rule.severity for rule in self.rules}
        with self._lock:
            return [
                {
                    "alertname": name,
                    "severity": severities[name],
                    "alertstate": state.state,
                }
                for name, state in sorted(self._states.items())
                if state.state != STATE_OK
            ]

    def alert_gauges(self) -> Dict[str, float]:
        """Rollup gauges merged into the metrics snapshot."""
        with self._lock:
            firing = sum(1 for s in self._states.values() if s.state == STATE_FIRING)
            pending = sum(1 for s in self._states.values() if s.state == STATE_PENDING)
        return {
            names.ALERTS_FIRING: float(firing),
            names.ALERTS_PENDING: float(pending),
        }

    def alerts_payload(self, now: float) -> Dict[str, object]:
        """Full rule-by-rule report (the ``/alerts`` endpoint body)."""
        rules_out: List[Dict[str, object]] = []
        with self._lock:
            for rule in self.rules:
                state = self._states[rule.name]
                entry: Dict[str, object] = {
                    "alertname": rule.name,
                    "severity": rule.severity,
                    "for": float(rule.for_seconds),
                }
                description = getattr(rule, "description", "")
                if description:
                    entry["description"] = description
                entry.update(state.as_dict(now))
                rules_out.append(entry)
            recent = []
            for item in self._recent:
                entry = dict(item)
                resolved_at = entry.pop("resolved_at", None)
                if isinstance(resolved_at, (int, float)):
                    entry["resolved_age"] = max(now - float(resolved_at), 0.0)
                recent.append(entry)
        return {
            "enabled": True,
            "rules": rules_out,
            "firing": [r for r in rules_out if r["alertstate"] == STATE_FIRING],
            "pending": [r for r in rules_out if r["alertstate"] == STATE_PENDING],
            "recent": recent,
        }
