"""The shared benchmark-result schema and its pinned JSON encoding.

One :class:`BenchResult` describes one run of one benchmark suite: a list of
:class:`Metric` records (name, value, unit, direction, repeat samples, an
optional per-metric tolerance) plus an :class:`EnvFingerprint` capturing the
environment the numbers were measured in — git sha, interpreter and library
versions, CPU count and whether the run was a reduced-scale smoke
configuration.

The JSON encoding is *pinned*: ``to_json`` always emits sorted keys, two-space
indentation and a trailing newline, so re-encoding a decoded result is
byte-identical (the round-trip stability the regression tests assert) and
result files diff cleanly in version control.  Files are named
``BENCH_<suite>.json`` (:func:`result_filename`).
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import re
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "SCHEMA_VERSION",
    "BenchResult",
    "EnvFingerprint",
    "Metric",
    "SchemaError",
    "bench_result",
    "collect_fingerprint",
    "read_result",
    "result_filename",
    "write_result",
]

#: Bumped whenever the encoded shape changes incompatibly; decoders refuse
#: unknown versions instead of misreading them.
SCHEMA_VERSION = 1

#: Suite names double as file-name components (``BENCH_<suite>.json``).
_SUITE_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


class SchemaError(ValueError):
    """Raised for malformed results: bad field types, unknown schema versions."""


@dataclass(frozen=True)
class Metric:
    """One measured quantity of a benchmark run.

    ``higher_is_better`` gives the regression-gating direction: ``True`` for
    throughputs, ``False`` for latencies/sizes, ``None`` for informational
    metrics (environment echoes, counts) that the comparator reports but
    never gates on.  ``samples`` holds every repeat observation (``value`` is
    the best-of/representative one); ``tolerance`` overrides the comparator's
    global relative threshold for this metric alone.
    """

    name: str
    value: float
    unit: str = ""
    higher_is_better: Optional[bool] = None
    samples: Tuple[float, ...] = ()
    tolerance: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("metric name must be non-empty")
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(
            self, "samples", tuple(float(s) for s in self.samples) or (float(self.value),)
        )
        if self.tolerance is not None and not self.tolerance >= 0:
            raise SchemaError(f"metric {self.name!r}: tolerance must be >= 0")

    @property
    def gated(self) -> bool:
        """Whether the comparator treats this metric as a regression gate."""
        return self.higher_is_better is not None

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "value": self.value,
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
            "samples": list(self.samples),
        }
        if self.tolerance is not None:
            payload["tolerance"] = self.tolerance
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Metric":
        try:
            return cls(
                name=str(payload["name"]),
                value=float(payload["value"]),  # type: ignore[arg-type]
                unit=str(payload.get("unit", "")),
                higher_is_better=_optional_bool(payload.get("higher_is_better")),
                samples=tuple(
                    float(s) for s in payload.get("samples", ())  # type: ignore[union-attr]
                ),
                tolerance=_optional_float(payload.get("tolerance")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed metric record: {exc}") from None


@dataclass(frozen=True)
class EnvFingerprint:
    """Where and how a benchmark result was measured."""

    git_sha: str
    python: str
    numpy: str
    cpu_count: int
    smoke: bool
    timestamp: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "git_sha": self.git_sha,
            "python": self.python,
            "numpy": self.numpy,
            "cpu_count": self.cpu_count,
            "smoke": self.smoke,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EnvFingerprint":
        # Older result files also carry ``numba`` and ``kernel`` keys; keys
        # not read here are ignored, so those files still load.
        try:
            return cls(
                git_sha=str(payload["git_sha"]),
                python=str(payload["python"]),
                numpy=str(payload["numpy"]),
                cpu_count=int(payload["cpu_count"]),  # type: ignore[arg-type]
                smoke=bool(payload["smoke"]),
                timestamp=float(payload["timestamp"]),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed fingerprint record: {exc}") from None


def _optional_bool(value: object) -> Optional[bool]:
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    raise SchemaError(f"expected bool or null, got {value!r}")


def _optional_float(value: object) -> Optional[float]:
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise SchemaError(f"expected number or null, got {value!r}")


def _git_sha() -> str:
    """Current checkout's commit sha, or ``"unknown"`` outside a repository."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else "unknown"


def collect_fingerprint(*, smoke: bool = False) -> EnvFingerprint:
    """Fingerprint the current environment (best effort, never raises)."""
    import numpy

    return EnvFingerprint(
        git_sha=_git_sha(),
        python=platform.python_version(),
        numpy=str(numpy.__version__),
        cpu_count=os.cpu_count() or 1,
        smoke=bool(smoke),
        timestamp=time.time(),
    )


@dataclass(frozen=True)
class BenchResult:
    """One benchmark suite's measured metrics plus the environment fingerprint."""

    suite: str
    metrics: Tuple[Metric, ...]
    fingerprint: EnvFingerprint
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not _SUITE_NAME_PATTERN.match(self.suite):
            raise SchemaError(
                f"suite name {self.suite!r} is not a safe file-name component"
            )
        object.__setattr__(self, "metrics", tuple(self.metrics))
        seen = set()
        for metric in self.metrics:
            if metric.name in seen:
                raise SchemaError(
                    f"suite {self.suite!r}: duplicate metric {metric.name!r}"
                )
            seen.add(metric.name)

    def metric(self, name: str) -> Optional[Metric]:
        """Look one metric up by name (``None`` when absent)."""
        for metric in self.metrics:
            if metric.name == name:
                return metric
        return None

    def merged_with(self, other: "BenchResult") -> "BenchResult":
        """Fold another run of the same suite in as additional repeat samples.

        Per metric, samples concatenate and ``value`` becomes the best
        observation across all samples — max for higher-is-better metrics,
        min for lower-is-better ones, the median for informational metrics
        (best-of-N repeats suppress scheduler noise; a machine cannot get
        *accidentally* fast).  The fingerprint of ``self`` (the first run)
        is kept.
        """
        if other.suite != self.suite:
            raise SchemaError(
                f"cannot merge suite {other.suite!r} into {self.suite!r}"
            )
        merged: List[Metric] = []
        other_by_name = {metric.name: metric for metric in other.metrics}
        for metric in self.metrics:
            twin = other_by_name.pop(metric.name, None)
            if twin is None:
                merged.append(metric)
                continue
            samples = metric.samples + twin.samples
            if metric.higher_is_better is True:
                value = max(samples)
            elif metric.higher_is_better is False:
                value = min(samples)
            else:
                value = _median(samples)
            merged.append(dataclasses.replace(metric, value=value, samples=samples))
        merged.extend(other_by_name.values())
        return dataclasses.replace(self, metrics=tuple(merged))

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "suite": self.suite,
            "metrics": [metric.as_dict() for metric in self.metrics],
            "fingerprint": self.fingerprint.as_dict(),
        }

    def to_json(self) -> str:
        """The pinned encoding: sorted keys, indent=2, trailing newline."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "BenchResult":
        if not isinstance(payload, Mapping):
            raise SchemaError("benchmark result must be a JSON object")
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
            )
        metrics = payload.get("metrics")
        fingerprint = payload.get("fingerprint")
        if not isinstance(metrics, Sequence) or isinstance(metrics, (str, bytes)):
            raise SchemaError("'metrics' must be an array")
        if not isinstance(fingerprint, Mapping):
            raise SchemaError("'fingerprint' must be an object")
        return cls(
            suite=str(payload.get("suite", "")),
            metrics=tuple(Metric.from_dict(m) for m in metrics),
            fingerprint=EnvFingerprint.from_dict(fingerprint),
        )

    @classmethod
    def from_json(cls, text: str) -> "BenchResult":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from None
        return cls.from_dict(payload)


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


MetricSpec = Union[Metric, Tuple[str, float], Tuple[str, float, str], Mapping[str, object]]


def bench_result(
    suite: str,
    metrics: Iterable[MetricSpec],
    *,
    smoke: bool = False,
    fingerprint: Optional[EnvFingerprint] = None,
) -> BenchResult:
    """Build a :class:`BenchResult`, fingerprinting the environment.

    The constructor every ``collect_results()`` adapter uses.  ``metrics``
    accepts :class:`Metric` objects, ``(name, value[, unit])`` tuples, or
    keyword mappings passed through to :class:`Metric`.
    """
    converted: List[Metric] = []
    for spec in metrics:
        if isinstance(spec, Metric):
            converted.append(spec)
        elif isinstance(spec, Mapping):
            converted.append(Metric(**spec))  # type: ignore[arg-type]
        else:
            converted.append(Metric(*spec))  # type: ignore[arg-type]
    return BenchResult(
        suite=suite,
        metrics=tuple(converted),
        fingerprint=(
            fingerprint if fingerprint is not None else collect_fingerprint(smoke=smoke)
        ),
    )


def result_filename(suite: str) -> str:
    """The canonical file name for a suite's result (``BENCH_<suite>.json``)."""
    if not _SUITE_NAME_PATTERN.match(suite):
        raise SchemaError(f"suite name {suite!r} is not a safe file-name component")
    return f"BENCH_{suite}.json"


def write_result(result: BenchResult, out_dir: Union[str, Path]) -> Path:
    """Write one result to ``out_dir`` under its canonical name; returns the path."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / result_filename(result.suite)
    path.write_text(result.to_json(), encoding="utf-8")
    return path


def read_result(path: Union[str, Path]) -> BenchResult:
    """Read one ``BENCH_<suite>.json`` file.

    Raises
    ------
    SchemaError
        When the file is not a valid encoded result.
    OSError
        When the file cannot be read.
    """
    return BenchResult.from_json(Path(path).read_text(encoding="utf-8"))
