"""Canonical registry of metric and series names.

Every name that crosses a component boundary — rendered by the exposition in
``repro.serving.metrics``, referenced by an alert rule in
``repro.serving.alerts``, inferred over by ``repro.obs.scrape`` — lives here
exactly once.  Renderer, scraper and alert rules drifting apart (a rule
watching ``cache_hitrate`` while the exposition says ``cache_hit_rate``)
silently evaluates against missing data forever; reprolint RL008
(*metric-name discipline*) enforces that the serving exposition and the alert
rules spell names through these constants rather than ad-hoc literals.

Stdlib only, no imports from ``repro.serving``: the registry must stay
importable by the static-analysis job and by ``repro.obs`` consumers that
never load the serving stack.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

__all__ = [
    "ALERTS_SERIES",
    "METRIC_HELP",
    "PROMETHEUS_COUNTERS",
    "REGISTERED_NAMES",
]

# --------------------------------------------------------------------------- #
# Label-free snapshot keys (one sample each on /metrics, prefixed repro_pll_).
# --------------------------------------------------------------------------- #

UPTIME_SECONDS = "uptime_seconds"
NUM_REQUESTS = "num_requests"
NUM_BATCHES = "num_batches"
NUM_QUERIES = "num_queries"
NUM_REJECTED = "num_rejected"
NUM_ERRORS = "num_errors"
QPS = "qps"
BUSY_FRACTION = "busy_fraction"
AVERAGE_BATCH_SIZE = "average_batch_size"

CACHE_HITS = "cache_hits"
CACHE_MISSES = "cache_misses"
CACHE_EVICTIONS = "cache_evictions"
CACHE_HIT_RATE = "cache_hit_rate"

SNAPSHOT_VERSION = "snapshot_version"
QUEUE_DEPTH = "queue_depth"
NUM_CONNECTIONS = "num_connections"
EVENT_LOOP_LAG_SECONDS = "event_loop_lag_seconds"

INDEX_LABEL_ENTRIES = "index_label_entries"
INDEX_BIT_PARALLEL_ROOTS = "index_bit_parallel_roots"
INDEX_DIRTY_VERTICES = "index_dirty_vertices"
INDEX_NUM_VERTICES = "index_num_vertices"
KERNEL_NARROW = "kernel_narrow"

PROCESS_RSS_BYTES = "process_rss_bytes"
PROCESS_OPEN_FDS = "process_open_fds"
GC_COLLECTIONS_TOTAL = "gc_collections_total"
GC_COLLECTED_TOTAL = "gc_collected_total"
GC_PAUSE_SECONDS_TOTAL = "gc_pause_seconds_total"
GC_PAUSES_TOTAL = "gc_pauses_total"

#: Shadow correctness canary counters (``serve --shadow-sample``).
SHADOW_BATCHES_TOTAL = "shadow_batches_total"
SHADOW_PAIRS_TOTAL = "shadow_pairs_total"
SHADOW_MISMATCHES_TOTAL = "shadow_mismatches_total"
SHADOW_DROPPED_TOTAL = "shadow_dropped_total"

#: Health-engine rollup gauges (per-alert detail rides the labelled series).
ALERTS_FIRING = "alerts_firing"
ALERTS_PENDING = "alerts_pending"

# --------------------------------------------------------------------------- #
# Histogram families (each expands to _bucket/_sum/_count series).
# --------------------------------------------------------------------------- #

LATENCY_SECONDS = "latency_seconds"
STAGE_QUEUE_SECONDS = "stage_queue_seconds"
STAGE_BATCH_SECONDS = "stage_batch_seconds"
STAGE_KERNEL_SECONDS = "stage_kernel_seconds"
STAGE_CACHE_PROBE_SECONDS = "stage_cache_probe_seconds"

# --------------------------------------------------------------------------- #
# Labelled series names.
# --------------------------------------------------------------------------- #

#: Prometheus convention: active alerts are exported unprefixed as
#: ``ALERTS{alertname=...,severity=...,alertstate=...} 1``.
ALERTS_SERIES = "ALERTS"
VERB_QUERIES_TOTAL = "verb_queries_total"
KERNEL_INFO = "kernel_info"

# --------------------------------------------------------------------------- #
# Metadata shared by the renderer and the validator.
# --------------------------------------------------------------------------- #

#: Snapshot keys that are monotonically increasing and therefore exposed with
#: the Prometheus ``counter`` type; every other numeric key is a ``gauge``.
PROMETHEUS_COUNTERS: FrozenSet[str] = frozenset(
    {
        NUM_REQUESTS,
        NUM_BATCHES,
        NUM_QUERIES,
        NUM_REJECTED,
        NUM_ERRORS,
        CACHE_HITS,
        CACHE_MISSES,
        CACHE_EVICTIONS,
        GC_COLLECTIONS_TOTAL,
        GC_COLLECTED_TOTAL,
        GC_PAUSE_SECONDS_TOTAL,
        GC_PAUSES_TOTAL,
        SHADOW_BATCHES_TOTAL,
        SHADOW_PAIRS_TOTAL,
        SHADOW_MISMATCHES_TOTAL,
        SHADOW_DROPPED_TOTAL,
    }
)

#: Help strings for the best-known snapshot keys; anything else gets a
#: generated fallback so the exposition stays self-describing.
METRIC_HELP: Dict[str, str] = {
    UPTIME_SECONDS: "Wall-clock seconds since the metrics object was created.",
    NUM_REQUESTS: "Total query requests admitted.",
    NUM_BATCHES: "Total coalesced batches evaluated.",
    NUM_QUERIES: "Total query pairs answered.",
    NUM_REJECTED: "Requests rejected by admission control.",
    NUM_ERRORS: "Requests that failed with an error.",
    QPS: "Queries answered per second of uptime.",
    BUSY_FRACTION: "Fraction of uptime spent evaluating batches.",
    AVERAGE_BATCH_SIZE: "Mean query pairs per evaluated batch.",
    CACHE_HIT_RATE: "Fraction of cache lookups served from the hot-pair cache.",
    SNAPSHOT_VERSION: "Version number of the currently served index snapshot.",
    QUEUE_DEPTH: "Requests currently queued for batching.",
    NUM_CONNECTIONS: "Open client connections on the async front end.",
    INDEX_LABEL_ENTRIES: "Total normal label entries in the served index.",
    INDEX_BIT_PARALLEL_ROOTS: "Bit-parallel BFS roots carried by the served index.",
    INDEX_DIRTY_VERTICES: "Shadow-index vertices dirtied since the last publish.",
    INDEX_NUM_VERTICES: "Vertices covered by the currently served index.",
    KERNEL_NARROW: "1 when the served batch kernel uses uint32 keys (the narrow layout).",
    PROCESS_RSS_BYTES: "Resident set size of the serving process.",
    PROCESS_OPEN_FDS: "Open file descriptors held by the serving process.",
    GC_COLLECTIONS_TOTAL: "Garbage collections completed (all generations).",
    GC_COLLECTED_TOTAL: "Objects reclaimed by the garbage collector.",
    GC_PAUSE_SECONDS_TOTAL: "Cumulative stop-the-world garbage-collection pause time.",
    GC_PAUSES_TOTAL: "Garbage-collection pauses observed by the pause monitor.",
    EVENT_LOOP_LAG_SECONDS: "Latest sampled asyncio event-loop scheduling lag.",
    SHADOW_BATCHES_TOTAL: "Served batches re-verified by the shadow correctness canary.",
    SHADOW_PAIRS_TOTAL: "Query pairs re-verified by the shadow correctness canary.",
    SHADOW_MISMATCHES_TOTAL: (
        "Served distances that disagreed with the scalar baseline recomputation."
    ),
    SHADOW_DROPPED_TOTAL: "Sampled batches dropped because the canary queue was full.",
    ALERTS_FIRING: "Alert rules currently in the firing state.",
    ALERTS_PENDING: "Alert rules currently pending (breached, inside their for-duration).",
    LATENCY_SECONDS: "End-to-end request latency (admission to reply).",
    STAGE_QUEUE_SECONDS: "Time requests spend queued before the batcher dequeues them.",
    STAGE_BATCH_SECONDS: "Time requests spend in the coalescing window.",
    STAGE_KERNEL_SECONDS: "Engine evaluation time per batch.",
    STAGE_CACHE_PROBE_SECONDS: "Hot-pair cache probe time per batch.",
}

#: Every name RL008 accepts as "registered": the union of help-described keys,
#: counters and labelled series names.  A metric-shaped
#: string literal in the scoped modules that is *not* in this set is a drift
#: hazard and gets flagged.
REGISTERED_NAMES: FrozenSet[str] = (
    frozenset(METRIC_HELP)
    | PROMETHEUS_COUNTERS
    | frozenset(
        {
            ALERTS_SERIES,
            VERB_QUERIES_TOTAL,
            KERNEL_INFO,
        }
    )
)
