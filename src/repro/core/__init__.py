"""Core contribution: pruned landmark labeling and its variants."""

from repro.core.bitparallel import (
    BP_INF,
    WORD_BITS,
    BitParallelLabels,
    bit_parallel_bfs,
    build_bit_parallel_labels,
    select_bit_parallel_roots,
)
from repro.core.directed import DirectedPrunedLandmarkLabeling
from repro.core.dynamic import DynamicPrunedLandmarkLabeling
from repro.core.index import PrunedLandmarkLabeling, build_index
from repro.core.labels import INF_DISTANCE, LabelAccumulator, LabelSet
from repro.core.paths import PathPrunedLandmarkLabeling
from repro.core.pruned import (
    ConstructionStats,
    build_naive_labels,
    build_pruned_labels,
)
from repro.core.query import (
    BatchQueryKernel,
    RootedQueryEvaluator,
    intersect_query,
    merge_join_query,
)
from repro.core.serialization import load_index, load_index_metadata, save_index
from repro.core.stats import IndexStats, collect_index_stats, label_size_percentiles
from repro.core.storage import MmapBackend
from repro.core.verification import (
    VerificationIssue,
    VerificationReport,
    verify_against_bfs,
    verify_index,
    verify_label_invariants,
)
from repro.core.weighted import WeightedLabelSet, WeightedPrunedLandmarkLabeling

__all__ = [
    "PrunedLandmarkLabeling",
    "build_index",
    "WeightedPrunedLandmarkLabeling",
    "WeightedLabelSet",
    "DirectedPrunedLandmarkLabeling",
    "PathPrunedLandmarkLabeling",
    "DynamicPrunedLandmarkLabeling",
    "LabelSet",
    "LabelAccumulator",
    "INF_DISTANCE",
    "BitParallelLabels",
    "BP_INF",
    "WORD_BITS",
    "bit_parallel_bfs",
    "build_bit_parallel_labels",
    "select_bit_parallel_roots",
    "ConstructionStats",
    "build_pruned_labels",
    "build_naive_labels",
    "merge_join_query",
    "intersect_query",
    "RootedQueryEvaluator",
    "BatchQueryKernel",
    "save_index",
    "load_index",
    "load_index_metadata",
    "MmapBackend",
    "IndexStats",
    "collect_index_stats",
    "label_size_percentiles",
    "VerificationIssue",
    "VerificationReport",
    "verify_against_bfs",
    "verify_label_invariants",
    "verify_index",
]
