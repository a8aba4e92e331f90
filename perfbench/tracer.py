"""Span tracing from outside the program: wrap public entry points, record spans.

Nothing here edits the program's source.  :func:`install` replaces each
target function or method with a wrapper that records one span per call
(name, start, end, parent span, batch id) into an in-memory
:class:`Recorder`; :func:`uninstall` puts the originals back.  A module-level
function is replaced in every loaded ``repro`` module that imported it by
name, so callers that did ``from x import f`` are traced too.

A span's batch id is the id of its outermost traced ancestor on the same
thread, so every span one engine batch causes shares one id.  Self time is a
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns

#: Marks a patched class attribute that was inherited, not defined, there.
_INHERITED = object()

#: The pair query whose line this event-loop task parsed last, as
#: ``[parse_start, parse_end, submit_ns]`` (``None`` after other verbs).
#: Each connection runs in its own task, so each sees only its own request.
_REQUEST: contextvars.ContextVar = contextvars.ContextVar("perfbench_request", default=None)


class Recorder:
    """In-memory spans, counters and per-request wire latencies."""

    def __init__(self) -> None:
        #: ``(span_id, parent_id, key, start_ns, end_ns, batch_id)`` per call.
        self.spans: List[Tuple[int, int, str, int, int, int]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Per served pair query: ``(parse_start, parse_end, submit_ns,
        #: format_start, format_end)``, times in ns.
        self.requests: List[tuple] = []
        #: Per cache-fronted engine dispatch: ``(start_ns, end_ns, pairs)``.
        self.batches: List[Tuple[int, int, int]] = []
        #: While set, wrapped calls run unrecorded (see :func:`_unrecorded`).
        self.paused = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, key: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """``fn`` recording one ``key`` span per call; ``hook(ctx)`` sees each call."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            stack = stack_of()
            parent, batch = stack[-1] if stack else (0, 0)
            span_id = next(ids)
            if not batch:
                batch = span_id
            ctx = Call(self, args, kwargs, nested=bool(stack)) if hook else None
            if ctx is not None:
                hook(ctx)
                args, kwargs = ctx.args, ctx.kwargs
            stack.append((span_id, batch))
            start = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = _now()
                stack.pop()
                spans.append((span_id, parent, key, start, end, batch))
                if ctx is not None:
                    ctx.end, ctx.error = end, exc
                    hook(ctx)
                raise
            end = _now()
            stack.pop()
            spans.append((span_id, parent, key, start, end, batch))
            if ctx is not None:
                ctx.start, ctx.end, ctx.result = start, end, result
                hook(ctx)
            return result

        return wrapper

    def patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, vars(owner).get(name, _INHERITED)))
        setattr(owner, name, replacement)

    def as_dict(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "requests": self.requests,
            "batches": self.batches,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle)


class Call:
    """One traced call as a hook sees it: before (``end is None``) and after."""

    __slots__ = ("recorder", "args", "kwargs", "nested", "start", "end", "result", "error")

    def __init__(self, recorder: Recorder, args, kwargs, nested: bool) -> None:
        self.recorder = recorder
        self.args, self.kwargs, self.nested = args, kwargs, nested
        self.start = self.end = None
        self.result = self.error = None


# --------------------------------------------------------------------------- #
# Hooks: counters measured where the work happens
# --------------------------------------------------------------------------- #


def _pruned_build(ctx: Call) -> None:
    if ctx.end is None:
        ctx.kwargs = dict(ctx.kwargs, collect_stats=True)
        return
    if ctx.error is None:
        labels, stats = ctx.result
        ctx.recorder.add("core.pruned.visited", int(stats.visited_per_bfs.sum()))
        ctx.recorder.add("core.pruned.labeled", int(stats.labeled_per_bfs.sum()))
        ctx.recorder.add("core.labels.entries", labels.total_entries())
        ctx.recorder.add("core.labels.vertices", labels.num_vertices)


def _count_pairs(counter: str, position: int) -> Callable:
    def hook(ctx: Call) -> None:
        if ctx.end is not None and ctx.error is None:
            ctx.recorder.add(counter, len(ctx.args[position]))
    return hook


def _count_result(counter: str) -> Callable:
    def hook(ctx: Call) -> None:
        if ctx.end is not None and ctx.error is None:
            ctx.recorder.add(counter, int(ctx.result.shape[0]))
    return hook


def _cache_probe(ctx: Call) -> None:
    if ctx.end is not None and ctx.error is None:
        _, missing = ctx.result
        ctx.recorder.add("serving.cache.lookups", len(missing))
        ctx.recorder.add("serving.cache.hits", len(missing) - int(missing.sum()))


def _freeze(ctx: Call) -> None:
    if ctx.end is None:
        ctx.recorder.add("core.dynamic.dirty_vertices", len(ctx.args[0].dirty_vertices))


def _parse_pair(ctx: Call) -> None:
    if ctx.nested:
        return
    if ctx.end is None:
        _REQUEST.set(None)
    elif ctx.error is None:
        _REQUEST.set([ctx.start, ctx.end, 0])


def _parse_other(ctx: Call) -> None:
    if ctx.end is None:
        _REQUEST.set(None)


def _format_distance(ctx: Call) -> None:
    if ctx.end is None or ctx.nested:
        return
    request = _REQUEST.get()
    if request is not None:
        ctx.recorder.requests.append((*request, ctx.start, ctx.end))
        _REQUEST.set(None)


def _submit(ctx: Call) -> None:
    if ctx.end is None:
        return
    if type(ctx.error).__name__ == "AdmissionError":
        ctx.recorder.add("serving.aio.rejected")
    elif ctx.error is None:
        ctx.recorder.add("serving.aio.admitted")
        request = _REQUEST.get()
        if request is not None:
            request[2] = ctx.end - ctx.start


def _dispatch(ctx: Call) -> None:
    if ctx.end is not None and ctx.error is None:
        pairs = len(ctx.args[2])
        ctx.recorder.add("serving.cache.dispatch_pairs", pairs)
        ctx.recorder.batches.append((ctx.start, ctx.end, pairs))


def _admission_counter(recorder: Recorder, fn: Callable) -> Callable:
    """Wrap the fan-out coroutine to count admissions (no span: it awaits)."""
    from repro.errors import AdmissionError

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        try:
            result = await fn(*args, **kwargs)
        except AdmissionError:
            recorder.add("serving.aio.rejected")
            raise
        recorder.add("serving.aio.admitted")
        return result

    return wrapper


def _unrecorded(recorder: Recorder, fn: Callable) -> Callable:
    """``fn`` with recording paused for its duration.  Used for the ``--warm``
    cache replay, which runs before the server listens and is not traffic."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.paused = True
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.paused = False

    return wrapper


#: ``(span key, module, attribute path, hook)``: the public entry points of
#: each layer.  ``Class.method`` paths patch the class.
TARGETS = [
    ("graph.read", "repro.graph.io", "read_edge_list", None),
    ("graph.order", "repro.graph.ordering", "compute_order", None),
    ("core.bitparallel.build", "repro.core.bitparallel", "build_bit_parallel_labels", None),
    ("core.pruned.build", "repro.core.pruned", "build_pruned_labels", _pruned_build),
    ("core.query.kernel_prep", "repro.core.query", "BatchQueryKernel.__init__", None),
    ("core.serialization.save", "repro.core.serialization", "save_index", None),
    ("core.serialization.load", "repro.core.serialization", "load_index", None),
    ("core.labels.query", "repro.core.labels", "LabelSet.query", None),
    ("core.bitparallel.query", "repro.core.bitparallel", "BitParallelLabels.query", None),
    ("core.bitparallel.query_pairs", "repro.core.bitparallel", "BitParallelLabels.query_pairs", None),
    ("core.bitparallel.one_to_many", "repro.core.bitparallel", "BitParallelLabels.query_one_to_many", None),
    ("serving.protocol.parse", "repro.serving.protocol", "parse_pair", _parse_pair),
    ("serving.protocol.parse", "repro.serving.protocol", "parse_one_to_many", _parse_other),
    ("serving.protocol.parse", "repro.serving.protocol", "parse_mutation", _parse_other),
    ("serving.protocol.format", "repro.serving.protocol", "format_distance_line", _format_distance),
    ("serving.protocol.format", "repro.serving.protocol", "format_one_to_many_reply", None),
    ("serving.protocol.format", "repro.serving.protocol", "format_mutation_ack", None),
    ("serving.protocol.format", "repro.serving.protocol", "format_publish_ack", None),
    ("serving.aio.submit", "repro.serving.aio", "AsyncQueryFrontend.submit", _submit),
    ("serving.cache.dispatch", "repro.serving.cache", "cached_query_batch", _dispatch),
    ("serving.cache.probe", "repro.serving.cache", "LRUCache.lookup_batch", _cache_probe),
    ("serving.cache.store", "repro.serving.cache", "LRUCache.store_batch", None),
    ("serving.cache.clear", "repro.serving.cache", "LRUCache.clear", None),
    ("serving.engine.query_batch", "repro.serving.engine", "BatchQueryEngine.query_batch", None),
    ("serving.engine.one_to_many", "repro.serving.engine", "BatchQueryEngine.query_one_to_many",
     _count_result("serving.engine.one_to_many_pairs")),
    ("serving.snapshot.insert", "repro.serving.snapshot", "SnapshotManager.insert_edge", None),
    ("serving.snapshot.remove", "repro.serving.snapshot", "SnapshotManager.remove_edge", None),
    ("serving.snapshot.publish", "repro.serving.snapshot", "SnapshotManager.publish", None),
    ("core.dynamic.freeze", "repro.core.dynamic", "DynamicPrunedLandmarkLabeling.freeze", _freeze),
]

#: Modules imported before patching, so every by-name import already exists.
PRELOAD = [
    "repro.cli",
    "repro.core.index",
    "repro.core.serialization",
    "repro.core.dynamic",
    "repro.graph.io",
    "repro.serving",
    "repro.serving.aio",
    "repro.serving.server",
]


def _rebind_everywhere(recorder: Recorder, original, replacement) -> None:
    """Point every loaded ``repro`` module's name for ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                recorder.patch(module, name, replacement)


def install(recorder: Recorder) -> None:
    """Wrap every target (and each kernel backend's query methods)."""
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    for key, module_name, path, hook in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            owner = getattr(module, class_name)
            recorder.patch(owner, method, recorder.wrap(key, getattr(owner, method), hook))
        else:
            original = getattr(module, path)
            _rebind_everywhere(recorder, original, recorder.wrap(key, original, hook))
    from repro.core.kernels import registered_kernels
    from repro.serving.aio import AsyncQueryFrontend

    for backend in registered_kernels().values():
        for method, key, hook in (
            ("query_pairs", "core.kernels.query_pairs", _count_pairs("core.kernels.pairs", 1)),
            ("query_one_to_many", "core.kernels.one_to_many", None),
        ):
            if method in vars(backend):
                recorder.patch(backend, method, recorder.wrap(key, vars(backend)[method], hook))
    from repro.serving import server

    _rebind_everywhere(recorder, server.warm_cache, _unrecorded(recorder, server.warm_cache))
    method = AsyncQueryFrontend.query_one_to_many
    if inspect.iscoroutinefunction(method):
        recorder.patch(AsyncQueryFrontend, "query_one_to_many", _admission_counter(recorder, method))


def uninstall(recorder: Recorder) -> None:
    """Restore every patched attribute, newest first."""
    for owner, name, original in reversed(recorder._patches):
        if original is _INHERITED:
            delattr(owner, name)
        else:
            setattr(owner, name, original)
    recorder._patches.clear()


# --------------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------------- #


def self_times(spans) -> Dict[str, Tuple[int, float]]:
    """Per span key: ``(calls, total self seconds)``."""
    child_ns: Dict[int, int] = defaultdict(int)
    for _, parent, _, start, end, _ in spans:
        if parent:
            child_ns[parent] += end - start
    result: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for span_id, _, key, start, end, _ in spans:
        entry = result[key]
        entry[0] += 1
        entry[1] += (end - start - child_ns.get(span_id, 0)) / 1e9
    return {key: (int(calls), seconds) for key, (calls, seconds) in result.items()}


def load_dump(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
