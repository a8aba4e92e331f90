"""The repository benchmark's span tracer must keep finding its hooks.

``perfbench/tracer.py`` wraps serving entry points by name from outside
``src/``.  A refactor that moves or renames one of them would only surface
as a broken ``--trace 1`` benchmark run; these tests make it a tier-1
failure instead, and check that ``uninstall`` leaves the program untouched.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from repro.core.index import PrunedLandmarkLabeling
from repro.serving import BatchQueryEngine, LRUCache, QueryServer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        module = importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))
    for name in module.PRELOAD + [target[1] for target in module.TARGETS]:
        importlib.import_module(name)
    return module


def _attribute_state():
    """Every attribute of every loaded ``repro`` module and of its classes."""
    state = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            state[(module_name, name)] = value
            if inspect.isclass(value) and value.__module__ == module_name:
                for attribute, member in list(vars(value).items()):
                    state[(module_name, name, attribute)] = member
    return state


def test_install_resolves_serving_hooks_and_uninstall_restores(tracer, small_social_graph):
    from repro.serving import aio, server

    before = _attribute_state()
    recorder = tracer.Recorder()
    try:
        tracer.install(recorder)
        frontend_class = aio.AsyncQueryFrontend
        assert frontend_class.submit is not before[("repro.serving.aio", "AsyncQueryFrontend", "submit")]
        assert frontend_class.query_one_to_many is not before[
            ("repro.serving.aio", "AsyncQueryFrontend", "query_one_to_many")
        ]
        assert server.warm_cache is not before[("repro.serving.server", "warm_cache")]
        # The front end dispatches batches through this module-global name.
        assert aio.cached_query_batch is not before[("repro.serving.aio", "cached_query_batch")]

        index = PrunedLandmarkLabeling(num_bit_parallel_roots=2).build(small_social_graph)
        engine = BatchQueryEngine(index)
        server.warm_cache(engine, LRUCache(8), [(0, 5)])
        assert recorder.batches == []  # the warm replay is not traffic
        with QueryServer(engine) as query_server:
            query_server.submit([0, 1], [5, 6]).wait(10)
            query_server.query_one_to_many(0, [1, 2, 3])
        assert recorder.counts["serving.aio.admitted"] == 2
        assert [pairs for _, _, pairs in recorder.batches] == [2]
        assert recorder.counts["serving.engine.one_to_many_pairs"] == 3
    finally:
        tracer.uninstall(recorder)

    after = _attribute_state()
    missing = object()
    changed = sorted(
        str(key) for key in before.keys() | after.keys()
        if before.get(key, missing) is not after.get(key, missing)
    )
    assert changed == []


def test_install_records_batch_kernel_spans(tracer, small_social_graph):
    """The tracer finds the batch kernel through ``registered_kernels``: a
    pair batch and a fan-out each leave their ``core.kernels`` spans, and the
    pair counter counts the batch."""
    index = PrunedLandmarkLabeling(num_bit_parallel_roots=2).build(small_social_graph)
    recorder = tracer.Recorder()
    try:
        tracer.install(recorder)
        index.distance_batch([0, 1, 2], [5, 6, 7])
        index.distances_from(0, [1, 2, 3])
        index.distances_from(4)
    finally:
        tracer.uninstall(recorder)
    calls = {}
    for span in recorder.spans:
        calls[span[2]] = calls.get(span[2], 0) + 1
    assert recorder.counts["core.kernels.pairs"] == 3
    assert calls["core.kernels.query_pairs"] == 1
    assert calls["core.kernels.one_to_many"] == 2
    assert calls["core.query.kernel_prep"] == 1
