"""Unit tests for the cluster wire protocol and function registry.

The protocol ships work *descriptions*, never code: these tests pin the
round-trip guarantees (task/spec wire encodings, chunk layout math) and
the safety rails (untrusted modules rejected, non-JSON payloads rejected,
unclusterable callables surfaced as ``ValueError`` for local fallback).
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.cluster.protocol import (
    PROTOCOL_VERSION,
    ChunkSpec,
    ClusterTask,
    SweepSpec,
    chunk_grid,
    default_chunk_size,
    dotted_name,
    task_from_callable,
)
from repro.cluster.registry import (
    TRUSTED_MODULE_PREFIXES,
    register_point_fn,
    resolve_point_fn,
    unregister_point_fn,
)
from repro.sim.catalog import _open_point


class TestDottedName:
    def test_round_trips_module_level_function(self):
        name = dotted_name(_open_point)
        assert name == "repro.sim.catalog:_open_point"
        assert resolve_point_fn(name) is _open_point

    def test_rejects_lambda(self):
        with pytest.raises(ValueError):
            dotted_name(lambda x: x)

    def test_rejects_partial(self):
        with pytest.raises(ValueError):
            dotted_name(partial(_open_point, concurrency=2))

    def test_rejects_bound_method(self):
        with pytest.raises(ValueError):
            dotted_name("abc".upper)

    def test_rejects_untrusted_module(self):
        # This test module is importable but not under a trusted prefix.
        with pytest.raises(ValueError):
            dotted_name(_local_point)


def _local_point(x):
    """Module-level but outside ``repro.`` — must not cross the wire."""
    return x


class TestRegistry:
    def test_register_resolve_unregister(self):
        def fn(x):
            return x + 1

        register_point_fn("test-registry-fn", fn)
        try:
            assert resolve_point_fn("test-registry-fn") is fn
        finally:
            unregister_point_fn("test-registry-fn")
        with pytest.raises(ValueError):
            resolve_point_fn("test-registry-fn")

    def test_import_restricted_to_trusted_prefixes(self):
        assert any("repro.".startswith(p) or p == "repro." for p in TRUSTED_MODULE_PREFIXES)
        with pytest.raises(ValueError):
            resolve_point_fn("os:getcwd")
        with pytest.raises(ValueError):
            resolve_point_fn("subprocess:run")


class TestTaskFromCallable:
    def test_plain_function(self):
        task = task_from_callable(_open_point, seed=7, label="fig4a")
        assert task.fn == "repro.sim.catalog:_open_point"
        assert task.kwargs == {}
        assert task.seed == 7 and task.label == "fig4a"

    def test_keyword_partial(self):
        task = task_from_callable(
            partial(_open_point, concurrency=2, samples=10, seed=0)
        )
        assert task.kwargs == {"concurrency": 2, "samples": 10, "seed": 0}
        bound = task.bind()
        assert bound.func is _open_point
        assert bound.keywords == task.kwargs

    def test_rejects_positional_partial(self):
        with pytest.raises(ValueError, match="positional"):
            task_from_callable(partial(_open_point, 512))

    def test_stacked_partials_flatten(self):
        # CPython flattens partial-of-partial at construction, so this is
        # just one keyword partial and crosses the wire fine.
        task = task_from_callable(partial(partial(_open_point, samples=5), seed=0))
        assert task.kwargs == {"samples": 5, "seed": 0}

    def test_rejects_non_json_kwargs(self):
        with pytest.raises(ValueError, match="JSON"):
            task_from_callable(partial(_open_point, samples=object()))

    def test_wire_round_trip(self):
        task = task_from_callable(
            partial(_open_point, concurrency=2, samples=10, seed=0), seed=3
        )
        assert ClusterTask.from_wire(task.to_wire()) == task


class TestChunkLayout:
    def test_chunks_cover_grid_exactly_once(self):
        chunks = chunk_grid(10, 3)
        assert [(c.start, c.stop) for c in chunks] == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert [c.index for c in chunks] == [0, 1, 2, 3]
        assert sum(c.count for c in chunks) == 10

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            chunk_grid(10, 0)

    def test_default_chunk_size_targets_four_chunks_per_worker(self):
        assert default_chunk_size(80, 2) == 10
        assert default_chunk_size(3, 2) == 1
        assert default_chunk_size(0, 2) == 1

    def test_chunk_wire_round_trip(self):
        chunk = ChunkSpec(index=2, start=6, stop=9)
        assert ChunkSpec.from_wire(chunk.to_wire()) == chunk


class TestSweepSpec:
    def _spec(self, **overrides):
        task = task_from_callable(partial(_open_point, concurrency=2, samples=5, seed=0))
        grid = [{"n": n, "w": w} for n in (64, 128) for w in (2, 4)]
        defaults = dict(run_id="run-test", chunk_size=3)
        defaults.update(overrides)
        return SweepSpec.build(task, grid, **defaults)

    def test_wire_round_trip(self):
        spec = self._spec()
        assert SweepSpec.from_wire(spec.to_wire()) == spec

    def test_points_slice_matches_grid(self):
        spec = self._spec()
        chunks = spec.chunks()
        rebuilt = [p for c in chunks for p in spec.points(c)]
        assert rebuilt == [dict(p) for p in spec.grid]

    def test_version_mismatch_rejected(self):
        payload = self._spec().to_wire()
        payload["version"] = PROTOCOL_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            SweepSpec.from_wire(payload)

    def test_non_json_grid_point_rejected_at_build(self):
        task = task_from_callable(_open_point)
        with pytest.raises(ValueError, match="JSON"):
            SweepSpec.build(task, [{"n": object()}], run_id="run-test")

    def test_default_chunking_from_expected_workers(self):
        spec = self._spec(chunk_size=None, expected_workers=1)
        assert spec.chunk_size == default_chunk_size(4, 1)
