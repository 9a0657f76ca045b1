"""Property tests for the declarative sweep-kind table.

Three contracts every row of :data:`repro.sim.catalog.SWEEP_KINDS` must
hold, checked over hypothesis-drawn request spellings:

* **Validation is a normal form** — ``validate`` is idempotent, fills
  every schema field, and maps canonically-equal spellings (float-typed
  whole numbers, shuffled key order, tuples for lists, omitted
  defaults) to the *same* normalized dict.
* **Canonically-equal params share one cache key** — the service keys
  results by ``cache_key({"kind": ..., "params": <normalized>}, seed)``,
  so respelled requests must address the same cache entry.
* **Grid kinds survive the cluster wire** — ``bind(params, seed)``
  round-trips through ``task_from_callable`` → wire JSON →
  ``ClusterTask.from_wire`` → ``bind()`` with the same function and
  kwargs, and the sweep spec reproduces the grid exactly.

No points are ever executed here; these are pure table properties.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.protocol import ClusterTask, SweepSpec, task_from_callable
from repro.service.cache import cache_key, canonical_json
from repro.sim.catalog import (
    MAX_GRID_POINTS,
    MAX_SAMPLES,
    MAX_TRACE_ACCESSES,
    SWEEP_KINDS,
    SweepValidationError,
)
from repro.alloc.spec import available_placements
from repro.ownership.hashing import available_hash_kinds
from repro.traces.workloads import SPEC2000_PROFILES

_ENGINE = st.sampled_from(["fast", "reference"])
_INT_LIST = st.lists(st.integers(1, 10_000), min_size=1, max_size=3)
_POW2_LIST = st.lists(
    st.sampled_from([256, 1024, 4096, 65536]), min_size=1, max_size=3
)

#: Raw-request strategies, one per table row.  Bounds mirror the
#: ParamSpec schema so every draw is admissible.
PARAMS = {
    "fig4a": st.fixed_dictionaries({
        "n_values": _INT_LIST,
        "w_values": _INT_LIST,
        "samples": st.integers(1, MAX_SAMPLES),
        "concurrency": st.integers(2, 64),
        "engine": _ENGINE,
    }),
    "fig2a": st.fixed_dictionaries({
        "n_values": _POW2_LIST,
        "w_values": _INT_LIST,
        "samples": st.integers(1, MAX_SAMPLES),
        "concurrency": st.integers(2, 64),
        "threads": st.integers(1, 64),
        "accesses": st.integers(100, MAX_TRACE_ACCESSES),
        "engine": _ENGINE,
    }),
    "fig3": st.fixed_dictionaries({
        "benchmarks": st.lists(
            st.sampled_from(sorted(SPEC2000_PROFILES)),
            min_size=1, max_size=3, unique=True,
        ),
        "traces": st.integers(1, 1000),
        "accesses": st.integers(1000, MAX_TRACE_ACCESSES),
        "victim": st.integers(0, 64),
        "engine": _ENGINE,
    }),
    "closed": st.fixed_dictionaries({
        "n_values": _INT_LIST,
        "c_values": st.lists(st.integers(1, 63), min_size=1, max_size=3),
        "w_values": _INT_LIST,
        "alpha": st.integers(0, 5),
        "engine": _ENGINE,
    }),
    "model": st.fixed_dictionaries({
        "n_values": _INT_LIST,
        "w_values": _INT_LIST,
        "concurrency": st.integers(2, 1024),
        "alpha": st.floats(0.0, 100.0, allow_nan=False),
    }),
    "placement": st.fixed_dictionaries({
        "n_values": _POW2_LIST,
        "placements": st.lists(
            st.sampled_from(available_placements()),
            min_size=1, max_size=3, unique=True,
        ),
        "hash_kinds": st.lists(
            st.sampled_from(available_hash_kinds()),
            min_size=1, max_size=3, unique=True,
        ),
        "w": st.integers(1, 16),
        "concurrency": st.integers(2, 16),
        "samples": st.integers(1, MAX_SAMPLES),
        "objects": st.integers(128, 65536),  # >= 8 * max w
        "skew": st.floats(0.1, 2.0, allow_nan=False),
        "write_fraction": st.floats(0.05, 1.0, allow_nan=False),
    }),
    "fig7": st.fixed_dictionaries({
        "n_values": _POW2_LIST,
        "w_values": st.lists(st.integers(1, 16), min_size=1, max_size=3),
        "tables": st.lists(
            st.sampled_from(["tagless", "tagged"]),
            min_size=1, max_size=2, unique=True,
        ),
        "placement": st.sampled_from(available_placements()),
        "hash_kind": st.sampled_from(available_hash_kinds()),
        "concurrency": st.integers(2, 16),
        "rounds": st.integers(1, 10_000),
        "objects": st.integers(128, 65536),
        "skew": st.floats(0.1, 2.0, allow_nan=False),
        "write_fraction": st.floats(0.05, 1.0, allow_nan=False),
    }),
}

KIND_NAMES = sorted(SWEEP_KINDS)


def respell(params: dict) -> dict:
    """An equivalent-but-different spelling of a raw request: reversed
    key order, whole ints as floats, lists as tuples."""
    def blur(v):
        if isinstance(v, bool):
            return v
        if isinstance(v, int):
            return float(v)
        if isinstance(v, (list, tuple)):
            return tuple(blur(item) for item in v)
        return v

    return {key: blur(params[key]) for key in reversed(list(params))}


class TestValidationNormalForm:
    @given(data=st.data(), kind_name=st.sampled_from(KIND_NAMES))
    @settings(max_examples=60, deadline=None)
    def test_validate_is_idempotent_and_total(self, data, kind_name):
        kind = SWEEP_KINDS[kind_name]
        raw = data.draw(PARAMS[kind_name])
        normalized = kind.validate(raw)
        assert kind.validate(normalized) == normalized
        assert set(normalized) == {spec.name for spec in kind.params}

    @given(data=st.data(), kind_name=st.sampled_from(KIND_NAMES))
    @settings(max_examples=60, deadline=None)
    def test_respelled_requests_normalize_identically(self, data, kind_name):
        kind = SWEEP_KINDS[kind_name]
        raw = data.draw(PARAMS[kind_name])
        assert kind.validate(respell(raw)) == kind.validate(raw)

    def test_defaults_fill_the_whole_schema(self):
        for name in ("fig4a", "fig2a", "fig3", "placement", "fig7"):
            kind = SWEEP_KINDS[name]
            assert set(kind.validate({})) == {spec.name for spec in kind.params}

    def test_grid_ceiling_enforced(self):
        too_big = {
            "n_values": list(range(1, 66)),       # 65 axis values
            "w_values": list(range(1, 65)),       # x 64 = 4160 points
        }
        with pytest.raises(SweepValidationError, match=f"{MAX_GRID_POINTS}-point"):
            SWEEP_KINDS["fig4a"].validate(too_big)


class TestCacheKeyEquivalence:
    @given(
        data=st.data(),
        kind_name=st.sampled_from(KIND_NAMES),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_params_share_one_key(self, data, kind_name, seed):
        """The service-layer key (normalized params) and the raw
        canonical encoding both collapse equivalent spellings."""
        kind = SWEEP_KINDS[kind_name]
        raw = data.draw(PARAMS[kind_name])
        blurred = respell(raw)
        assert canonical_json(raw) == canonical_json(blurred)
        keys = {
            cache_key({"kind": kind_name, "params": kind.validate(spelling)}, seed)
            for spelling in (raw, blurred)
        }
        assert len(keys) == 1

    @given(data=st.data(), kind_name=st.sampled_from(KIND_NAMES))
    @settings(max_examples=30, deadline=None)
    def test_seed_and_kind_separate_keys(self, data, kind_name):
        kind = SWEEP_KINDS[kind_name]
        params = kind.validate(data.draw(PARAMS[kind_name]))
        base = cache_key({"kind": kind_name, "params": params}, 0)
        assert cache_key({"kind": kind_name, "params": params}, 1) != base
        assert cache_key({"kind": "other", "params": params}, 0) != base


class TestClusterWireRoundTrip:
    CLUSTERABLE = [name for name in KIND_NAMES if SWEEP_KINDS[name].clusterable]

    def test_clusterable_rows(self):
        assert self.CLUSTERABLE == [
            "closed", "fig2a", "fig3", "fig4a", "fig7", "placement",
        ]
        assert not SWEEP_KINDS["model"].clusterable  # closed-form: no grid

    @given(
        data=st.data(),
        kind_name=st.sampled_from(
            ["closed", "fig2a", "fig3", "fig4a", "fig7", "placement"]
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_bound_point_survives_wire_json(self, data, kind_name, seed):
        kind = SWEEP_KINDS[kind_name]
        params = kind.validate(data.draw(PARAMS[kind_name]))
        task = task_from_callable(kind.bind(params, seed))
        payload = json.loads(json.dumps(task.to_wire()))
        rebuilt = ClusterTask.from_wire(payload).bind()
        assert rebuilt.func is kind.point
        assert rebuilt.keywords == kind.wire_kwargs(params, seed)

    @given(
        data=st.data(),
        kind_name=st.sampled_from(
            ["closed", "fig2a", "fig3", "fig4a", "fig7", "placement"]
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_sweep_spec_reproduces_grid(self, data, kind_name, seed):
        kind = SWEEP_KINDS[kind_name]
        params = kind.validate(data.draw(PARAMS[kind_name]))
        grid = kind.grid(params)
        spec = SweepSpec.build(
            task_from_callable(kind.bind(params, seed)), grid, run_id="prop-test"
        )
        respun = SweepSpec.from_wire(json.loads(json.dumps(spec.to_wire())))
        assert respun == spec
        rebuilt = [p for c in respun.chunks() for p in respun.points(c)]
        assert rebuilt == [dict(p) for p in grid]
