"""Differential + property tests for the vectorized ``*_batch`` forms.

The serving layer's batch-identity contract: every ``*_batch`` entry
point is element-wise **bit-identical** to the scalar form it
vectorizes — not approximately equal, equal.  These suites pin that
with exact ``==`` comparisons (and ``math.isnan``-free inputs), across
random grids, hypothesis-generated points, and the α=0 / C=1 / W=1
edges the model algebra treats specially.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.birthday import (
    birthday_collision_probability,
    birthday_collision_probability_batch,
    people_for_collision_probability,
    people_for_collision_probability_batch,
)
from repro.core.model import (
    ModelParams,
    commit_probability,
    commit_probability_batch,
    conflict_likelihood,
    conflict_likelihood_batch,
    conflict_likelihood_product_form,
    conflict_likelihood_product_form_batch,
)
from repro.core.sizing import (
    pow2_table_entries_for_commit_probability,
    pow2_table_entries_for_commit_probability_batch,
    table_entries_for_commit_probability,
    table_entries_for_commit_probability_batch,
)

w_strategy = st.integers(min_value=0, max_value=500)
n_strategy = st.integers(min_value=1, max_value=1 << 24)
c_strategy = st.integers(min_value=1, max_value=64)
alpha_strategy = st.floats(min_value=0.0, max_value=8.0)


def _ids(cases):
    """``(kwargs, exact ValueError text)`` cases, with ids ``kwargs0``, ``kwargs1``, ..."""
    return [pytest.param(*case, id=f"kwargs{i}") for i, case in enumerate(cases)]


class TestConflictBatch:
    def test_matches_scalar_elementwise(self):
        rng = np.random.default_rng(20070609)
        w = rng.integers(0, 300, 500).astype(float)
        n = rng.integers(1, 1 << 22, 500)
        c = rng.integers(1, 48, 500)
        alpha = rng.uniform(0.0, 8.0, 500)
        raw = conflict_likelihood_batch(w, n, c, alpha)
        prob = conflict_likelihood_product_form_batch(w, n, c, alpha)
        commit = commit_probability_batch(w, n, c, alpha)
        for i in range(500):
            p = ModelParams(int(n[i]), int(c[i]), float(alpha[i]))
            assert float(conflict_likelihood(float(w[i]), p)) == raw[i]
            assert float(conflict_likelihood_product_form(float(w[i]), p)) == prob[i]
            assert float(commit_probability(float(w[i]), p)) == commit[i]

    @given(w=w_strategy, n=n_strategy, c=c_strategy, alpha=alpha_strategy)
    @settings(max_examples=200, deadline=None)
    def test_singleton_batch_matches_scalar(self, w, n, c, alpha):
        p = ModelParams(n_entries=n, concurrency=c, alpha=alpha)
        assert conflict_likelihood_batch(w, n, c, alpha)[0] == float(
            conflict_likelihood(float(w), p)
        )
        assert conflict_likelihood_product_form_batch(w, n, c, alpha)[0] == float(
            conflict_likelihood_product_form(float(w), p)
        )

    @pytest.mark.parametrize("w,n,c,alpha", [
        (1, 4096, 2, 2.0),    # W=1: the first write
        (20, 4096, 1, 2.0),   # C=1: no partner to conflict with
        (20, 4096, 2, 0.0),   # α=0: pure write streams
        (0, 1, 1, 0.0),       # all edges at once
        (1, 1, 1, 0.0),
    ])
    def test_edges_match_scalar(self, w, n, c, alpha):
        p = ModelParams(n_entries=n, concurrency=c, alpha=alpha)
        assert conflict_likelihood_batch(w, n, c, alpha)[0] == float(
            conflict_likelihood(float(w), p)
        )

    def test_c1_is_zero_everywhere(self):
        raw = conflict_likelihood_batch([1.0, 10.0, 100.0], 4096, 1, 2.0)
        assert np.all(raw == 0.0)

    def test_position_independence(self):
        # An element's value must not depend on its batch neighbours.
        alone = conflict_likelihood_batch(20, 4096, 4, 2.0)[0]
        crowd = conflict_likelihood_batch(
            [1, 20, 300], [7, 4096, 9], [2, 4, 33], [0.0, 2.0, 7.5]
        )[1]
        assert alone == crowd

    def test_broadcasting(self):
        raw = conflict_likelihood_batch([10, 20, 30], 4096)
        assert raw.shape == (3,)
        assert raw[1] == conflict_likelihood_batch(20, 4096)[0]

    @pytest.mark.parametrize("kwargs,message", _ids([
        ({"w": [-1.0], "n": 4096}, "write footprint W must be non-negative"),
        ({"w": 10, "n": 0}, "n_entries must be positive integers"),
        ({"w": 10, "n": 4096.5}, "n_entries must be positive integers"),
        ({"w": 10, "n": 4096, "c": 0}, "concurrency must be integers >= 1"),
        ({"w": 10, "n": 4096, "c": 2.5}, "concurrency must be integers >= 1"),
        ({"w": 10, "n": 4096, "alpha": -0.1}, "alpha must be non-negative"),
        ({"w": float("nan"), "n": 4096}, "batch parameter 'w' must be finite everywhere"),
        ({"w": float("inf"), "n": 4096}, "batch parameter 'w' must be finite everywhere"),
        ({"w": [1, 2], "n": [1, 2, 3]},
         "batch parameters w, n, c, alpha must broadcast to a common length"),
        ({"w": [[1.0]], "n": 4096}, "batch parameters must be scalars or 1-D arrays"),
    ]))
    def test_rejects_bad_points(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            conflict_likelihood_batch(**kwargs)


class TestSizingBatch:
    def test_matches_scalar_elementwise(self):
        rng = np.random.default_rng(20070609)
        w = rng.integers(1, 5000, 400)
        commit = rng.uniform(1e-9, 1.0 - 1e-12, 400)
        c = rng.integers(2, 64, 400)
        alpha = rng.uniform(0.0, 8.0, 400)
        alpha[:40] = 0.0
        entries = table_entries_for_commit_probability_batch(
            w, commit, concurrency=c, alpha=alpha
        )
        pow2 = pow2_table_entries_for_commit_probability_batch(
            w, commit, concurrency=c, alpha=alpha
        )
        for i in range(400):
            scalar = table_entries_for_commit_probability(
                int(w[i]), float(commit[i]), concurrency=int(c[i]), alpha=float(alpha[i])
            )
            assert scalar == entries[i]
            assert pow2_table_entries_for_commit_probability(
                int(w[i]), float(commit[i]), concurrency=int(c[i]), alpha=float(alpha[i])
            ) == pow2[i]
            assert pow2[i] == 1 << (int(scalar) - 1).bit_length()

    @given(
        w=st.integers(min_value=1, max_value=10_000),
        commit=st.floats(min_value=1e-9, max_value=1.0 - 1e-12,
                         allow_nan=False, allow_infinity=False),
        c=st.integers(min_value=2, max_value=64),
        alpha=alpha_strategy,
    )
    @settings(max_examples=200, deadline=None)
    def test_singleton_batch_matches_scalar(self, w, commit, c, alpha):
        # Near commit=1 at large C·W·α the required table overflows the
        # int64 guard; scalar and batch must then agree on *rejection*.
        try:
            scalar = table_entries_for_commit_probability(
                w, commit, concurrency=c, alpha=alpha
            )
        except ValueError:
            with pytest.raises(ValueError, match="overflows"):
                table_entries_for_commit_probability_batch(
                    w, commit, concurrency=c, alpha=alpha
                )
            return
        batch = table_entries_for_commit_probability_batch(
            w, commit, concurrency=c, alpha=alpha
        )
        assert batch[0] == scalar
        assert pow2_table_entries_for_commit_probability_batch(
            w, commit, concurrency=c, alpha=alpha
        )[0] == 1 << (scalar - 1).bit_length()

    def test_paper_numbers(self):
        entries = table_entries_for_commit_probability_batch(
            [71, 71, 71], [0.5, 0.95, 0.95], concurrency=[2, 2, 8]
        )
        assert entries.tolist() == [50410, 504100, 14114800]

    def test_pow2_of_exact_power(self):
        # W=1, α=0, C=2: numerator 2, budget 0.5 -> exactly 2 entries.
        assert table_entries_for_commit_probability_batch(1, 0.5, alpha=0.0)[0] == 2
        assert pow2_table_entries_for_commit_probability_batch(1, 0.5, alpha=0.0)[0] == 2

    def test_overflow_is_value_error_scalar_and_batch(self):
        with pytest.raises(ValueError, match="overflows"):
            table_entries_for_commit_probability(10**9, 1.0 - 1e-15, concurrency=64)
        with pytest.raises(ValueError, match="overflows"):
            table_entries_for_commit_probability_batch(
                10**9, 1.0 - 1e-15, concurrency=64
            )

    @pytest.mark.parametrize("kwargs,message", _ids([
        ({"w": 0, "commit_probability": 0.5}, "W must be positive"),
        ({"w": 71, "commit_probability": 0.0}, "commit_probability must be in (0, 1)"),
        ({"w": 71, "commit_probability": 1.0}, "commit_probability must be in (0, 1)"),
        ({"w": 71, "commit_probability": 0.5, "concurrency": 1},
         "concurrency must be integers >= 2 for conflicts"),
        ({"w": 71, "commit_probability": float("nan")},
         "batch parameter 'commit_probability' must be finite everywhere"),
        ({"w": [71, 72], "commit_probability": [0.5, 0.6, 0.7]},
         "batch parameters w, commit_probability, concurrency, alpha "
         "must broadcast to a common length"),
        ({"w": [[71.0]], "commit_probability": 0.5},
         "batch parameters must be scalars or 1-D arrays"),
    ]))
    def test_rejects_bad_points(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            table_entries_for_commit_probability_batch(**kwargs)


class TestBirthdayBatch:
    def test_matches_scalar_elementwise(self):
        rng = np.random.default_rng(20070609)
        people = rng.integers(0, 800, 400)
        days = rng.integers(1, 3000, 400)
        batch = birthday_collision_probability_batch(people, days)
        for i in range(400):
            assert birthday_collision_probability(int(people[i]), int(days[i])) == batch[i]

    @given(
        people=st.integers(min_value=0, max_value=1500),
        days=st.integers(min_value=1, max_value=100_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_singleton_batch_matches_scalar(self, people, days):
        assert birthday_collision_probability_batch(people, days)[0] == (
            birthday_collision_probability(people, days)
        )

    def test_block_boundaries_are_position_independent(self):
        # Accumulation is blocked in fixed windows; values must not
        # depend on who else rides in the batch or on total width.
        days = 10**7
        alone = birthday_collision_probability_batch(5000, days)[0]
        crowd = birthday_collision_probability_batch([2, 5000, 9000], days)[1]
        assert alone == crowd
        assert alone == birthday_collision_probability(5000, days)

    def test_famous_23(self):
        batch = birthday_collision_probability_batch([22, 23], 365)
        assert batch[0] < 0.5 < batch[1]

    def test_pigeonhole_and_degenerate_rows(self):
        batch = birthday_collision_probability_batch([0, 1, 2, 366, 400], 365)
        assert batch[0] == 0.0 and batch[1] == 0.0
        assert batch[3] == 1.0 and batch[4] == 1.0
        assert 0.0 < batch[2] < 1.0

    def test_inverse_matches_scalar_elementwise(self):
        rng = np.random.default_rng(20070609)
        target = rng.uniform(1e-6, 1.0 - 1e-9, 300)
        days = rng.integers(1, 50_000, 300)
        batch = people_for_collision_probability_batch(target, days)
        for i in range(300):
            assert people_for_collision_probability(float(target[i]), int(days[i])) == batch[i]

    @given(
        target=st.floats(min_value=1e-6, max_value=1.0 - 1e-9,
                         allow_nan=False, allow_infinity=False),
        days=st.integers(min_value=1, max_value=100_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_inverse_is_the_threshold(self, target, days):
        people = int(people_for_collision_probability_batch(target, days)[0])
        assert birthday_collision_probability(people, days) >= target
        # Below the answer (but at least 2 and within the search floor),
        # the probability must be short of the target.
        import math
        estimate = int(math.sqrt(2.0 * days * math.log(1.0 / (1.0 - target))))
        floor = max(2, estimate - 2)
        if people - 1 >= floor:
            assert birthday_collision_probability(people - 1, days) < target

    def test_inverse_famous_23(self):
        assert people_for_collision_probability_batch(0.5, 365)[0] == 23
        assert people_for_collision_probability(0.5, 365) == 23

    @pytest.mark.parametrize("kwargs", [
        {"people": [-1], "days": 365},
        {"people": 10, "days": 0},
        {"people": 10.5, "days": 365},
        {"people": float("nan"), "days": 365},
        {"people": [1, 2], "days": [1, 2, 3]},
    ])
    def test_probability_rejects_bad_points(self, kwargs):
        with pytest.raises(ValueError):
            birthday_collision_probability_batch(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"target": 0.0, "days": 365},
        {"target": 1.0, "days": 365},
        {"target": float("nan"), "days": 365},
        {"target": 0.5, "days": 0},
        {"target": [0.5, 0.6], "days": [1, 2, 3]},
    ])
    def test_inverse_rejects_bad_points(self, kwargs):
        with pytest.raises(ValueError):
            people_for_collision_probability_batch(**kwargs)
