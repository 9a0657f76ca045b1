"""Differential tests: the fast trace-driven engine vs the reference.

The optimized Figure 2 engine's contract is *byte-identical* results —
same RNG stream consumed in the same order, same windows, same batched
conflict kernel verdicts — enforced through the shared
:mod:`tests.sim.engine_contract` harness: exact equality (``==``, never
``approx``) on all result fields, across parametrized and
hypothesis-random traces, all three hash kinds, wrap-around windows,
and streams barely long enough to reach W.  Also pins the numpy
properties the vectorized start-draw path and trace layout synthesis
depend on, and covers the generalized (multi-kind) engine registry.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ownership.hashing import make_hash
from repro.sim.closed_fast import simulate_closed_system_fast
from repro.sim.closed_system import simulate_closed_system
from repro.sim.engines import ENGINES, TRACE_ENGINES, available_engines, get_engine
from repro.sim.trace_driven import (
    TraceAliasConfig,
    TraceAliasResult,
    simulate_trace_aliasing,
)
from repro.sim.trace_fast import simulate_trace_aliasing_fast
from repro.traces.events import AccessTrace, ThreadedTrace
from repro.traces.workloads import _geometric, _scalar_draws
from tests.sim.engine_contract import EngineContract, registry_test_class

CONTRACT = EngineContract(
    kind="trace",
    fields=("alias_probability", "stderr", "mean_window_accesses", "config"),
    run=lambda engine, case, *, hash_fn=None, batch=1000: engine(
        case[0], case[1], hash_fn=hash_fn, batch=batch
    ),
)


def make_stream(blocks, writes) -> AccessTrace:
    blocks = np.asarray(blocks, dtype=np.int64)
    return AccessTrace(
        blocks=blocks,
        is_write=np.asarray(writes, dtype=bool),
        instr=np.arange(len(blocks), dtype=np.int64),
    )


def random_stream(rng: np.random.Generator, length: int, universe: int,
                  write_fraction: float) -> AccessTrace:
    return make_stream(
        rng.integers(0, universe, size=length),
        rng.random(length) < write_fraction,
    )


def assert_identical(trace, cfg, *, hash_fn=None,
                     ref_batch: int = 1000, fast_batch: int = 1000) -> TraceAliasResult:
    """Both engines, exact equality on every result field."""
    return CONTRACT.assert_identical(
        (trace, cfg),
        ref_kwargs={"hash_fn": hash_fn, "batch": ref_batch},
        fast_kwargs={"hash_fn": hash_fn, "batch": fast_batch},
    )


@pytest.fixture(scope="module")
def small_trace() -> ThreadedTrace:
    """Four uneven streams — exercises the scalar start-draw path."""
    rng = np.random.default_rng(20070609)
    return ThreadedTrace(
        [random_stream(rng, 400 + 37 * t, 300, 0.4) for t in range(4)]
    )


@pytest.fixture(scope="module")
def equal_trace() -> ThreadedTrace:
    """Two equal-length streams — exercises the vectorized draw path."""
    rng = np.random.default_rng(7)
    return ThreadedTrace([random_stream(rng, 512, 200, 0.5) for _ in range(2)])


class TestDifferentialGrid:
    """Exact equality over a deliberately rough parameter grid."""

    @pytest.mark.parametrize("n", [64, 1024, 16384])
    @pytest.mark.parametrize("w", [1, 5, 20])
    def test_identical_over_nw(self, small_trace, n, w):
        assert_identical(
            small_trace,
            TraceAliasConfig(n_entries=n, write_footprint=w, samples=120, seed=n + w),
        )

    @pytest.mark.parametrize("c", [2, 3, 5, 9])
    def test_identical_over_concurrency(self, small_trace, c):
        """C above the thread count wraps round-robin onto shared streams."""
        assert_identical(
            small_trace,
            TraceAliasConfig(n_entries=512, concurrency=c, write_footprint=6,
                             samples=100, seed=c),
        )

    @pytest.mark.parametrize("hash_kind", ["mask", "multiplicative", "xorfold"])
    def test_identical_over_hash_kinds(self, small_trace, hash_kind):
        assert_identical(
            small_trace,
            TraceAliasConfig(n_entries=256, write_footprint=8, samples=100,
                             seed=3, hash_kind=hash_kind),
        )

    def test_identical_on_equal_length_streams(self, equal_trace):
        """Equal lengths take the single vectorized integers() call."""
        assert_identical(
            equal_trace,
            TraceAliasConfig(n_entries=128, write_footprint=10, samples=250, seed=11),
        )

    def test_identical_on_cleaned_jbb_trace(self, cleaned_jbb_trace):
        """The realistic workload every figure-level test runs against."""
        assert_identical(
            cleaned_jbb_trace,
            TraceAliasConfig(n_entries=4096, write_footprint=10, samples=150, seed=0),
        )

    @pytest.mark.parametrize("ref_batch,fast_batch", [(7, 13), (1000, 10), (64, 1000)])
    def test_identical_across_batch_sizes(self, small_trace, ref_batch, fast_batch):
        """Batch size is a memory knob, never a result knob."""
        assert_identical(
            small_trace,
            TraceAliasConfig(n_entries=512, write_footprint=5, samples=103, seed=9),
            ref_batch=ref_batch,
            fast_batch=fast_batch,
        )

    def test_identical_with_explicit_hash_fn(self, small_trace):
        cfg = TraceAliasConfig(n_entries=1024, write_footprint=6, samples=90, seed=2)
        assert_identical(small_trace, cfg, hash_fn=make_hash("multiplicative", 1024))

    def test_hash_size_mismatch_raises_in_both(self, small_trace):
        cfg = TraceAliasConfig(n_entries=1024, write_footprint=6, samples=10, seed=2)
        wrong = make_hash("mask", 512)
        message = CONTRACT.assert_identical_error(
            (small_trace, cfg), run_kwargs={"hash_fn": wrong}
        )
        assert "sized for" in message


class TestWindowEdges:
    """Wrap-around windows and barely-sufficient streams."""

    def test_identical_on_tiny_wrapping_streams(self):
        """Streams so short every window wraps, most more than once."""
        rng = np.random.default_rng(0)
        trace = ThreadedTrace(
            [random_stream(rng, 12, 9, 0.6), random_stream(rng, 12, 9, 0.6)]
        )
        assert_identical(
            trace,
            TraceAliasConfig(n_entries=8, write_footprint=3, samples=300, seed=1),
        )

    def test_identical_when_stream_barely_reaches_w(self):
        """One stream has exactly W distinct written blocks: the window
        must wrap however far it takes to collect all of them."""
        barely = make_stream([0, 1, 2, 3, 4, 5, 0, 1], [True] * 6 + [False] * 2)
        rng = np.random.default_rng(0)
        other = random_stream(rng, 11, 7, 1.0)
        assert_identical(
            ThreadedTrace([barely, other]),
            TraceAliasConfig(n_entries=4, write_footprint=6, samples=200, seed=2),
        )

    def test_identical_when_windows_span_whole_stream(self):
        """W equal to the distinct-write count of every stream: windows
        cover (nearly) a full cycle from every offset."""
        streams = [
            make_stream(np.arange(20) % 7, np.ones(20, dtype=bool)) for _ in range(2)
        ]
        assert_identical(
            ThreadedTrace(streams),
            TraceAliasConfig(n_entries=8, write_footprint=7, samples=150, seed=4),
        )

    def test_unreachable_w_raises_same_message(self):
        """Both engines refuse a deficient stream with the same error."""
        rng = np.random.default_rng(1)
        deficient = make_stream(rng.integers(0, 50, 40), [False] * 39 + [True])
        trace = ThreadedTrace([deficient, random_stream(rng, 30, 10, 1.0)])
        cfg = TraceAliasConfig(n_entries=8, write_footprint=5, samples=10, seed=0)
        CONTRACT.assert_identical_error(
            (trace, cfg),
            message="stream has only 1 distinct written blocks; cannot reach W=5",
        )


class TestDifferentialProperty:
    @given(
        seed=st.integers(0, 2**31 - 1),
        lengths=st.lists(st.integers(8, 120), min_size=1, max_size=4),
        universe=st.integers(4, 60),
        write_fraction=st.floats(0.2, 1.0),
        n=st.sampled_from([16, 64, 256, 1024]),
        c=st.integers(2, 5),
        w=st.integers(1, 6),
        hash_kind=st.sampled_from(["mask", "multiplicative", "xorfold"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_identical_on_random_traces(self, seed, lengths, universe,
                                        write_fraction, n, c, w, hash_kind):
        rng = np.random.default_rng(seed)
        trace = ThreadedTrace(
            [random_stream(rng, length, universe, write_fraction) for length in lengths]
        )
        cfg = TraceAliasConfig(n_entries=n, concurrency=c, write_footprint=w,
                               samples=60, seed=seed % 1000, hash_kind=hash_kind)
        try:
            simulate_trace_aliasing(trace, cfg)
        except ValueError:
            # A random stream may not reach W; the fast engine must then
            # fail identically.
            CONTRACT.assert_identical_error((trace, cfg))
            return
        assert_identical(trace, cfg)


class TestScalarVectorDraws:
    """The numpy property the vectorized start-draw path is built on.

    A scalar ``Generator.integers(0, n)`` must consume the bit stream
    exactly like one element of ``integers(0, n, size=k)``, so that the
    fast engine can draw a whole sample grid in one call whenever every
    stream has the same length.  If a numpy upgrade ever broke this,
    the differential suite would catch the divergence — this test makes
    the cause loud.
    """

    @pytest.mark.parametrize("n", [3, 100, 1000, 4096, 25_000, 10**9])
    def test_scalar_draws_equal_vector_draw(self, n):
        k = 64
        vector = np.random.default_rng(99).integers(0, n, size=k)
        rng = np.random.default_rng(99)
        scalars = [int(rng.integers(0, n)) for _ in range(k)]
        assert scalars == vector.tolist()


class TestChoiceDraws:
    """The numpy properties trace layout synthesis is built on.

    ``repro.traces.workloads._layout_new_blocks`` draws a burst kind as
    ``bisect_right(cdf, rng.random())`` instead of ``rng.choice(4, p=p)``
    and a stride as ``strides[rng.integers(0, k)]`` instead of
    ``rng.choice(strides)``.  Both must pick the same value *and* leave
    the generator in the same state; if a numpy upgrade changed
    ``Generator.choice``, every synthesized trace would silently change.
    """

    @pytest.mark.parametrize(
        "weights", [(8, 0.6, 0.18, 0.0084), (1, 1, 1, 0), (0, 1, 2, 0.5)]
    )
    def test_weighted_choice_is_bisect_of_random(self, weights):
        p = np.array(weights, dtype=np.float64) / sum(weights)
        cdf = p.cumsum()
        cdf /= cdf[-1]
        cdf = cdf.tolist()
        for seed in range(300):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(5):
                assert bisect_right(cdf, a.random()) == b.choice(4, p=p)
            assert a.random() == b.random()

    @pytest.mark.parametrize("seq", [(7, 33, 97), (5,), (1, 2, 4, 8, 16, 32, 64)])
    def test_sequence_choice_is_integers_index(self, seq):
        for seed in range(300):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(5):
                assert seq[int(a.integers(0, len(seq)))] == b.choice(seq)
            assert a.random() == b.random()


def generator_state(rng: np.random.Generator) -> dict:
    """``rng.bit_generator.state`` with arrays as lists, comparable with ``==``."""

    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x

    return plain(rng.bit_generator.state)


class TestRawDraws:
    """The numpy properties the cheaper layout draws are built on.

    ``repro.traces.workloads._geometric`` inverts one vector
    ``standard_exponential`` draw where numpy's ``geometric`` would
    (``p < 1/3``), and ``_scalar_draws`` makes ``rng.random()`` and
    ``int(rng.integers(0, n))`` from the bit generator's raw
    ``next_double``/``next_uint32`` with numpy's Lemire rejection.
    Each must give the same values *and* leave the generator in the
    same state, interleaved with ordinary numpy draws; a numpy upgrade
    that changed either algorithm fails here by name, not as a golden
    digest mismatch.
    """

    @pytest.mark.parametrize(
        "p", [0.012, 0.05, 1 / 12, 0.3125, np.nextafter(1 / 3, 0), 1 / 3, 0.45, 1e-20]
    )
    def test_geometric_equals_numpy(self, p):
        for seed in range(20):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for size in (0, 1, 1000, 4097):
                got, want = _geometric(a, p, size), b.geometric(p, size=size)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
                assert a.random() == b.random()
            assert generator_state(a) == generator_state(b)

    @pytest.mark.parametrize("bits", [np.random.PCG64, np.random.Philox])
    @pytest.mark.parametrize(
        "n", [1, 2, 3, 7, 1 << 20, 3_000_017, 2**31 + 1, 2**32 - 1, 2**32, 2**33]
    )
    def test_scalar_draws_equal_numpy(self, bits, n):
        for seed in range(20):
            a, b = np.random.Generator(bits(seed)), np.random.Generator(bits(seed))
            random, below = _scalar_draws(a)
            for step in range(30):
                assert below(n) == int(b.integers(0, n))
                if step % 3 == 0:
                    assert random() == b.random()
                elif step % 3 == 1:
                    assert a.random() == b.random()
                else:
                    assert a.geometric(0.1) == b.geometric(0.1)
            # An odd count of 32-bit draws leaves a buffered half behind.
            assert generator_state(a) == generator_state(b)


TestRegistryContract = registry_test_class(
    "trace",
    reference=simulate_trace_aliasing,
    fast=simulate_trace_aliasing_fast,
    display="trace-driven",
)


class TestEngineRegistry:
    """The generalized multi-kind registry."""

    def test_kinds(self):
        assert set(ENGINES) == {"closed", "open", "overflow", "trace"}
        for kind, registry in ENGINES.items():
            assert get_engine(kind) is registry["fast"]

    def test_legacy_helpers_match_registry(self):
        assert set(TRACE_ENGINES) == {"reference", "fast"}
        assert available_engines("trace") == ("fast", "reference")
        assert get_engine("trace") is simulate_trace_aliasing_fast
        assert get_engine("trace", "reference") is simulate_trace_aliasing
        with pytest.raises(ValueError, match="trace-driven engine 'warp'"):
            get_engine("trace", "warp")

    def test_lookup_by_name_both_kinds(self):
        assert get_engine("trace", "reference") is simulate_trace_aliasing
        assert get_engine("trace", "fast") is simulate_trace_aliasing_fast
        assert get_engine("closed", "reference") is simulate_closed_system
        assert get_engine("closed", "fast") is simulate_closed_system_fast

    def test_unknown_kind_lists_known_kinds(self):
        with pytest.raises(ValueError, match="closed, open, overflow, trace"):
            get_engine("warp")
        with pytest.raises(ValueError, match="unknown engine kind"):
            available_engines("warp")

    def test_simulate_trace_dispatches(self, equal_trace):
        """Registry dispatch: no name, "reference" and "fast" agree."""
        cfg = TraceAliasConfig(n_entries=64, write_footprint=4, samples=50, seed=6)
        default = get_engine("trace")(equal_trace, cfg)
        ref = get_engine("trace", "reference")(equal_trace, cfg)
        fast = get_engine("trace", "fast")(equal_trace, cfg)
        assert default == fast == ref
