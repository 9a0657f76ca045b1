"""Tests for repro.ownership.hashing: range, determinism, structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ownership.hashing import (
    MaskHash,
    MultiplicativeHash,
    XorFoldHash,
    available_hash_kinds,
    make_hash,
)

ALL_KINDS = ["mask", "multiplicative", "xorfold"]


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestCommonContract:
    @given(addr=st.integers(min_value=0, max_value=2**62))
    @settings(max_examples=100, deadline=None)
    def test_in_range(self, kind, addr):
        h = make_hash(kind, 4096)
        assert 0 <= h(addr) < 4096

    def test_deterministic(self, kind):
        h = make_hash(kind, 1024)
        assert h(123456) == h(123456)

    def test_scalar_returns_int(self, kind):
        h = make_hash(kind, 256)
        assert isinstance(h(17), int)

    def test_vectorized_matches_scalar(self, kind):
        h = make_hash(kind, 2048)
        addrs = np.array([0, 1, 5, 1 << 20, (1 << 40) + 3], dtype=np.int64)
        vec = h(addrs)
        assert isinstance(vec, np.ndarray)
        assert list(vec) == [h(int(a)) for a in addrs]

    def test_rejects_non_power_of_two(self, kind):
        with pytest.raises(ValueError):
            make_hash(kind, 1000)

    @given(addr=st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=50, deadline=None)
    def test_tag_plus_index_identifies_block(self, kind, addr):
        """Distinct blocks must differ in (index, tag) — tagged tables
        rely on the pair being injective."""
        h = make_hash(kind, 512)
        other = addr + 512 if kind == "mask" else addr + 1
        assert (h(addr), int(np.asarray(h.tag_of(addr)))) != (
            h(other),
            int(np.asarray(h.tag_of(other))),
        ) or addr == other


class TestMaskHash:
    def test_low_bits(self):
        h = MaskHash(4096)
        assert h(0x1ABC) == 0xABC

    def test_consecutive_addresses_consecutive_entries(self):
        """The §4 structural property of 'many hash functions'."""
        h = MaskHash(1 << 12)
        base = 777
        out = h(np.arange(base, base + 100, dtype=np.int64))
        assert np.all(np.diff(out) % (1 << 12) == 1)

    def test_tag_is_high_bits(self):
        h = MaskHash(4096)
        assert h.tag_of(0x1ABC) == 0x1


class TestMultiplicativeHash:
    def test_breaks_arithmetic_progressions(self):
        """Stride-N inputs should not collapse to few entries."""
        h = MultiplicativeHash(1 << 10)
        addrs = (1 << 10) * np.arange(1000, dtype=np.int64)
        distinct = len(np.unique(h(addrs)))
        assert distinct > 600  # mask hash would give exactly 1

    def test_spread_uniformity(self):
        h = MultiplicativeHash(256)
        addrs = np.arange(100_000, dtype=np.int64)
        counts = np.bincount(np.asarray(h(addrs)), minlength=256)
        assert counts.min() > 0.5 * counts.mean()
        assert counts.max() < 2.0 * counts.mean()


class TestXorFoldHash:
    def test_differs_from_mask_on_high_bits(self):
        n = 1 << 10
        xf, mask = XorFoldHash(n), MaskHash(n)
        addr = (1 << 15) + 5
        # mask ignores high bits entirely; xorfold folds them in
        assert mask(addr) == mask(5)
        assert xf(addr) != xf(5) or True  # folding may coincide; check spread below

    def test_stride_n_spread(self):
        n = 1 << 10
        xf = XorFoldHash(n)
        addrs = n * np.arange(512, dtype=np.int64)
        assert len(np.unique(xf(addrs))) > 256


class TestMakeHash:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown hash kind"):
            make_hash("sha256", 64)

    def test_unknown_kind_error_lists_options(self):
        """The registry error names every valid kind — catalog admission
        forwards this exact message as the service's 400 body."""
        with pytest.raises(ValueError) as excinfo:
            make_hash("crc32", 64)
        message = str(excinfo.value)
        for kind in available_hash_kinds():
            assert kind in message

    def test_available_kinds_sorted_and_constructible(self):
        kinds = available_hash_kinds()
        assert kinds == tuple(sorted(kinds))
        for kind in kinds:
            assert make_hash(kind, 64).n_entries == 64

    @pytest.mark.parametrize("kind,cls", [("mask", MaskHash), ("multiplicative", MultiplicativeHash), ("xorfold", XorFoldHash)])
    def test_dispatch(self, kind, cls):
        assert isinstance(make_hash(kind, 64), cls)


SCALAR_ADDRS = [0, 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]
SCALAR_TYPES = {
    "int": int,
    "bool": bool,
    "np.int64": np.int64,
    "np.uint64": np.uint64,
    "0-d array": lambda a: np.asarray(a, dtype=np.uint64),
}
# bool holds only 0 and 1; int64 stops below 2**63.
SCALAR_CASES = [
    (type_name, addr)
    for type_name in sorted(SCALAR_TYPES)
    for addr in SCALAR_ADDRS
    if not (type_name == "bool" and addr > 1)
    and not (type_name == "np.int64" and addr >= 2**63)
]


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [1, 2, 1024, 2**20])
class TestScalarPath:
    """Scalars hash to exactly what the vectorized path returns.

    Plain ``int`` addresses take an integer-arithmetic shortcut; every
    other scalar goes through numpy.  Both must agree with one element
    of an array call, value and ``int`` type, across the 64-bit range.
    """

    @pytest.mark.parametrize("type_name,addr", SCALAR_CASES)
    def test_scalar_matches_array(self, kind, n, type_name, addr):
        h = make_hash(kind, n)
        scalar = SCALAR_TYPES[type_name](addr)
        arr = np.array([addr], dtype=np.uint64)
        for fn, expected in ((h, h(arr)[0]), (h.tag_of, h.tag_of(arr)[0])):
            got = fn(scalar)
            assert type(got) is int
            assert got == int(expected)

    @pytest.mark.parametrize("addr", [-1, -(2**63), 2**64, 2**70])
    def test_out_of_range_int_raises(self, kind, n, addr):
        h = make_hash(kind, n)
        with pytest.raises(OverflowError):
            h(addr)
        with pytest.raises(OverflowError):
            h.tag_of(addr)
