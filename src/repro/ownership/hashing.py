"""Address-to-entry hash functions for ownership tables.

The paper maps a (virtual) block address to an ownership-table entry "by
hashing the memory address" (§2.1) and notes in §4 that real programs
contain runs of consecutive addresses which "through many hash functions
map to consecutive entries of the ownership table" — i.e. the common
choice is a simple modulo/mask hash. We provide that mask hash plus two
mixing hashes so the hash-sensitivity ablation can quantify how much the
choice matters (the paper's answer: the birthday trends survive any
reasonable hash).

All hashes operate on *block* addresses (byte address already divided by
the cache-line size) and are vectorized over NumPy integer arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Union, runtime_checkable

import numpy as np

from repro.util.units import is_power_of_two, log2_int

__all__ = [
    "HashFunction",
    "MaskHash",
    "MultiplicativeHash",
    "XorFoldHash",
    "available_hash_kinds",
    "make_hash",
]

IntOrArray = Union[int, np.ndarray]

#: 64-bit golden-ratio multiplier used by Fibonacci hashing
#: (Knuth, TAOCP vol. 3 §6.4).
_GOLDEN_64 = 0x9E3779B97F4A7C15

_INT64_LIMIT = 1 << 63
_U64_MASK = (1 << 64) - 1


@runtime_checkable
class HashFunction(Protocol):
    """Maps block addresses to entry indices in ``[0, n_entries)``."""

    n_entries: int

    def __call__(self, block_addr: IntOrArray) -> IntOrArray:
        """Hash one address or an array of addresses."""
        ...

    def tag_of(self, block_addr: IntOrArray) -> IntOrArray:
        """Return the bits of the address *not* implied by the entry index.

        A tagged table stores exactly this value (§5: for a 32-bit
        architecture, 64 B blocks and a 4096-entry table only 14 tag bits
        are needed). For non-invertible hashes the full block address is
        the tag.
        """
        ...


def _as_u64(block_addr: IntOrArray) -> np.ndarray:
    arr = np.asarray(block_addr, dtype=np.uint64)
    return arr


def _is_plain(block_addr: IntOrArray, n_entries: int) -> bool:
    """Whether Python integer arithmetic gives the numpy path's exact result.

    True for a plain ``int`` (not ``bool``, not a numpy scalar) in
    ``[0, 2**63)`` on a table of at most ``2**63`` entries: every hash
    and tag then fits ``int64`` unchanged, and numpy's ``uint64`` shifts
    by 64 or more yield 0, as Python's do.  Scalar lookups from the
    ownership tables take this path; it skips a few microseconds of
    array round-trips per call.
    """
    return type(block_addr) is int and 0 <= block_addr < _INT64_LIMIT and n_entries <= _INT64_LIMIT


def _unwrap(result: np.ndarray, like: IntOrArray) -> IntOrArray:
    if np.isscalar(like) or (isinstance(like, np.ndarray) and like.ndim == 0):
        return int(result)
    return result


@dataclass(frozen=True)
class MaskHash:
    """Index = low ``log2(n)`` bits of the block address.

    This is the "many hash functions" default the paper alludes to:
    consecutive blocks map to consecutive entries. It is the cheapest
    possible hash and the one most exposed to pathological striding.
    """

    n_entries: int

    def __post_init__(self) -> None:
        if not is_power_of_two(self.n_entries):
            raise ValueError(f"MaskHash requires a power-of-two table, got {self.n_entries}")

    def __call__(self, block_addr: IntOrArray) -> IntOrArray:
        if _is_plain(block_addr, self.n_entries):
            return block_addr & (self.n_entries - 1)
        arr = _as_u64(block_addr)
        out = (arr & np.uint64(self.n_entries - 1)).astype(np.int64)
        return _unwrap(out, block_addr)

    def tag_of(self, block_addr: IntOrArray) -> IntOrArray:
        if _is_plain(block_addr, self.n_entries):
            return block_addr >> (self.n_entries.bit_length() - 1)
        arr = _as_u64(block_addr)
        out = (arr >> np.uint64(log2_int(self.n_entries))).astype(np.int64)
        return _unwrap(out, block_addr)


@dataclass(frozen=True)
class MultiplicativeHash:
    """Fibonacci (golden-ratio) multiplicative hashing.

    ``index = (addr * phi64 mod 2^64) >> (64 - log2 n)``. Breaks up
    arithmetic progressions well while staying a two-instruction hash —
    representative of what a production STM would deploy.
    """

    n_entries: int

    def __post_init__(self) -> None:
        if not is_power_of_two(self.n_entries):
            raise ValueError(
                f"MultiplicativeHash requires a power-of-two table, got {self.n_entries}"
            )

    def __call__(self, block_addr: IntOrArray) -> IntOrArray:
        if _is_plain(block_addr, self.n_entries):
            mixed = (block_addr * _GOLDEN_64) & _U64_MASK
            return mixed >> (65 - self.n_entries.bit_length())
        arr = _as_u64(block_addr)
        shift = np.uint64(64 - log2_int(self.n_entries))
        mixed = arr * np.uint64(_GOLDEN_64)  # wraps mod 2^64 by dtype
        out = (mixed >> shift).astype(np.int64)
        return _unwrap(out, block_addr)

    def tag_of(self, block_addr: IntOrArray) -> IntOrArray:
        # The multiplicative map is a bijection on 64-bit words, but the
        # dropped low bits are not simply "the rest of the address"; store
        # the full block address as the tag (correct, if not minimal).
        if _is_plain(block_addr, self.n_entries):
            return block_addr
        arr = _as_u64(block_addr).astype(np.int64)
        return _unwrap(arr, block_addr)


@dataclass(frozen=True)
class XorFoldHash:
    """XOR-fold the address into the index width before masking.

    ``index = (addr ^ (addr >> log2 n) ^ (addr >> 2·log2 n)) & (n-1)``.
    Cheap, and decorrelates the index from any single bit field of the
    address; a common choice in HTM/STM metadata proposals.
    """

    n_entries: int

    def __post_init__(self) -> None:
        if not is_power_of_two(self.n_entries):
            raise ValueError(f"XorFoldHash requires a power-of-two table, got {self.n_entries}")

    def __call__(self, block_addr: IntOrArray) -> IntOrArray:
        if _is_plain(block_addr, self.n_entries):
            bits = self.n_entries.bit_length() - 1
            folded = block_addr ^ (block_addr >> bits) ^ (block_addr >> (2 * bits))
            return folded & (self.n_entries - 1)
        arr = _as_u64(block_addr)
        bits = np.uint64(log2_int(self.n_entries))
        folded = arr ^ (arr >> bits) ^ (arr >> (bits * np.uint64(2)))
        out = (folded & np.uint64(self.n_entries - 1)).astype(np.int64)
        return _unwrap(out, block_addr)

    def tag_of(self, block_addr: IntOrArray) -> IntOrArray:
        if _is_plain(block_addr, self.n_entries):
            return block_addr
        arr = _as_u64(block_addr).astype(np.int64)
        return _unwrap(arr, block_addr)


_HASH_KINDS = {
    "mask": MaskHash,
    "multiplicative": MultiplicativeHash,
    "xorfold": XorFoldHash,
}


def available_hash_kinds() -> tuple[str, ...]:
    """Sorted names accepted by :func:`make_hash`."""
    return tuple(sorted(_HASH_KINDS))


def make_hash(kind: str, n_entries: int) -> HashFunction:
    """Construct a hash function by name (``mask``/``multiplicative``/``xorfold``)."""
    try:
        cls = _HASH_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown hash kind {kind!r}; options: {sorted(_HASH_KINDS)}") from None
    return cls(n_entries)
