"""Deterministic random-number stream management.

All simulations in :mod:`repro` are Monte Carlo experiments whose results
must be reproducible: the paper reports conflict *likelihoods* estimated
from ~1000-10000 samples per data point, so a re-run with the same seed
must regenerate the identical series.

The utilities here wrap :class:`numpy.random.SeedSequence` so that

* every experiment takes a single integer ``seed``,
* sub-streams (one per sweep point, per thread, per trace sample) are
  derived by *spawning*, never by offsetting, so adding a sweep point does
  not perturb the randomness of its neighbours, and
* a named stream (``stream_rng(seed, "fig4a", w=10, n=1024)``) is stable
  across process runs and independent of evaluation order.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = ["RngStream", "point_seed", "spawn_rngs", "stream_rng"]

_INVERT = bytes(range(255, -1, -1))  # byte b -> b ^ 0xFF, for bytes.translate


def _key_entropy(label: str, **kwargs: object) -> list[int]:
    """Hash a label plus keyword parameters into SeedSequence entropy words.

    The hash is stable across runs and Python versions (``zlib.crc32`` on a
    canonical string encoding), unlike :func:`hash`.
    """
    parts = [label]
    for key in sorted(kwargs):
        parts.append(f"{key}={kwargs[key]!r}")
    blob = "\x1f".join(parts).encode("utf-8")
    # Two independent CRCs (plain and bit-inverted input) give 64 bits of
    # label entropy, plenty to separate named streams.
    return [zlib.crc32(blob), zlib.crc32(blob.translate(_INVERT))]


def stream_rng(seed: int, label: str, **kwargs: object) -> np.random.Generator:
    """Return a generator for the named stream ``label`` under ``seed``.

    Two calls with the same ``(seed, label, kwargs)`` return identically
    seeded generators; any difference in label or parameters yields a
    statistically independent stream.

    Parameters
    ----------
    seed:
        The experiment's master seed.
    label:
        A human-readable stream name, e.g. ``"fig4a"`` or ``"closed-system"``.
    **kwargs:
        Sweep-point parameters (table size, footprint, ...) folded into the
        stream identity so each sweep point gets its own stream.
    """
    entropy = [seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF, *_key_entropy(label, **kwargs)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def point_seed(seed: int, label: str = "sweep-point", **kwargs: object) -> int:
    """Derive a stable integer sub-seed for the named point under ``seed``.

    Where :func:`stream_rng` hands back a ready generator, ``point_seed``
    returns a plain 64-bit integer that can cross a process boundary and
    later seed any consumer (a config object, another ``stream_rng``
    call).  The value depends only on ``(seed, label, kwargs)`` — never
    on which worker evaluates the point or in what order — which is what
    makes parallel sweeps bit-identical to serial ones.
    """
    entropy = [seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF, *_key_entropy(label, **kwargs)]
    state = np.random.SeedSequence(entropy).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])


def spawn_rngs(seed: int, count: int, label: str = "spawn") -> list[np.random.Generator]:
    """Spawn ``count`` independent generators from one master seed.

    Used for per-thread or per-sample streams where an indexed family is
    more natural than named streams.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    root = np.random.SeedSequence([seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF, *_key_entropy(label)])
    return [np.random.default_rng(child) for child in root.spawn(count)]


@dataclass
class RngStream:
    """A lazily-spawning family of generators rooted at one seed.

    Useful when a simulation needs an unbounded sequence of fresh,
    reproducible generators (e.g. one per restarted transaction)::

        stream = RngStream(seed=42, label="closed-system")
        rng0 = stream.next()
        rng1 = stream.next()

    The sequence of generators depends only on ``(seed, label)``.
    """

    seed: int
    label: str = "stream"
    _root: np.random.SeedSequence = field(init=False, repr=False)
    _count: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        self._root = np.random.SeedSequence(
            [self.seed & 0xFFFFFFFF, (self.seed >> 32) & 0xFFFFFFFF, *_key_entropy(self.label)]
        )

    def next(self) -> np.random.Generator:
        """Return the next generator in the family."""
        (child,) = self._root.spawn(1)
        self._count += 1
        return np.random.default_rng(child)

    @property
    def spawned(self) -> int:
        """Number of generators handed out so far."""
        return self._count

    def __iter__(self) -> Iterator[np.random.Generator]:
        while True:
            yield self.next()
