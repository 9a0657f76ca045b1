"""Content-addressed result cache for served sweep jobs.

Every sweep the service runs is a pure function of its configuration
(the determinism contract of :mod:`repro.sim.sweep`: outcomes derive
only from the grid coordinates and the seed).  That purity is worth
money at serving time — a repeated submission can be answered from a
cache keyed by *what was asked*, no matter how the request was spelled.

The key is the SHA-256 of a canonical JSON encoding of the request:

* mapping keys are sorted, so dict insertion order is erased;
* whole-valued floats are normalized to integers, so ``{"w": 8}`` and
  ``{"w": 8.0}`` address the same result (JSON clients routinely blur
  that distinction);
* the encoding is recursive, so nesting depth does not matter;
* separators are fixed and whitespace-free, so formatting is erased.

:class:`ResultCache` layers an in-memory LRU tier over an optional
on-disk tier.  The disk tier survives process restarts and is shared by
concurrent servers (writes are atomic via rename); the memory tier
bounds per-process footprint.  Hits and misses are counted per tier so
:mod:`repro.service.metrics` can export a live hit ratio.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Union

__all__ = ["CacheStats", "GZIP_DISK_THRESHOLD", "ResultCache", "cache_key", "canonical_json"]

# Disk-tier entries at or above this serialized size are gzip-compressed.
# Small entries stay plain JSON: the gzip header/dictionary overhead is
# not worth it, and plain files keep quick inspection trivial.  Large
# sweep payloads (repetitive JSON) typically compress 5-20x.
GZIP_DISK_THRESHOLD = 4096


def _canonicalize(value: Any) -> Any:
    """Normalize a JSON-able value so equivalent spellings coincide.

    Mappings lose their ordering (handled by ``sort_keys`` at dump
    time), sequences canonicalize element-wise, bools pass through
    untouched (``True`` must not become ``1``), and whole-valued floats
    collapse to ints so ``8`` and ``8.0`` hash identically.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        return value
    if isinstance(value, dict):
        canonical: dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"cache keys require string mapping keys, got {key!r}")
            canonical[key] = _canonicalize(item)
        return canonical
    if isinstance(value, (list, tuple)):
        return [_canonicalize(item) for item in value]
    return value


def canonical_json(config: Any) -> str:
    """Render ``config`` as canonical JSON text.

    Two configs that differ only in dict key order, int-vs-float
    spelling of whole numbers, tuple-vs-list sequences, or whitespace
    produce identical text — and therefore identical cache keys.
    """
    return json.dumps(
        _canonicalize(config),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def cache_key(config: Any, seed: Optional[int] = None) -> str:
    """SHA-256 content address of a (config, seed) pair, as hex.

    The seed is folded into the addressed content rather than appended
    to the digest so that ``seed=None`` and an explicit seed key cannot
    collide with seed-shaped config fields.
    """
    payload = canonical_json({"config": config, "seed": seed})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of cache traffic counters.

    ``hits``/``misses`` count lookups against the cache as a whole;
    ``memory_hits`` and ``disk_hits`` attribute each hit to the tier
    that answered it (a disk hit is promoted into memory, so it counts
    once, as a disk hit).
    """

    hits: int = 0
    misses: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total :meth:`ResultCache.lookup` calls observed."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """Two-tier content-addressed cache: in-memory LRU over optional disk.

    Values must be JSON-serializable — they are stored as JSON on disk,
    and round-tripping through JSON in the memory tier too would only
    mask type bugs, so the memory tier stores the original object and
    tests assert the disk tier round-trips.

    Thread-safe: the service's job workers and the HTTP handlers hit
    the cache concurrently.
    """

    def __init__(
        self,
        capacity: int = 128,
        *,
        disk_dir: Optional[Union[str, os.PathLike]] = None,
        on_entry_bytes: Optional[Callable[[int], None]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # Observer called with the on-disk size (post-compression) of
        # every entry written to the disk tier — the service points it
        # at the repro_cache_entry_bytes histogram.
        self.on_entry_bytes = on_entry_bytes
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, Any] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._memory_hits = 0
        self._disk_hits = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._memory)

    def _disk_path(self, key: str, suffix: str = ".json") -> Path:
        assert self.disk_dir is not None
        # Shard by prefix so huge caches do not pile one directory high.
        return self.disk_dir / key[:2] / f"{key}{suffix}"

    def lookup(
        self, key: str, accept: Optional[Callable[[Any], bool]] = None,
    ) -> tuple[bool, Optional[Any]]:
        """Look up a key; returns ``(hit, value)``.

        The flag distinguishes a genuine miss from a cached ``None``
        (sweep results are arbitrary JSON, and JSON ``null`` is a
        perfectly valid cached value).  A disk hit promotes the value
        into the memory tier (evicting LRU entries as needed) so repeat
        traffic stays off the disk.

        ``accept``, called outside the lock, may refuse a found value
        (a chunk entry of the wrong shape, say): the lookup then counts
        as a miss and drops the value from the memory tier.
        """
        with self._lock:
            from_disk = key not in self._memory
            if not from_disk:
                self._memory.move_to_end(key)
                value = self._memory[key]
        hit, value = self._disk_lookup(key) if from_disk else (True, value)
        refused = hit and accept is not None and not accept(value)
        with self._lock:
            if refused and key in self._memory and self._memory[key] is value:
                del self._memory[key]
            if refused or not hit:
                self._misses += 1
                return False, None
            self._hits += 1
            if from_disk:
                self._disk_hits += 1
                self._memory_put(key, value)
            else:
                self._memory_hits += 1
            return True, value

    def put(self, key: str, value: Any) -> None:
        """Store a value under a content address, in both tiers."""
        if self.disk_dir is not None:
            self._disk_put(key, value)
        with self._lock:
            self._memory_put(key, value)

    def stats(self) -> CacheStats:
        """Snapshot the traffic counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                memory_hits=self._memory_hits,
                disk_hits=self._disk_hits,
                evictions=self._evictions,
            )

    def clear(self) -> None:
        """Drop the memory tier (the disk tier, if any, is kept)."""
        with self._lock:
            self._memory.clear()

    # -- internals ----------------------------------------------------

    def _memory_put(self, key: str, value: Any) -> None:
        # Caller holds the lock.
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self._evictions += 1

    def _disk_lookup(self, key: str) -> tuple[bool, Optional[Any]]:
        if self.disk_dir is None:
            return False, None
        # Compressed entries first (what new large puts write), then the
        # legacy plain-JSON form — caches written before compression
        # landed stay readable forever.  Same key means same content, so
        # whichever tier answers is equally current.
        try:
            with gzip.open(self._disk_path(key, ".json.gz"), "rt", encoding="utf-8") as fh:
                return True, json.load(fh)
        except (OSError, EOFError, json.JSONDecodeError):
            pass
        try:
            with open(self._disk_path(key), "r", encoding="utf-8") as fh:
                return True, json.load(fh)
        except (OSError, json.JSONDecodeError):
            # Missing, unreadable, or torn entry: treat as a miss; a
            # torn entry is overwritten by the next put.
            return False, None

    def _disk_put(self, key: str, value: Any) -> None:
        payload = json.dumps(value, separators=(",", ":")).encode("utf-8")
        compress = len(payload) >= GZIP_DISK_THRESHOLD
        if compress:
            # mtime=0 keeps the compressed bytes a pure function of the
            # content, like everything else under a content address.
            payload = gzip.compress(payload, 6, mtime=0)
        path = self._disk_path(key, ".json.gz" if compress else ".json")
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write-then-rename keeps concurrent readers from ever seeing a
        # half-written entry.
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        if self.on_entry_bytes is not None:
            self.on_entry_bytes(len(payload))
