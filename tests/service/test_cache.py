"""Tests for the content-addressed result cache.

The cache-key canonicalization tests are the satellite requirement:
dict key order, int-vs-float spelling, and nesting depth must not
change the SHA-256 address, because JSON clients spell the same request
many ways and each spelling must hit the same cache entry.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.service.cache import ResultCache, cache_key, canonical_json


class TestCanonicalJson:
    def test_dict_key_order_erased(self):
        a = {"w": 8, "n": 4096, "samples": 100}
        b = {"samples": 100, "n": 4096, "w": 8}
        assert canonical_json(a) == canonical_json(b)
        assert cache_key(a) == cache_key(b)

    def test_int_vs_float_normalized(self):
        assert canonical_json({"w": 8}) == canonical_json({"w": 8.0})
        assert cache_key({"w": 8}) == cache_key({"w": 8.0})

    def test_fractional_floats_distinct(self):
        assert cache_key({"alpha": 2.0}) != cache_key({"alpha": 2.5})

    def test_nested_structures(self):
        a = {"params": {"n_values": [512, 1024.0], "inner": {"b": 1, "a": 2.0}}}
        b = {"params": {"inner": {"a": 2, "b": 1.0}, "n_values": [512.0, 1024]}}
        assert canonical_json(a) == canonical_json(b)
        assert cache_key(a) == cache_key(b)

    def test_tuple_and_list_coincide(self):
        assert canonical_json({"xs": (1, 2)}) == canonical_json({"xs": [1, 2]})

    def test_bool_not_conflated_with_int(self):
        # JSON true and 1 are different values; True must stay a bool.
        assert canonical_json({"flag": True}) != canonical_json({"flag": 1})
        assert json.loads(canonical_json({"flag": True})) == {"flag": True}

    def test_whitespace_and_formatting_erased(self):
        text = canonical_json({"a": [1, 2], "b": {"c": 3}})
        assert " " not in text and "\n" not in text

    def test_output_is_valid_json(self):
        config = {"kind": "fig4a", "params": {"n_values": [512], "w_values": [4, 8]}}
        assert json.loads(canonical_json(config)) == config

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({1: "x"})

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestCacheKey:
    def test_key_is_sha256_hex(self):
        key = cache_key({"w": 8}, seed=0)
        assert len(key) == 64
        assert all(ch in "0123456789abcdef" for ch in key)

    def test_seed_changes_key(self):
        config = {"w": 8}
        assert cache_key(config, seed=0) != cache_key(config, seed=1)

    def test_none_seed_distinct_from_zero(self):
        config = {"w": 8}
        assert cache_key(config, seed=None) != cache_key(config, seed=0)

    def test_seed_cannot_collide_with_config_field(self):
        # Folding the seed into the addressed structure (not appending to
        # the digest) keeps seed-shaped config fields unambiguous.
        assert cache_key({"seed": 1}, seed=None) != cache_key({}, seed=1)


class TestMemoryTier:
    def test_get_put_roundtrip(self):
        cache = ResultCache(capacity=4)
        cache.put("k1", {"series": [1.0, 2.0]})
        assert cache.lookup("k1") == (True, {"series": [1.0, 2.0]})

    def test_miss_returns_none(self):
        cache = ResultCache(capacity=4)
        assert cache.lookup("nope") == (False, None)

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.lookup("a") == (True, 1)  # touch a: b becomes LRU
        cache.put("c", 3)  # evicts b
        assert cache.lookup("b") == (False, None)
        assert cache.lookup("a") == (True, 1)
        assert cache.lookup("c") == (True, 3)

    def test_eviction_counted(self):
        cache = ResultCache(capacity=1)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.stats().evictions == 1
        assert len(cache) == 1

    def test_stats_hit_ratio(self):
        cache = ResultCache(capacity=4)
        cache.put("a", 1)
        cache.lookup("a")
        cache.lookup("a")
        cache.lookup("missing")
        stats = cache.stats()
        assert stats.hits == 2
        assert stats.misses == 1
        assert stats.hit_ratio == pytest.approx(2 / 3)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)

    def test_lookup_distinguishes_hit_from_miss(self):
        cache = ResultCache(capacity=4)
        assert cache.lookup("k") == (False, None)
        cache.put("k", {"v": 1})
        assert cache.lookup("k") == (True, {"v": 1})

    def test_cached_none_is_a_hit(self):
        """JSON ``null`` is a legitimate cached value; ``lookup`` must
        not conflate it with a miss."""
        cache = ResultCache(capacity=4)
        cache.put("k", None)
        hit, value = cache.lookup("k")
        assert hit and value is None
        assert cache.stats().hits == 1
        assert cache.stats().misses == 0

    def test_thread_safety_smoke(self):
        cache = ResultCache(capacity=32)

        def worker(tag: int) -> None:
            for i in range(200):
                cache.put(f"k{(tag + i) % 64}", i)
                cache.lookup(f"k{i % 64}")

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 32


class TestDiskTier:
    def test_disk_round_trip(self, tmp_path):
        cache = ResultCache(capacity=4, disk_dir=tmp_path / "cache")
        value = {"kind": "fig4a", "series": {"N=512": [1.5, 2.25]}, "n": [512]}
        key = cache_key(value)
        cache.put(key, value)
        # A fresh cache over the same directory (fresh memory tier) must
        # recover the exact value from disk.
        fresh = ResultCache(capacity=4, disk_dir=tmp_path / "cache")
        assert fresh.lookup(key) == (True, value)
        assert fresh.stats().disk_hits == 1

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        cache = ResultCache(capacity=4, disk_dir=tmp_path / "cache")
        cache.put("deadbeef", [1, 2, 3])
        fresh = ResultCache(capacity=4, disk_dir=tmp_path / "cache")
        assert fresh.lookup("deadbeef") == (True, [1, 2, 3])  # from disk
        assert fresh.lookup("deadbeef") == (True, [1, 2, 3])  # now from memory
        stats = fresh.stats()
        assert stats.disk_hits == 1
        assert stats.memory_hits == 1

    def test_memory_eviction_keeps_disk_copy(self, tmp_path):
        cache = ResultCache(capacity=1, disk_dir=tmp_path / "cache")
        cache.put("aaaa", "first")
        cache.put("bbbb", "second")  # evicts aaaa from memory
        assert cache.lookup("aaaa") == (True, "first")  # served by disk
        assert cache.stats().disk_hits == 1

    def test_torn_disk_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(capacity=4, disk_dir=tmp_path / "cache")
        cache.put("cafe", {"x": 1})
        path = cache._disk_path("cafe")
        path.write_text("{not json", encoding="utf-8")
        fresh = ResultCache(capacity=4, disk_dir=tmp_path / "cache")
        assert fresh.lookup("cafe") == (False, None)

    def test_no_disk_dir_means_memory_only(self, tmp_path):
        cache = ResultCache(capacity=1)
        cache.put("aaaa", "first")
        cache.put("bbbb", "second")
        assert cache.lookup("aaaa") == (False, None)

    def test_cached_none_survives_disk_tier(self, tmp_path):
        """A stored ``None`` round-trips through disk as a *hit* — a
        fresh process must not recompute a cached null result."""
        cache = ResultCache(capacity=4, disk_dir=tmp_path / "cache")
        cache.put("nil", None)
        fresh = ResultCache(capacity=4, disk_dir=tmp_path / "cache")
        assert fresh.lookup("nil") == (True, None)
        assert fresh.stats().disk_hits == 1
        # Promoted into memory: the second lookup is a memory hit.
        assert fresh.lookup("nil") == (True, None)
        assert fresh.stats().memory_hits == 1

    def test_torn_disk_entry_is_a_lookup_miss(self, tmp_path):
        cache = ResultCache(capacity=4, disk_dir=tmp_path / "cache")
        cache.put("cafe", {"x": 1})
        cache._disk_path("cafe").write_text("{not json", encoding="utf-8")
        fresh = ResultCache(capacity=4, disk_dir=tmp_path / "cache")
        assert fresh.lookup("cafe") == (False, None)


class TestAccept:
    """A value the caller's ``accept`` refuses is a miss, in both tiers."""

    def test_refused_memory_value_is_a_miss_and_dropped(self):
        cache = ResultCache(capacity=4)
        cache.put("k", 5)
        assert cache.lookup("k", accept=lambda v: isinstance(v, list)) == (False, None)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 1)
        assert len(cache) == 0

    def test_refused_disk_value_is_a_miss_and_not_promoted(self, tmp_path):
        ResultCache(capacity=4, disk_dir=tmp_path / "cache").put("k", 5)
        fresh = ResultCache(capacity=4, disk_dir=tmp_path / "cache")
        assert fresh.lookup("k", accept=lambda v: False) == (False, None)
        stats = fresh.stats()
        assert (stats.hits, stats.disk_hits, stats.misses) == (0, 0, 1)
        assert len(fresh) == 0
        # The disk copy stays until the caller overwrites it.
        assert fresh.lookup("k") == (True, 5)

    def test_accepted_value_is_a_hit(self, tmp_path):
        seen = []
        cache = ResultCache(capacity=4, disk_dir=tmp_path / "cache")
        cache.put("k", [1, 2])
        accept = lambda v: seen.append(v) is None  # noqa: E731
        assert cache.lookup("k", accept=accept) == (True, [1, 2])
        fresh = ResultCache(capacity=4, disk_dir=tmp_path / "cache")
        assert fresh.lookup("k", accept=accept) == (True, [1, 2])
        assert seen == [[1, 2], [1, 2]]
        assert (fresh.stats().disk_hits, len(fresh)) == (1, 1)

    def test_accept_is_not_called_on_a_miss(self):
        cache = ResultCache(capacity=4)
        assert cache.lookup("absent", accept=lambda v: pytest.fail("called")) == (
            False, None)

    def test_accept_runs_outside_the_lock(self):
        cache = ResultCache(capacity=4)
        cache.put("k", 1)
        # A predicate that itself uses the cache would deadlock if it
        # ran under the cache's lock.
        assert cache.lookup("k", accept=lambda v: cache.stats().hits == 0) == (True, 1)


class TestGzipDiskTier:
    def big(self):
        # Repetitive JSON well past GZIP_DISK_THRESHOLD — the shape of a
        # real sweep payload, which compresses by an order of magnitude.
        return {"series": {f"N={n}": [float(i) for i in range(400)]
                           for n in (512, 1024, 2048)}}

    def test_large_entries_compress_on_disk(self, tmp_path):
        cache = ResultCache(capacity=4, disk_dir=tmp_path / "cache")
        value = self.big()
        cache.put("feed", value)
        gz = cache._disk_path("feed", ".json.gz")
        assert gz.exists()
        assert not cache._disk_path("feed").exists()
        raw = len(json.dumps(value, separators=(",", ":")).encode())
        assert gz.stat().st_size < raw / 2
        fresh = ResultCache(capacity=4, disk_dir=tmp_path / "cache")
        assert fresh.lookup("feed") == (True, value)

    def test_small_entries_stay_plain_json(self, tmp_path):
        cache = ResultCache(capacity=4, disk_dir=tmp_path / "cache")
        cache.put("beef", {"x": 1})
        assert cache._disk_path("beef").exists()
        assert not cache._disk_path("beef", ".json.gz").exists()

    def test_legacy_plain_entries_stay_readable(self, tmp_path):
        # Entries written before compression landed are plain .json even
        # when large; a new cache must keep serving them.
        cache = ResultCache(capacity=4, disk_dir=tmp_path / "cache")
        value = self.big()
        path = cache._disk_path("0ld1")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(value), encoding="utf-8")
        assert cache.lookup("0ld1") == (True, value)

    def test_compressed_bytes_are_deterministic(self, tmp_path):
        a = ResultCache(capacity=4, disk_dir=tmp_path / "a")
        b = ResultCache(capacity=4, disk_dir=tmp_path / "b")
        value = self.big()
        a.put("c0de", value)
        b.put("c0de", value)
        assert (a._disk_path("c0de", ".json.gz").read_bytes()
                == b._disk_path("c0de", ".json.gz").read_bytes())

    def test_torn_gzip_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(capacity=4, disk_dir=tmp_path / "cache")
        cache.put("dead", self.big())
        gz = cache._disk_path("dead", ".json.gz")
        gz.write_bytes(gz.read_bytes()[:20])  # truncate mid-stream
        fresh = ResultCache(capacity=4, disk_dir=tmp_path / "cache")
        assert fresh.lookup("dead") == (False, None)

    def test_entry_bytes_observer_sees_on_disk_size(self, tmp_path):
        sizes = []
        cache = ResultCache(capacity=4, disk_dir=tmp_path / "cache",
                            on_entry_bytes=sizes.append)
        cache.put("aaaa", {"x": 1})
        cache.put("bbbb", self.big())
        assert len(sizes) == 2
        assert sizes[0] == cache._disk_path("aaaa").stat().st_size
        assert sizes[1] == cache._disk_path("bbbb", ".json.gz").stat().st_size

    def test_observer_not_called_without_disk_tier(self):
        sizes = []
        cache = ResultCache(capacity=4, on_entry_bytes=sizes.append)
        cache.put("aaaa", {"x": 1})
        assert sizes == []
