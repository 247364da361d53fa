"""Unit tests for the set-associative cache."""

import pytest

from repro.config.cores import CacheConfig
from repro.memory.cache import Cache


def make_cache(size=1024, assoc=2, line=64):
    return Cache(CacheConfig(size, assoc, line_bytes=line, latency=2),
                 "test")


def test_cold_miss_then_hit():
    cache = make_cache()
    assert not cache.lookup(5)
    assert cache.fill(5) == -1
    assert cache.lookup(5)
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_lru_eviction_order():
    cache = make_cache(size=256, assoc=2)  # 2 sets, 2 ways
    sets = cache.config.num_sets
    a, b, c = 0, sets, 2 * sets  # all map to set 0
    cache.fill(a)
    cache.fill(b)
    assert cache.fill(c) == -1  # evicts a (oldest), clean: no writeback
    assert cache.probe(b) and cache.probe(c)
    assert not cache.probe(a)
    assert cache.stats.evictions == 1


def test_hit_refreshes_lru():
    cache = make_cache(size=256, assoc=2)
    sets = cache.config.num_sets
    a, b, c = 0, sets, 2 * sets
    cache.fill(a)
    cache.fill(b)
    cache.lookup(a)          # a becomes MRU
    cache.fill(c)
    assert not cache.probe(b)  # b was LRU
    assert cache.probe(a) and cache.probe(c)


def test_dirty_bit_tracking():
    cache = make_cache(size=256, assoc=1)
    cache.fill(0, dirty=True)
    # Same set: evicts 0, whose line comes back for the writeback.
    assert cache.fill(cache.config.num_sets) == 0
    assert cache.stats.dirty_evictions == 1


def test_mark_dirty():
    cache = make_cache(size=256, assoc=1)
    cache.fill(0)
    cache.mark_dirty(0)
    assert cache.fill(cache.config.num_sets) == 0


def test_reinsert_preserves_dirty():
    cache = make_cache()
    cache.fill(3, dirty=True)
    cache.fill(3, dirty=False)  # re-fill keeps the dirty bit
    # force eviction of line 3 by filling its set
    sets = cache.config.num_sets
    for way in range(1, cache.associativity):
        assert cache.fill(3 + way * sets) == -1
    assert cache.fill(3 + cache.associativity * sets) == 3


def test_probe_does_not_disturb_state():
    cache = make_cache()
    cache.fill(7)
    hits_before = cache.stats.hits
    assert cache.probe(7)
    assert not cache.probe(8)
    assert cache.stats.hits == hits_before


def test_invalidate():
    cache = make_cache()
    cache.fill(9)
    cache.invalidate(9)
    assert not cache.probe(9)


def test_occupancy():
    cache = make_cache()
    for line in range(5):
        cache.fill(line)
    assert cache.occupancy == 5


def test_occupancy_running_count_matches_sets():
    """The incremental count stays equal to the true set contents through
    re-fills, evictions and (double) invalidations."""
    cache = make_cache(size=512, assoc=2)  # 4 sets: evictions happen fast
    cache.fill(3)
    cache.fill(3, dirty=True)  # re-fill: no growth
    assert cache.occupancy == 1
    for line in range(20):  # far past capacity: evictions replace victims
        cache.fill(line)
    assert cache.occupancy == sum(len(s) for s in cache.fingerprint()[0])
    assert cache.occupancy == 512 // 64
    cache.invalidate(19)
    cache.invalidate(19)  # double-invalidate must not double-count
    cache.invalidate(12345)  # never present
    assert cache.occupancy == sum(len(s) for s in cache.fingerprint()[0])


def test_miss_rate():
    cache = make_cache()
    cache.lookup(1)   # miss
    cache.fill(1)
    cache.lookup(1)   # hit
    assert cache.stats.miss_rate == pytest.approx(0.5)


def test_capacity_never_exceeded():
    cache = make_cache(size=512, assoc=2)
    for line in range(100):
        cache.fill(line)
    assert cache.occupancy <= 512 // 64


def test_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(1000, 3, line_bytes=64)  # not a multiple
    with pytest.raises(ValueError):
        CacheConfig(64 * 3 * 2, 2, line_bytes=64)  # 3 sets: not pow2
