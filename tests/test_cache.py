"""Unit tests for the set-associative cache model."""

import pickle
import random

import pytest

from repro.sim.cache import Cache, CacheGeometry


def small_cache(ways=2, sets=4, line=64):
    return Cache(CacheGeometry(size_bytes=ways * sets * line, ways=ways,
                               line_bytes=line))


class TestGeometry:
    def test_num_sets(self):
        geometry = CacheGeometry(size_bytes=32 * 1024, ways=4)
        assert geometry.num_sets == 128

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(size_bytes=0, ways=4)
        with pytest.raises(ValueError):
            CacheGeometry(size_bytes=100, ways=3)  # not a multiple


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        hit, _ = cache.access(0)
        assert not hit
        hit, _ = cache.access(0)
        assert hit

    def test_same_line_different_words_hit(self):
        cache = small_cache()
        cache.access(0)
        hit, _ = cache.access(63)
        assert hit

    def test_adjacent_lines_are_distinct(self):
        cache = small_cache()
        cache.access(0)
        hit, _ = cache.access(64)
        assert not hit

    def test_miss_rate(self):
        cache = small_cache()
        cache.access(0)
        cache.access(0)
        assert cache.miss_rate == pytest.approx(0.5)


class TestLru:
    def test_eviction_follows_lru_order(self):
        cache = small_cache(ways=2, sets=1)
        cache.access(0)      # line A
        cache.access(64)     # line B
        cache.access(128)    # line C evicts A (LRU)
        assert not cache.probe(0)
        assert cache.probe(64)
        assert cache.probe(128)

    def test_touch_refreshes_lru(self):
        cache = small_cache(ways=2, sets=1)
        cache.access(0)      # A
        cache.access(64)     # B
        cache.access(0)      # touch A: B is now LRU
        cache.access(128)    # C evicts B
        assert cache.probe(0)
        assert not cache.probe(64)

    def test_probe_does_not_disturb_lru(self):
        cache = small_cache(ways=2, sets=1)
        cache.access(0)
        cache.access(64)
        cache.probe(0)       # must NOT refresh A
        cache.access(128)    # evicts A (still LRU)
        assert not cache.probe(0)


class TestWritebacks:
    def test_clean_eviction_returns_no_victim(self):
        cache = small_cache(ways=1, sets=1)
        cache.access(0, is_write=False)
        _, victim = cache.access(64)
        assert victim is None

    def test_dirty_eviction_returns_victim_address(self):
        cache = small_cache(ways=1, sets=1)
        cache.access(0, is_write=True)
        _, victim = cache.access(64)
        assert victim == 0
        assert cache.writebacks == 1

    def test_write_hit_marks_dirty(self):
        cache = small_cache(ways=1, sets=1)
        cache.access(0, is_write=False)
        cache.access(0, is_write=True)
        _, victim = cache.access(64)
        assert victim == 0

    def test_dirty_bit_survives_read_touch(self):
        cache = small_cache(ways=1, sets=1)
        cache.access(0, is_write=True)
        cache.access(0, is_write=False)
        _, victim = cache.access(64)
        assert victim == 0


class TestMaintenance:
    def test_invalidate(self):
        cache = small_cache()
        cache.access(0)
        assert cache.invalidate(0)
        assert not cache.probe(0)
        assert not cache.invalidate(0)

    def test_flush(self):
        cache = small_cache()
        for i in range(4):
            cache.access(i * 64)
        cache.flush()
        assert cache.resident_lines == 0

    def test_resident_lines(self):
        cache = small_cache(ways=2, sets=4)
        for i in range(3):
            cache.access(i * 64)
        assert cache.resident_lines == 3


class TestSetMapping:
    def test_lines_map_to_distinct_sets(self):
        cache = small_cache(ways=1, sets=4)
        # Four consecutive lines fill four different sets: no evictions.
        for i in range(4):
            cache.access(i * 64)
        assert cache.resident_lines == 4

    def test_set_conflict_with_stride(self):
        cache = small_cache(ways=1, sets=4)
        cache.access(0)
        cache.access(4 * 64)   # same set (stride = sets * line)
        assert not cache.probe(0)


class ListLru:
    """Reference LRU model: per set, a list of ``[line, dirty]`` pairs
    from least to most recently used."""

    def __init__(self, ways, sets, line):
        self.ways, self.line = ways, line
        self.sets = [[] for _ in range(sets)]
        self.hits = self.misses = self.writebacks = 0

    def _find(self, address):
        line = address // self.line
        ways = self.sets[line % len(self.sets)]
        for index, entry in enumerate(ways):
            if entry[0] == line:
                return ways, line, index
        return ways, line, None

    def _touch(self, ways, index, is_write):
        entry = ways.pop(index)
        entry[1] = entry[1] or is_write
        ways.append(entry)
        self.hits += 1

    def access(self, address, is_write):
        ways, line, index = self._find(address)
        if index is not None:
            self._touch(ways, index, is_write)
            return True, None
        self.misses += 1
        victim = None
        if len(ways) >= self.ways:
            victim_line, victim_dirty = ways.pop(0)
            if victim_dirty:
                victim = victim_line * self.line
                self.writebacks += 1
        ways.append([line, is_write])
        return False, victim

    def access_if_present(self, address, is_write):
        ways, _line, index = self._find(address)
        if index is None:
            return False
        self._touch(ways, index, is_write)
        return True

    def probe(self, address):
        return self._find(address)[2] is not None

    def invalidate(self, address):
        ways, _line, index = self._find(address)
        if index is None:
            return False
        del ways[index]
        return True

    @property
    def resident_lines(self):
        return sum(len(ways) for ways in self.sets)


class TestAgainstReferenceLru:
    """Seeded random operation sequences: the cache must match a
    list-based LRU model step for step, and a pickled copy taken mid-way
    must continue exactly as the original does."""

    OPS = ("access", "access", "access", "access_if_present", "probe",
           "invalidate")

    @pytest.mark.parametrize("ways, sets, line", [
        (4, 4, 64),   # shift/mask indexing
        (3, 3, 48),   # div/mod indexing
    ])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_list_model(self, ways, sets, line, seed):
        rng = random.Random(seed)
        cache = small_cache(ways=ways, sets=sets, line=line)
        model = ListLru(ways, sets, line)
        span = 3 * ways * sets * line   # three times the capacity
        steps = 600
        subjects = [cache]
        for step in range(steps):
            if step == steps // 2:
                subjects.append(pickle.loads(pickle.dumps(cache)))
            op = rng.choice(self.OPS)
            address = rng.randrange(span)
            args = (address,) if op in ("probe", "invalidate") \
                else (address, rng.random() < 0.4)
            expected = getattr(model, op)(*args)
            for subject in subjects:
                assert getattr(subject, op)(*args) == expected, (step, op)
                assert (subject.hits, subject.misses, subject.writebacks,
                        subject.resident_lines) == (
                    model.hits, model.misses, model.writebacks,
                    model.resident_lines), (step, op)
        assert model.writebacks > 0 and model.hits > 0
