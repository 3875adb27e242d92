"""Tests for the size-capped memo cache."""

import pytest

from repro.core.estimator import NutritionEstimator
from repro.utils import BoundedCache


class TestBoundedCache:
    def test_acts_like_a_dict_under_cap(self):
        cache = BoundedCache(cap=3)
        cache["a"] = 1
        cache["b"] = 2
        assert cache["a"] == 1
        assert cache.get("missing") is None
        assert len(cache) == 2

    def test_evicts_oldest_at_cap(self):
        cache = BoundedCache(cap=3)
        for key in "abcd":
            cache[key] = key.upper()
        assert len(cache) == 3
        assert "a" not in cache
        assert list(cache) == ["b", "c", "d"]

    def test_overwrite_does_not_evict(self):
        cache = BoundedCache(cap=2)
        cache["a"] = 1
        cache["b"] = 2
        cache["a"] = 3  # update in place, no eviction
        assert cache == {"a": 3, "b": 2}

    def test_rejects_non_positive_cap(self):
        with pytest.raises(ValueError):
            BoundedCache(cap=0)

    def test_stats_count_hits_misses_evictions(self):
        cache = BoundedCache(cap=2)
        assert cache.stats() == {
            "size": 0, "cap": 2, "hits": 0, "misses": 0,
            "evictions": 0, "hit_rate": 0.0,
        }
        cache["a"] = 1
        assert cache.get("a") == 1
        assert cache.get("b") is None
        for key in "bc":
            cache[key] = key  # second insert evicts "a"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 1
        assert stats["size"] == 2
        assert stats["hit_rate"] == 0.5

    def test_stats_count_cached_none_via_sentinel(self):
        """A cached None must not be counted as a miss on re-probe
        (the matcher caches unmatched results as None)."""
        sentinel = object()
        cache = BoundedCache(cap=2)
        cache["a"] = None
        assert cache.get("a", sentinel) is None
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 0


class TestCapsAreWired:
    def test_estimator_caches_respect_cap(self):
        estimator = NutritionEstimator(cache_cap=4)
        phrases = [
            "1 cup white sugar", "2 tbsp butter", "3 eggs",
            "1 teaspoon salt", "2 cups all-purpose flour",
            "1 small onion", "1/2 lb ground beef",
        ]
        for phrase in phrases:
            estimator.estimate_ingredient(phrase)
        assert len(estimator._matcher._cache) <= 4
        # Capped caching changes memory use, never results.
        first = estimator.estimate_ingredient(phrases[0])
        fresh = NutritionEstimator().estimate_ingredient(phrases[0])
        assert first.profile == fresh.profile
