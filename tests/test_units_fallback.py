"""Tests for the §II-C unit fallback heuristics."""

import pytest

from repro.units.fallback import UnitFallback, plausible, scan_for_unit


class TestScanForUnit:
    def test_paper_500g_example(self):
        assert scan_for_unit("500 g flour or 1 cup") == "gram"

    def test_first_unit_wins(self):
        assert scan_for_unit("1 cup or 2 tbsp") == "cup"

    def test_no_unit(self):
        assert scan_for_unit("2 eggs , beaten") is None

    def test_alias_scanned(self):
        assert scan_for_unit("2 tbsp butter") == "tablespoon"

    def test_raw_spelling_guard(self):
        # The precision guard: only tokens whose literal lower-cased
        # spelling is a known alias count.  "cups" lemmatizes to "cup"
        # but is not itself an alias, so the scan must not find it.
        assert scan_for_unit("2 cups sugar") is None
        assert scan_for_unit("2 cup sugar") == "cup"

    def test_token_memoization_is_transparent(self):
        from repro.units.fallback import _scan_token_unit

        _scan_token_unit.cache_clear()
        assert scan_for_unit("chopped fresh basil") is None
        assert scan_for_unit("chopped fresh basil") is None
        info = _scan_token_unit.cache_info()
        # Three distinct alphabetic tokens: computed once, then served
        # from the per-token memo on the repeat scan.
        assert info.misses == 3
        assert info.hits == 3
        assert _scan_token_unit("cup") == "cup"
        assert _scan_token_unit("or") is None


class TestUnitFallback:
    def test_most_frequent_unit(self):
        fb = UnitFallback()
        for _ in range(5):
            fb.observe("garlic", "clove")
        fb.observe("garlic", "teaspoon")
        # Paper: "for garlic, if the unit was not detected, it would
        # most probably be clove".
        assert fb.most_frequent_unit("garlic") == "clove"

    def test_case_insensitive_names(self):
        fb = UnitFallback()
        fb.observe("Garlic", "clove")
        assert fb.most_frequent_unit("garlic") == "clove"

    def test_unseen_returns_none(self):
        assert UnitFallback().most_frequent_unit("x") is None

    def test_plausibility_threshold(self):
        # "500 cups" of anything fails the threshold.
        assert not plausible(500.0, 236.0, 5000.0)
        assert plausible(2.0, 236.0, 5000.0)
        assert not plausible(0.0, 10.0, 5000.0)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            UnitFallback(max_grams=0.0)

    def test_distribution(self):
        fb = UnitFallback()
        fb.observe("salt", "teaspoon")
        fb.observe("salt", "teaspoon")
        fb.observe("salt", "tablespoon")
        assert fb.unit_distribution("salt") == {"teaspoon": 2, "tablespoon": 1}
        assert fb.observed_ingredients() == ["salt"]

    def test_weighted_observe_equals_repeated(self):
        repeated, weighted = UnitFallback(), UnitFallback()
        for _ in range(4):
            repeated.observe("garlic", "clove")
        weighted.observe("garlic", "clove", count=4)
        assert repeated.snapshot() == weighted.snapshot()

    def test_observe_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            UnitFallback().observe("garlic", "clove", count=0)


class TestSnapshotMerge:
    def test_sharded_merge_equals_sequential(self):
        """Contiguous shards merged in order reproduce the exact table
        — counts and insertion order — of a front-to-back scan."""
        observations = [
            ("garlic", "clove"), ("onion", "cup"), ("garlic", "teaspoon"),
            ("garlic", "clove"), ("salt", "teaspoon"), ("onion", "cup"),
            ("salt", "pinch"), ("salt", "pinch"),
        ]
        sequential = UnitFallback()
        for name, unit in observations:
            sequential.observe(name, unit)

        merged = UnitFallback()
        for start in range(0, len(observations), 3):
            shard = UnitFallback()
            for name, unit in observations[start:start + 3]:
                shard.observe(name, unit)
            merged.merge(shard.snapshot())

        assert merged.snapshot() == sequential.snapshot()
        # Key order (the most_common tie-break) must match too.
        assert list(merged.snapshot()) == list(sequential.snapshot())
        for name in ("garlic", "onion", "salt"):
            assert merged.most_frequent_unit(name) == \
                sequential.most_frequent_unit(name)

    def test_merge_preserves_tie_break_order(self):
        # "cup" and "tablespoon" tie at 1; first-observed must win,
        # also after a merge that adds the later unit first-in-shard.
        a, b = UnitFallback(), UnitFallback()
        a.observe("butter", "cup")
        b.observe("butter", "tablespoon")
        target = UnitFallback()
        target.merge(a.snapshot())
        target.merge(b.snapshot())
        assert target.most_frequent_unit("butter") == "cup"

    def test_snapshot_is_a_copy(self):
        fb = UnitFallback()
        fb.observe("salt", "teaspoon")
        snap = fb.snapshot()
        snap["salt"]["teaspoon"] = 99
        assert fb.unit_distribution("salt") == {"teaspoon": 1}
