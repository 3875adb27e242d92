"""Tests for per-food unit resolution."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.units.gram_weights import (
    METHOD_COUNT,
    METHOD_EXACT,
    METHOD_MASS,
    METHOD_SIZE,
    METHOD_VOLUME,
    UnitResolver,
)


@pytest.fixture(scope="module")
def butter_resolver(db):
    return UnitResolver(db.get("01001"))


class TestExactResolution:
    def test_known_units(self, butter_resolver):
        assert butter_resolver.resolve("cup").grams_per_unit == 227.0
        assert butter_resolver.resolve("tbsp").grams_per_unit == 14.2
        assert butter_resolver.resolve("stick").grams_per_unit == 113.0
        assert butter_resolver.resolve("pat").grams_per_unit == 5.0
        for unit in ("cup", "tbsp"):
            assert butter_resolver.resolve(unit).method == METHOD_EXACT

    def test_known_units_dict(self, butter_resolver):
        known = butter_resolver.known_units()
        assert known["cup"] == 227.0
        assert known["tablespoon"] == 14.2


class TestVolumeDerivation:
    def test_paper_teaspoon_of_butter(self, butter_resolver):
        # §II-C: teaspoon is absent from butter's portions but derivable
        # because volume ratios are constant; §III: 1 tsp ≈ 35 kcal.
        resolution = butter_resolver.resolve("teaspoon")
        assert resolution is not None
        assert resolution.method == METHOD_VOLUME
        assert resolution.grams_per_unit == pytest.approx(14.2 / 3, rel=0.02)

    def test_derivation_uses_smallest_known_volume(self, butter_resolver):
        # tbsp (smaller) wins over cup as the derivation base.
        pint = butter_resolver.resolve("pint")
        assert pint.grams_per_unit == pytest.approx(14.2 * 32, rel=0.02)

    def test_no_volume_portion_no_derivation(self, db):
        # Eggs have only piece portions: volume must fail.
        resolver = UnitResolver(db.get("01123"))
        assert resolver.resolve("cup") is not None  # cup portion exists
        resolver_bacon = UnitResolver(db.get("10123"))
        assert resolver_bacon.resolve("teaspoon") is None


class TestMassResolution:
    def test_mass_needs_no_portion(self, butter_resolver):
        assert butter_resolver.resolve("gram").grams_per_unit == 1.0
        assert butter_resolver.resolve("pound").grams_per_unit == pytest.approx(453.592)
        assert butter_resolver.resolve("ounce").method == METHOD_MASS


class TestSizesAndCounts:
    def test_sizes_equivalent(self, db):
        # Zucchini has medium/large but no small portion: paper treats
        # all three sizes as equivalent under ambiguity.
        resolver = UnitResolver(db.get("11477"))
        small = resolver.resolve("small")
        assert small is not None and small.method == METHOD_SIZE

    def test_nearest_size_wins_ties_go_smaller(self, db):
        # Zucchini: medium 196 g, large 323 g.  "small" is nearest to
        # medium; "extra large" is nearest to large.
        resolver = UnitResolver(db.get("11477"))
        assert resolver.resolve("small").grams_per_unit == 196.0
        assert resolver.resolve("extra large").grams_per_unit == 323.0

    def test_estimates_do_not_depend_on_hash_seed(self):
        """Size equivalence once walked a frozenset, so "3 small
        zucchini" resolved differently under PYTHONHASHSEED=3."""
        script = (
            "from repro import NutritionEstimator, RecipeGenerator\n"
            "recipes = RecipeGenerator().generate(40)\n"
            "texts = ['3 small zucchini', '1 extra large onion']\n"
            "for r in recipes: texts.extend(r.ingredient_texts)\n"
            "table = NutritionEstimator().corpus_estimate_table("
            "{t: 1 for t in texts})\n"
            "for t in texts: print(t, repr(table[t].grams))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for seed in ("0", "3"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert "3 small zucchini 588.0" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_exact_size_preferred(self, db):
        resolver = UnitResolver(db.get("11282"))  # onion
        assert resolver.resolve("medium").grams_per_unit == 110.0
        assert resolver.resolve("large").grams_per_unit == 150.0
        assert resolver.resolve("small").grams_per_unit == 70.0

    def test_bare_count_uses_sr_sequence_order(self, db):
        # Onion: "medium" is SR's first portion (110 g).
        counted = UnitResolver(db.get("11282")).resolve(None)
        assert counted.method == METHOD_COUNT
        assert counted.grams_per_unit == 110.0
        # Egg: "large" is SR's first portion (50 g).
        assert UnitResolver(db.get("01123")).resolve(None).grams_per_unit == 50.0

    def test_bare_count_skips_measures(self, db):
        # Shallots: portions are tbsp + shallot; counting one must not
        # return the tablespoon.
        resolver = UnitResolver(db.get("11677"))
        counted = resolver.resolve(None)
        assert counted.grams_per_unit == 25.0

    def test_whole_keyword(self, db):
        resolver = UnitResolver(db.get("01123"))
        assert resolver.resolve("whole").grams_per_unit == 50.0

    def test_half_of_piece(self, db):
        resolver = UnitResolver(db.get("11282"))
        half = resolver.resolve("half")
        assert half.grams_per_unit == 55.0


class TestUnresolvable:
    def test_unknown_unit(self, butter_resolver):
        assert butter_resolver.resolve("sprig") is None

    def test_garbage_unit(self, butter_resolver):
        assert butter_resolver.resolve("zorgles") is None
