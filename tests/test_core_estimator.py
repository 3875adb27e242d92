"""Tests for the end-to-end NutritionEstimator."""

import pytest

from repro.core.estimator import (
    NutritionEstimator,
    STATUS_FULL,
    STATUS_NAME_ONLY,
    STATUS_UNMATCHED,
)
from repro.recipedb.phrases import PIROSZHKI_PHRASES
from repro.units.fallback import UnitFallback


class TestParse:
    @pytest.mark.parametrize("phrase,name,quantity,unit", [
        ("1/2 lb lean ground beef", "beef", "1/2", "lb"),
        ("1 small onion , finely chopped", "onion", "1", ""),
        ("1 tablespoon fresh dill weed", "dill weed", "1", "tablespoon"),
        ("2 cups all-purpose flour", "all-purpose flour", "2", "cups"),
        ("1 egg yolk", "egg yolk", "1", ""),
    ])
    def test_table_i_fields(self, estimator, phrase, name, quantity, unit):
        parsed = estimator.parse(phrase)
        assert parsed.name == name
        assert parsed.quantity == quantity
        assert parsed.unit == unit

    def test_alternative_keeps_first(self, estimator):
        parsed = estimator.parse("3/4 cup butter or 3/4 cup margarine , softened")
        assert parsed.name == "butter"
        assert parsed.quantity == "3/4"
        assert parsed.unit == "cup"
        assert parsed.state == "softened"

    def test_state_joined_across_segments(self, estimator):
        parsed = estimator.parse("1 hard-cooked egg , finely chopped")
        assert parsed.state == "hard-cooked chopped"

    def test_temp_extracted(self, estimator):
        parsed = estimator.parse("1 tablespoon cold water")
        assert parsed.temperature == "cold"
        assert parsed.name == "water"

    def test_size_extracted(self, estimator):
        assert estimator.parse("1 small onion").size == "small"

    def test_range_quantity_joined(self, estimator):
        parsed = estimator.parse("2 - 4 carrots , sliced")
        assert parsed.quantity == "2-4"

    def test_of_interrupted_name(self, estimator):
        parsed = estimator.parse("2 cans cream of mushroom soup")
        assert parsed.name == "cream mushroom soup"

    # ------------------------------------------------------------------
    # segmentation edge cases (ISSUE 5 satellite): alternatives,
    # packaging parentheticals, O-interrupted names, nameless phrases.

    def test_plus_alternative_keeps_first_segment(self, estimator):
        parsed = estimator.parse("1 cup flour plus 2 tablespoons flour")
        assert parsed.name == "flour"
        assert parsed.quantity == "1"
        assert parsed.unit == "cup"

    def test_or_alternative_without_name_in_first_segment(self, estimator):
        # The first segment ("to taste") carries no NAME; the primary
        # segment is the first one that does.
        parsed = estimator.parse("to taste or 1 teaspoon salt")
        assert parsed.name == "salt"
        assert parsed.quantity == "1"
        assert parsed.unit == "teaspoon"

    def test_packaging_parenthetical_keeps_outer_measure(self, estimator):
        # "(15 ounce)" must not smuggle a second quantity/unit into the
        # parse: QUANTITY and UNIT take the first contiguous run.
        parsed = estimator.parse("1 (15 ounce) can black beans")
        assert parsed.name == "black beans"
        assert parsed.quantity == "1"
        assert parsed.unit == "can"

    def test_o_interrupted_name_spans_the_gap(self, estimator):
        parsed = estimator.parse("1 can cream of mushroom soup")
        assert parsed.name == "cream mushroom soup"
        assert parsed.unit == "can"
        assert parsed.quantity == "1"

    def test_no_segment_carries_a_name(self, estimator):
        # No NAME anywhere: the primary segment falls back to the whole
        # phrase, entities still extract, and estimation reports the
        # no-name reason.
        parsed = estimator.parse("2 cups")
        assert parsed.name == ""
        assert parsed.quantity == "2"
        assert parsed.unit == "cups"
        est = estimator.estimate_ingredient("2 cups")
        assert est.status == STATUS_UNMATCHED
        assert est.reason == "no-name"

    def test_all_o_phrase(self, estimator):
        parsed = estimator.parse("to taste")
        assert parsed.name == "" and parsed.unit == "" and parsed.quantity == ""
        assert estimator.estimate_ingredient("to taste").reason == "no-name"


class TestEstimateIngredient:
    def test_full_pipeline(self, estimator):
        est = estimator.estimate_ingredient("2 cups all-purpose flour")
        assert est.status == STATUS_FULL
        assert est.match.food.ndb_no == "20081"
        assert est.grams == pytest.approx(250.0)
        assert est.calories == pytest.approx(910.0, rel=1e-3)

    def test_unmatched_ingredient(self, estimator):
        est = estimator.estimate_ingredient("2 teaspoons garam masala")
        assert est.status == STATUS_UNMATCHED
        assert est.calories == 0.0

    def test_derived_teaspoon_of_butter(self, estimator):
        est = estimator.estimate_ingredient("1 teaspoon butter")
        assert est.status == STATUS_FULL
        assert est.resolution.method == "volume-derived"
        # §III: 1 tsp butter ≈ 35 kcal.
        assert est.calories == pytest.approx(34.0, abs=5.0)

    def test_bare_count(self, estimator):
        est = estimator.estimate_ingredient("2 eggs")
        assert est.status == STATUS_FULL
        assert est.grams == pytest.approx(100.0)

    def test_range_quantity_averaged(self, estimator):
        est = estimator.estimate_ingredient("2 - 4 medium carrots")
        assert est.quantity == 3.0

    def test_missing_quantity_defaults_to_one(self, estimator):
        est = estimator.estimate_ingredient("salt to taste")
        assert est.quantity == 1.0

    def test_alias_unit(self, estimator):
        a = estimator.estimate_ingredient("2 tbsp sugar")
        b = estimator.estimate_ingredient("2 tablespoons sugar")
        assert a.grams == pytest.approx(b.grams)

    def test_scan_rescues_missing_unit(self):
        # A tagger that never emits UNIT forces the phrase scan.
        class NoUnitTagger:
            def predict(self, tokens):
                tags = []
                for t in tokens:
                    if t[0].isdigit():
                        tags.append("QUANTITY")
                    elif t.isalpha():
                        tags.append("NAME")
                    else:
                        tags.append("O")
                return tags

        estimator = NutritionEstimator(tagger=NoUnitTagger())
        est = estimator.estimate_ingredient("2 cups sugar")
        # "cups" was tagged NAME, but the matcher still finds sugar and
        # the name includes a scannable unit.
        assert est.status in (STATUS_FULL, STATUS_NAME_ONLY)

    def test_plausibility_threshold(self, estimator):
        # "500 cups water" is implausible (>118 kg); the scan finds the
        # same cup, so resolution fails through to fallback/None.
        est = estimator.estimate_ingredient("500 cups water")
        assert est.grams <= estimator.max_grams or est.status != STATUS_FULL


class TestEstimateRecipe:
    def test_piroszhki_end_to_end(self, estimator):
        recipe = estimator.estimate_recipe(list(PIROSZHKI_PHRASES), servings=6)
        assert recipe.fraction_fully_mapped == 1.0
        assert recipe.fraction_name_mapped == 1.0
        # Pastry dough + beef filling lands in plausible range.
        assert 300 <= recipe.per_serving.calories <= 800
        total = sum(i.calories for i in recipe.ingredients)
        assert recipe.total.calories == pytest.approx(total)
        assert recipe.per_serving.calories == pytest.approx(total / 6)

    def test_bad_servings(self, estimator):
        with pytest.raises(ValueError):
            estimator.estimate_recipe(["1 cup sugar"], servings=0)

    @pytest.mark.parametrize("servings", [float("nan"), float("inf")])
    def test_non_finite_servings_rejected_before_estimation(
        self, servings, monkeypatch
    ):
        """NaN would give NaN kcal and inf 0.0 kcal/serving; both
        raise ``Recipe``'s error before any line is estimated."""
        estimator = NutritionEstimator()

        def no_estimation(*args, **kwargs):
            raise AssertionError("estimated before checking servings")

        monkeypatch.setattr(estimator, "corpus_estimate_table", no_estimation)
        with pytest.raises(ValueError, match="servings must be finite"):
            estimator.estimate_recipe(["1 cup sugar"], servings=servings)
        with pytest.raises(ValueError, match="servings must be finite"):
            NutritionEstimator.finish_recipe([], servings)

    def test_empty_recipe(self, estimator):
        recipe = estimator.estimate_recipe([], servings=2)
        assert recipe.total.calories == 0.0
        assert recipe.fraction_fully_mapped == 0.0

    @pytest.mark.parametrize("quantity", ["9" * 400, "9" * 400 + "/1"])
    def test_overflowing_quantity_counts_as_one(self, estimator, quantity):
        """A quantity past float range is unparseable (quantity 1.0),
        not infinite grams or an OverflowError."""
        recipe = estimator.estimate_recipe([f"{quantity} cups sugar"])
        (line,) = recipe.ingredients
        assert line.quantity == 1.0
        assert line.grams == estimator.estimate_ingredient("1 cup sugar").grams

    def test_corpus_two_pass_fallback(self, generator):
        estimator = NutritionEstimator()
        recipes = generator.generate(30)
        results = estimator.estimate_corpus(recipes)
        assert len(results) == 30


class TestOneSemantics:
    """``estimate_recipe`` / ``estimate_ingredient`` run the two-phase
    protocol over their own lines: no order or history dependence."""

    CILANTRO = ["1 bunch cilantro", "1 cup cilantro"]

    def test_line_order_does_not_change_line_estimates(self):
        """"1 bunch" has no gram weight for cilantro; the recipe's
        own "1 cup" line rescues it in either order."""
        forward = NutritionEstimator().estimate_recipe(self.CILANTRO)
        backward = NutritionEstimator().estimate_recipe(self.CILANTRO[::-1])
        assert forward.ingredients == backward.ingredients[::-1]
        assert forward.per_serving == backward.per_serving
        bunch = forward.ingredients[0]
        assert bunch.status == STATUS_FULL and bunch.used_fallback_unit

    def test_long_lived_estimator_equals_fresh_one(self, generator):
        """Earlier, unrelated calls never change a later answer."""
        recipes = generator.generate(15)
        counts: dict[str, int] = {}
        for recipe in recipes:
            for text in recipe.ingredient_texts:
                counts[text] = counts.get(text, 0) + 1
        estimator = NutritionEstimator()
        before = estimator.estimate_recipe(["1 bunch cilantro"])
        estimator.estimate_recipe(self.CILANTRO[::-1])
        estimator.estimate_recipe(
            ["2 tablespoons garlic", "3 tbsp butter", "1 cup sugar"]
        )
        estimator.estimate_ingredient("1 cup cilantro")
        fresh = NutritionEstimator()
        assert estimator.estimate_recipe(["1 bunch cilantro"]) == before
        assert before == fresh.estimate_recipe(["1 bunch cilantro"])
        assert estimator.corpus_estimate_table(counts) == (
            fresh.corpus_estimate_table(counts)
        )

    @pytest.mark.parametrize("text", [
        "1 bunch cilantro", "1 cup cilantro", "2 cups all-purpose flour",
        "2 teaspoons garam masala", "to taste", "500 cups water",
    ])
    def test_ingredient_is_one_line_recipe(self, estimator, text):
        assert estimator.estimate_ingredient(text) == (
            estimator.estimate_recipe([text]).ingredients[0]
        )


class TestBatchEstimation:
    def test_estimate_corpus_matches_explicit_two_phase_protocol(
        self, generator
    ):
        """estimate_corpus == collect / merge / re-estimate / assemble
        spelled out by hand through the public phase methods."""
        recipes = generator.generate(25)
        result = NutritionEstimator().estimate_corpus(recipes)

        reference = NutritionEstimator()
        counts: dict[str, int] = {}
        for recipe in recipes:
            for text in recipe.ingredient_texts:
                counts[text] = counts.get(text, 0) + 1
        estimates, observations = reference.corpus_collect_estimates(
            counts.items()
        )
        stats = UnitFallback()
        stats.merge(observations)
        pending = [
            text for text, est in estimates.items()
            if est.status == STATUS_NAME_ONLY
        ]
        estimates.update(reference.corpus_fallback_estimates(pending, stats))
        expected = [
            reference.finish_recipe(
                [estimates[t] for t in r.ingredient_texts], r.servings
            )
            for r in recipes
        ]
        assert result == expected

    def test_estimate_corpus_is_order_independent(self, generator):
        """The two-phase protocol's defining property: shuffling the
        corpus permutes the results but never changes them."""
        import random

        recipes = generator.generate(40)
        shuffled = list(recipes)
        random.Random(9).shuffle(shuffled)
        by_id = {
            r.recipe_id: e
            for r, e in zip(
                recipes, NutritionEstimator().estimate_corpus(recipes)
            )
        }
        for recipe, estimate in zip(
            shuffled, NutritionEstimator().estimate_corpus(shuffled)
        ):
            assert estimate == by_id[recipe.recipe_id]
