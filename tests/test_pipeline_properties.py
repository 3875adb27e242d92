"""Property-based tests on end-to-end pipeline invariants."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.recipedb.generator import GeneratorConfig, RecipeGenerator
from repro.recipedb.ingredients import INGREDIENTS


class TestGeneratorProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_any_seed_generates_valid_recipes(self, seed):
        generator = RecipeGenerator(config=GeneratorConfig(seed=seed))
        for recipe in generator.generate(3):
            assert recipe.servings > 0
            for item in recipe.ingredients:
                assert item.truth.grams > 0
                assert item.truth.kcal >= 0
                assert len(item.tagged.tokens) == len(item.tagged.tags)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000),
           spec=st.sampled_from([s.key for s in INGREDIENTS]))
    def test_every_spec_buildable(self, seed, spec):
        import random

        from repro.recipedb.ingredients import spec_by_key

        generator = RecipeGenerator()
        item = generator.build_ingredient(spec_by_key(spec), random.Random(seed))
        assert item.truth.grams > 0
        assert "NAME" in item.tagged.tags


class TestEstimatorProperties:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 500))
    def test_profiles_nonnegative_and_additive(self, estimator, generator, seed):
        import random

        rng = random.Random(seed)
        recipe = generator.generate_recipe("RX", rng)
        result = estimator.estimate_recipe(
            recipe.ingredient_texts, recipe.servings)
        total = 0.0
        for item in result.ingredients:
            assert item.grams >= 0
            assert item.calories >= 0
            total += item.calories
        assert result.total.calories == pytest.approx(total)
        assert result.per_serving.calories == pytest.approx(
            total / recipe.servings)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.text(max_size=60))
    def test_arbitrary_text_never_crashes(self, estimator, text):
        estimate = estimator.estimate_ingredient(text)
        assert estimate.status in ("matched", "name-only", "unmatched")
        assert estimate.calories >= 0.0

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(servings=st.integers(1, 24))
    def test_servings_scale_linearly(self, estimator, servings):
        phrases = ["2 cups all-purpose flour", "1/2 cup butter"]
        one = estimator.estimate_recipe(phrases, servings=1)
        many = estimator.estimate_recipe(phrases, servings=servings)
        assert many.per_serving.calories == pytest.approx(
            one.per_serving.calories / servings)


class TestWireCodecProperties:
    """``loads_estimates(dumps_estimates(x, db), db) == x`` for any
    estimates the pipeline produces."""

    #: One line per status the wire must carry besides the generated
    #: ones: unmatched, name-only (no unit, no corpus statistics).
    FIXED = ["2 tsp garam masala", "salt"]

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 10_000), n_recipes=st.integers(1, 3),
           poisoned=st.integers(0, 50))
    def test_round_trip_is_field_for_field(
        self, estimator, seed, n_recipes, poisoned
    ):
        import dataclasses
        from collections import Counter

        from repro.core.estimator import (
            STATUS_FULL,
            STATUS_NAME_ONLY,
            STATUS_UNMATCHED,
            quarantined_estimate,
        )
        from repro.pipeline.wire import dumps_estimates, loads_estimates

        recipes = RecipeGenerator(
            config=GeneratorConfig(seed=seed)
        ).generate(n_recipes)
        counts = Counter(
            [t for r in recipes for t in r.ingredient_texts] + self.FIXED
        )
        collected, _ = estimator.corpus_collect_estimates(counts.items())
        final = estimator.corpus_estimate_table(counts)
        texts = list(counts)
        estimates = [
            *collected.values(),
            *final.values(),
            quarantined_estimate(
                texts[poisoned % len(texts)], RuntimeError("boom")
            ),
        ]
        assert {e.status for e in estimates} >= {
            STATUS_FULL, STATUS_NAME_ONLY, STATUS_UNMATCHED,
        }
        decoded = loads_estimates(
            dumps_estimates(estimates, estimator.database),
            estimator.database,
        )
        assert len(decoded) == len(estimates)
        for got, want in zip(decoded, estimates):
            assert type(got) is type(want)
            for field in dataclasses.fields(want):
                assert getattr(got, field.name) == getattr(
                    want, field.name
                ), field.name
