"""Serialized-estimate byte cache: fragment assembly and reuse.

The service's estimation endpoints assemble their response bodies
from pre-serialized per-ingredient JSON fragments, cached by
``(stats token, line text)``.  Two contracts matter:

* **byte exactness** — an assembled body is byte-identical to
  ``json.dumps`` of the monolithic dict the endpoints used to build
  (clients and the whole-response cache must not observe the
  refactor);
* **keyed invalidation** — the token binds the database fingerprint
  and the request's frozen-stats digest, so a request whose corpus
  statistics differ never replays another request's bytes, while
  repeats under the same token skip serialization entirely (the
  ``caches`` section of ``/metrics`` makes the hits observable).
"""

from __future__ import annotations

import json

import pytest

from repro.core.estimator import NutritionEstimator
from repro.recipedb.generator import GeneratorConfig, RecipeGenerator
from repro.service import codec
from repro.service.state import ServiceConfig, ServiceState


@pytest.fixture(scope="module")
def state():
    return ServiceState(ServiceConfig(port=0))


@pytest.fixture(scope="module")
def recipes():
    return RecipeGenerator(config=GeneratorConfig(seed=9)).generate(10)


def _batch_request(recipes):
    return codec.BatchRequest(
        recipes=tuple(
            codec.EstimateRequest(
                ingredients=tuple(r.ingredient_texts), servings=r.servings
            )
            for r in recipes
        )
    )


class TestAssemblyByteExactness:
    """Assembled bytes == monolithic dumps, by construction and test."""

    @pytest.fixture(scope="class")
    def recipe_estimate(self, recipes):
        estimator = NutritionEstimator()
        texts = list(recipes[0].ingredient_texts)
        table = estimator.corpus_estimate_table(
            {t: texts.count(t) for t in texts}
        )
        return NutritionEstimator.finish_recipe(
            [table[t] for t in texts], recipes[0].servings
        )

    def test_recipe_assembly_equals_dict_dump(self, recipe_estimate):
        fragments = [
            codec.dumps_ingredient_fragment(item)
            for item in recipe_estimate.ingredients
        ]
        assembled = codec.assemble_recipe_estimate_bytes(
            recipe_estimate, fragments
        )
        monolithic = json.dumps(
            codec.encode_recipe_estimate(recipe_estimate),
            separators=(",", ":"),
        ).encode("utf-8")
        assert assembled == monolithic

    def test_batch_assembly_equals_dict_dump(self, recipe_estimate):
        fragments = [
            codec.dumps_ingredient_fragment(item)
            for item in recipe_estimate.ingredients
        ]
        body = codec.assemble_recipe_estimate_bytes(
            recipe_estimate, fragments
        )
        assembled = codec.assemble_batch_bytes([body, body])
        monolithic = json.dumps(
            {
                "count": 2,
                "recipes": [
                    codec.encode_recipe_estimate(recipe_estimate)
                ] * 2,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        assert assembled == monolithic

    def test_dumps_body_passes_bytes_through(self):
        assert codec.dumps_body(b'{"x":1}') == b'{"x":1}'
        assert codec.dumps_body({"x": 1}) == b'{"x":1}'


class TestFragmentReuse:
    def test_repeat_batch_hits_fragment_cache(self, state, recipes):
        request = _batch_request(recipes)
        first = state.estimate_batch(request)
        before = state.caches_snapshot()["fragment"]
        second = state.estimate_batch(request)
        after = state.caches_snapshot()["fragment"]
        assert second == first
        distinct = len(
            {t for r in recipes for t in r.ingredient_texts}
        )
        # Every distinct line of the repeat was served from cache.
        assert after["hits"] - before["hits"] >= distinct
        assert after["misses"] == before["misses"]

    def test_different_stats_token_never_replays_bytes(self, state, recipes):
        """Same line, different batch statistics: the frozen unit
        table differs, so the token differs and the line re-renders
        instead of replaying the other batch's fragment."""
        state.estimate_batch(_batch_request(recipes[:4]))
        before = state.caches_snapshot()["fragment"]
        state.estimate_batch(_batch_request(recipes[4:8]))
        after = state.caches_snapshot()["fragment"]
        # Disjoint recipes => a different stats digest => all misses.
        assert after["misses"] > before["misses"]

    def test_estimate_and_batch_share_valid_json(self, state, recipes):
        body = json.loads(
            state.estimate(
                codec.EstimateRequest(
                    ingredients=tuple(recipes[0].ingredient_texts),
                    servings=recipes[0].servings,
                )
            )
        )
        assert set(body) == {
            "servings", "total", "per_serving",
            "fraction_fully_mapped", "fraction_name_mapped", "ingredients",
        }
        batch = json.loads(state.estimate_batch(_batch_request(recipes[:2])))
        assert batch["count"] == 2


class TestMetricsCachesSection:
    def test_caches_section_shape(self, state):
        caches = state.metrics_snapshot()["caches"]
        assert set(caches) == {"parse", "matcher", "response", "fragment"}
        for stats in caches.values():
            assert set(stats) == {
                "size", "cap", "hits", "misses", "evictions", "hit_rate",
            }
        # caches.response is the one place the response cache reports.
        assert "response_cache" not in state.metrics_snapshot()

    def test_fragment_cache_cap_is_configurable(self):
        with pytest.raises(ValueError):
            ServiceConfig(port=0, fragment_cache_cap=0)
        small = ServiceState(ServiceConfig(port=0, fragment_cache_cap=3))
        small.estimate(
            codec.EstimateRequest(
                ingredients=("1 tsp salt", "2 cups flour", "3 eggs", "butter"),
                servings=1,
            )
        )
        stats = small.caches_snapshot()["fragment"]
        assert stats["cap"] == 3
        assert stats["size"] <= 3
        assert stats["evictions"] >= 1
