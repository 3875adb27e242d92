"""Per-request fragment rendering: byte-exact assembly and reuse.

The service's estimation endpoints assemble their response bodies
from pre-serialized per-ingredient JSON fragments.  Two contracts
matter:

* **byte exactness** — an assembled body is byte-identical to
  ``json.dumps`` of the monolithic dict the endpoints used to build
  (clients and the whole-response cache must not observe the
  refactor);
* **per-request reuse** — each distinct line of a request is rendered
  once and spliced into every recipe that uses it, and nothing
  outlives the request, so a repeat renders again instead of replaying
  bytes frozen under another request's statistics (the ``caches``
  section of ``/metrics`` reports both counts under ``fragment``).
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from references import encode_recipe_estimate
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
            encode_recipe_estimate(recipe_estimate),
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
                    encode_recipe_estimate(recipe_estimate)
                ] * 2,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        assert assembled == monolithic

    def test_dumps_body_passes_bytes_through(self):
        assert codec.dumps_body(b'{"x":1}') == b'{"x":1}'
        assert codec.dumps_body({"x": 1}) == b'{"x":1}'


class TestFragmentReuse:
    def test_each_distinct_line_renders_once_per_request(self, state, recipes):
        """Misses count rendered lines, hits count the other
        occurrences; a repeat of the same batch renders every line
        again because no bytes outlive a request."""
        batch = recipes + recipes[:3]
        request = _batch_request(batch)
        occurrences = sum(len(r.ingredient_texts) for r in batch)
        distinct = len({t for r in batch for t in r.ingredient_texts})
        assert occurrences > distinct

        def moved(before, after):
            return (
                after["misses"] - before["misses"],
                after["hits"] - before["hits"],
            )

        before = state.caches_snapshot()["fragment"]
        first = state.estimate_batch(request)
        middle = state.caches_snapshot()["fragment"]
        second = state.estimate_batch(request)
        after = state.caches_snapshot()["fragment"]
        assert second == first
        assert moved(before, middle) == (distinct, occurrences - distinct)
        assert moved(middle, after) == (distinct, occurrences - distinct)
        assert after["size"] == after["cap"] == after["evictions"] == 0

    def test_concurrent_requests_lose_no_counts(self, state):
        """Server threads share the counters: every request's counts
        land even with more threads than cores and frequent switches."""
        texts = ("1 tsp salt", "2 cups flour", "1 tsp salt")
        table = NutritionEstimator().corpus_estimate_table({
            "1 tsp salt": 2, "2 cups flour": 1,
        })
        threads, repeats = 8, 200
        before = state.caches_snapshot()["fragment"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: [
                        state._render_recipes([(texts, 2)], table)
                        for _ in range(repeats)
                    ]
                )
                for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        after = state.caches_snapshot()["fragment"]
        renders = threads * repeats
        assert after["misses"] - before["misses"] == 2 * renders
        assert after["hits"] - before["hits"] == renders

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
