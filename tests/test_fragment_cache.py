"""Fragment rendering: byte-exact assembly and cross-request reuse.

The service's estimation endpoints assemble their response bodies
from pre-serialized per-ingredient JSON fragments.  Two contracts
matter:

* **byte exactness** — an assembled body is byte-identical to
  ``json.dumps`` of the monolithic dict the endpoints used to build
  (clients and the whole-response cache must not observe the
  refactor);
* **reuse** — a line's pass-1 fragment is rendered once per process
  and kept in the line-outcome memo (reported as ``fragment`` in the
  ``caches`` section of ``/metrics``); the response cache keeps
  ``/v1/estimate`` bodies as pieces that reference those same bytes.
  ``tests/test_line_memo.py`` holds the memo's parity properties.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from references import encode_recipe_estimate
from repro.core.estimator import STATUS_NAME_ONLY, NutritionEstimator
from repro.recipedb.generator import GeneratorConfig, RecipeGenerator
from repro.service import codec
from repro.service.handlers import dispatch
from repro.service.state import LINE_MEMO_CAP, ServiceConfig, ServiceState


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

    def test_spliced_body_joins_to_assembled_bytes(self, recipe_estimate):
        fragments = [
            codec.dumps_ingredient_fragment(item)
            for item in recipe_estimate.ingredients
        ]
        for count in (len(fragments), 1, 0):
            spliced = codec.SplicedBody(
                codec.assemble_recipe_estimate_bytes(recipe_estimate, ()),
                tuple(fragments[:count]),
            )
            joined = codec.dumps_body(spliced)
            assert joined == codec.assemble_recipe_estimate_bytes(
                recipe_estimate, fragments[:count]
            )
            assert len(spliced) == len(joined)

    def test_dumps_body_passes_bytes_through(self):
        assert codec.dumps_body(b'{"x":1}') == b'{"x":1}'
        assert codec.dumps_body({"x": 1}) == b'{"x":1}'


class TestFragmentReuse:
    def test_repeat_request_replays_memoized_lines(self, recipes):
        """A cold batch probes the memo once per distinct line and
        misses; the identical batch again hits every line and renders
        nothing new, with the same bytes."""
        state = ServiceState(ServiceConfig(port=0))
        batch = recipes + recipes[:3]
        request = _batch_request(batch)
        distinct = len({t for r in batch for t in r.ingredient_texts})

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
        assert moved(before, middle) == (distinct, 0)
        assert moved(middle, after) == (0, distinct)
        assert after["size"] == distinct
        assert after["cap"] == LINE_MEMO_CAP
        assert after["evictions"] == 0

    def test_cached_body_shares_memoized_fragments(self, recipes):
        """The response cache holds a /v1/estimate body as pieces
        whose fragments are the memo's own bytes objects, not copies."""
        state = ServiceState(ServiceConfig(port=0))
        texts = list(recipes[0].ingredient_texts)
        response = dispatch(
            state, "POST", "/v1/estimate", {"ingredients": texts}
        )
        assert response.status == 200
        (entry,) = state._response_cache.values()
        assert isinstance(entry, codec.SplicedBody)
        assert codec.dumps_body(entry) == response.body
        assert len(entry) == len(response.body)
        for text, fragment in zip(texts, entry.fragments):
            record = state._line_memo.get(text)
            assert record is not None
            if record.status != STATUS_NAME_ONLY:
                assert fragment is record.fragment

    def test_concurrent_requests_lose_no_counts(self):
        """Server threads share the memo: every request's probes land
        even with more threads than cores and frequent switches."""
        state = ServiceState(ServiceConfig(port=0))
        request = codec.EstimateRequest(
            ingredients=("1 tsp salt", "2 cups flour", "1 tsp salt"),
            servings=2,
        )
        expected = codec.dumps_body(state.estimate(request))
        threads, repeats = 8, 200
        before = state.caches_snapshot()["fragment"]
        bodies: list[bytes] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: bodies.extend(
                        codec.dumps_body(state.estimate(request))
                        for _ in range(repeats)
                    )
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
        probes = threads * repeats * 2  # two distinct lines per request
        assert after["hits"] - before["hits"] == probes
        assert after["misses"] == before["misses"]
        assert bodies == [expected] * (threads * repeats)

    def test_estimate_and_batch_share_valid_json(self, state, recipes):
        body = json.loads(
            codec.dumps_body(
                state.estimate(
                    codec.EstimateRequest(
                        ingredients=tuple(recipes[0].ingredient_texts),
                        servings=recipes[0].servings,
                    )
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
