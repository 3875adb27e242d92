"""Unit tests for the service layer below the socket.

Covers request validation/normalization (codec), the dispatch path
(routing, caching, typed errors, metrics bookkeeping) and
:class:`ServiceState` endpoint logic — everything that does not need a
live HTTP server.  The live-socket integration suite is
``tests/test_service_http.py``.
"""

import json

import pytest

from repro.core.estimator import NutritionEstimator
from repro.service import codec
from repro.service.errors import (
    MethodNotAllowedError,
    NotFoundError,
    ServiceError,
    ValidationError,
)
from repro.service.handlers import ENDPOINTS, dispatch
from repro.service.metrics import ServiceMetrics, percentile
from repro.service.state import ServiceConfig, ServiceState


@pytest.fixture(scope="module")
def state():
    return ServiceState(ServiceConfig(port=0))


# ----------------------------------------------------------------------
# codec: validation


class TestValidateEstimate:
    def test_minimal(self):
        request = codec.validate_estimate({"ingredients": ["1 tsp salt"]})
        assert request.ingredients == ("1 tsp salt",)
        assert request.servings == 1

    def test_normalizes_whitespace(self):
        request = codec.validate_estimate(
            {"ingredients": ["  1 tsp salt  "], "servings": 2}
        )
        assert request.ingredients == ("1 tsp salt",)

    def test_integer_valued_float_servings(self):
        request = codec.validate_estimate(
            {"ingredients": ["x"], "servings": 4.0}
        )
        assert request.servings == 4

    @pytest.mark.parametrize("payload, field", [
        ([], "(body)"),
        ({}, "(body)"),
        ({"ingredients": "1 tsp salt"}, "ingredients"),
        ({"ingredients": []}, "ingredients"),
        ({"ingredients": [42]}, "ingredients[0]"),
        ({"ingredients": ["x"], "servings": 0}, "servings"),
        ({"ingredients": ["x"], "servings": True}, "servings"),
        ({"ingredients": ["x"], "servings": 2.5}, "servings"),
        ({"ingredients": ["x"], "bogus": 1}, "(body)"),
    ])
    def test_rejects(self, payload, field):
        with pytest.raises(ValidationError) as err:
            codec.validate_estimate(payload)
        assert err.value.field == field
        assert err.value.status == 400

    def test_caps_enforced(self):
        too_many = {"ingredients": ["x"] * (codec.MAX_INGREDIENTS_PER_RECIPE + 1)}
        with pytest.raises(ValidationError):
            codec.validate_estimate(too_many)
        with pytest.raises(ValidationError):
            codec.validate_estimate(
                {"ingredients": ["y" * (codec.MAX_PHRASE_CHARS + 1)]}
            )


class TestValidateBatch:
    def test_nested_field_path(self):
        with pytest.raises(ValidationError) as err:
            codec.validate_batch(
                {"recipes": [{"ingredients": ["ok"]},
                             {"ingredients": ["ok"], "servings": -1}]}
            )
        assert err.value.field == "recipes[1].servings"

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            codec.validate_batch({"recipes": []})


class TestValidateMatchParse:
    def test_match_defaults(self):
        request = codec.validate_match({"name": " butter "})
        assert request.name == "butter"
        assert request.state == "" and request.top == 0

    def test_match_requires_name(self):
        with pytest.raises(ValidationError):
            codec.validate_match({"state": "melted"})

    def test_parse_requires_nonempty_text(self):
        with pytest.raises(ValidationError):
            codec.validate_parse({"text": "   "})


class TestCacheKey:
    def test_equivalent_payloads_share_key(self):
        a = codec.validate_estimate(
            {"ingredients": [" 1 tsp salt "], "servings": 2}
        )
        b = codec.validate_estimate(
            {"servings": 2.0, "ingredients": ["1 tsp salt"]}
        )
        assert codec.cache_key("/v1/estimate", a) == codec.cache_key(
            "/v1/estimate", b
        )

    def test_different_endpoint_different_key(self):
        request = codec.validate_parse({"text": "1 tsp salt"})
        assert codec.cache_key("/v1/parse", request) != codec.cache_key(
            "/v1/other", request
        )


# ----------------------------------------------------------------------
# state endpoints


class TestStateEndpoints:
    def test_overflowing_quantity_renders_strict_json(self, state):
        """Non-finite floats would render as ``Infinity``/``NaN``,
        which strict JSON parsers (``JSON.parse``) reject."""

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        for text in ("9" * 400 + " cups sugar", "9" * 400 + "/1 cups sugar"):
            response = dispatch(
                state, "POST", "/v1/estimate", {"ingredients": [text]}
            )
            assert response.status == 200
            body = json.loads(response.body, parse_constant=reject)
            (line,) = body["ingredients"]
            assert line["quantity"] == 1.0
            assert line["reason"] != "estimator-error"

    def test_estimate_matches_in_process_corpus_protocol(self, state):
        texts = ["2 cups white sugar", "1 tsp salt", "2 cups white sugar"]
        body = json.loads(
            codec.dumps_body(
                state.estimate(
                    codec.EstimateRequest(ingredients=tuple(texts), servings=3)
                )
            )
        )
        reference = NutritionEstimator()
        table = reference.corpus_estimate_table(
            {"2 cups white sugar": 2, "1 tsp salt": 1}
        )
        expected = NutritionEstimator.finish_recipe(
            [table[t] for t in texts], 3
        )
        assert body["per_serving"] == expected.per_serving.values
        assert body["total"] == expected.total.values
        assert [i["status"] for i in body["ingredients"]] == [
            e.status for e in expected.ingredients
        ]

    def test_estimate_is_deterministic_across_requests(self, state):
        request = codec.EstimateRequest(
            ingredients=("3 cloves garlic , minced",), servings=1
        )
        first = state.estimate(request)
        # Interleave other traffic that mutates estimator internals.
        state.estimate(
            codec.EstimateRequest(ingredients=("2 cups flour",), servings=2)
        )
        state.match(codec.MatchRequest("garlic", "", "", "", 3))
        assert state.estimate(request) == first

    def test_estimate_body_independent_of_prior_traffic(self, state):
        """Purity: recipe B's body is the same whether B is a fresh
        state's first request or follows other estimate and batch
        traffic whose unit statistics for the same names differ."""
        recipe_b = codec.EstimateRequest(
            ingredients=("4 garlic , minced", "2 cloves garlic", "1 butter"),
            servings=2,
        )
        first = ServiceState(ServiceConfig(port=0)).estimate(recipe_b)
        other = ("2 tablespoons garlic", "1 head garlic", "3 tbsp butter")
        state.estimate(codec.EstimateRequest(ingredients=other, servings=1))
        state.estimate_batch(
            codec.BatchRequest(
                recipes=(
                    codec.EstimateRequest(ingredients=other * 3, servings=4),
                    codec.EstimateRequest(
                        ingredients=("1 cup butter", "5 garlic"), servings=1
                    ),
                )
            )
        )
        assert state.estimate(recipe_b) == first

    def test_batch_equals_estimate_corpus(self, state, small_corpus):
        recipes = small_corpus[:6]
        body = json.loads(
            state.estimate_batch(
                codec.BatchRequest(
                    recipes=tuple(
                        codec.EstimateRequest(
                            ingredients=tuple(r.ingredient_texts),
                            servings=r.servings,
                        )
                        for r in recipes
                    )
                )
            )
        )
        expected = NutritionEstimator().estimate_corpus(list(recipes))
        assert body["count"] == len(recipes)
        for encoded, reference in zip(body["recipes"], expected):
            assert encoded["per_serving"] == reference.per_serving.values
            assert encoded["total"] == reference.total.values

    def test_match_with_candidates(self, state):
        body = state.match(codec.MatchRequest("red lentils", "", "", "", 3))
        assert body["match"]["description"] == "Lentils, pink or red, raw"
        assert len(body["candidates"]) <= 3
        assert body["candidates"][0] == body["match"]

    def test_match_unmatched_is_null(self, state):
        body = state.match(codec.MatchRequest("garam masala", "", "", "", 0))
        assert body["match"] is None

    def test_parse_entities(self, state):
        body = state.parse(codec.ParseRequest("1 small onion , finely chopped"))
        assert body["name"] == "onion"
        assert body["size"] == "small"
        assert "QUANTITY" in body["tags"]

    def test_healthz_shape(self, state):
        body = state.healthz()
        assert body["status"] == "ok"
        assert body["workers"] == 1
        assert body["uptime_s"] >= 0


# ----------------------------------------------------------------------
# dispatch: routing, caching, errors, metrics


class TestDispatch:
    @pytest.fixture()
    def fresh_state(self):
        return ServiceState(ServiceConfig(port=0, cache_cap=8))

    def test_cache_roundtrip_and_metrics(self, fresh_state):
        payload = {"ingredients": ["1 tsp salt"], "servings": 1}
        miss = dispatch(fresh_state, "POST", "/v1/estimate", payload)
        hit = dispatch(fresh_state, "POST", "/v1/estimate", dict(payload))
        assert miss.status == hit.status == 200
        assert not miss.cache_hit and hit.cache_hit
        assert miss.body == hit.body
        snapshot = fresh_state.metrics_snapshot()
        endpoint = snapshot["endpoints"]["/v1/estimate"]
        assert endpoint["requests"] == 2
        assert endpoint["cache_hits"] == 1
        assert endpoint["errors"] == 0
        assert snapshot["caches"]["response"]["size"] == 1

    def test_normalized_payloads_share_entry(self, fresh_state):
        dispatch(fresh_state, "POST", "/v1/parse", {"text": "1 tsp salt"})
        hit = dispatch(fresh_state, "POST", "/v1/parse", {"text": " 1 tsp salt "})
        assert hit.cache_hit

    def test_validation_error_envelope(self, fresh_state):
        response = dispatch(fresh_state, "POST", "/v1/estimate", {})
        assert response.status == 400
        body = json.loads(response.body)
        assert body["error"]["code"] == "invalid_request"
        assert "field" in body["error"]
        endpoint = fresh_state.metrics_snapshot()["endpoints"]["/v1/estimate"]
        assert endpoint["errors"] == 1

    def test_unknown_path_404(self, fresh_state):
        response = dispatch(fresh_state, "GET", "/v2/estimate", None)
        assert response.status == 404
        assert json.loads(response.body)["error"]["code"] == "not_found"
        assert "(unknown)" in fresh_state.metrics_snapshot()["endpoints"]

    def test_wrong_method_405_lists_allowed(self, fresh_state):
        response = dispatch(fresh_state, "GET", "/v1/match", None)
        assert response.status == 405
        assert json.loads(response.body)["error"]["allowed"] == ["POST"]

    def test_unexpected_exception_becomes_500(self, fresh_state, monkeypatch):
        def boom(_request):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(fresh_state, "parse", boom)
        response = dispatch(fresh_state, "POST", "/v1/parse", {"text": "x"})
        assert response.status == 500
        body = json.loads(response.body)
        assert body["error"]["code"] == "internal_error"
        assert "kaboom" not in response.body.decode()

    def test_cache_eviction_respects_cap(self, fresh_state):
        for i in range(12):
            dispatch(fresh_state, "POST", "/v1/parse", {"text": f"{i} tsp salt"})
        info = fresh_state.caches_snapshot()["response"]
        assert info["size"] <= info["cap"] == 8

    def test_every_route_is_covered(self):
        assert ("GET", "/healthz") in ENDPOINTS
        assert ("GET", "/metrics") in ENDPOINTS
        for method, path in ENDPOINTS:
            endpoint = ENDPOINTS[(method, path)]
            # Cacheable routes must validate (the cache key is built
            # from the normalized request).
            assert not endpoint.cacheable or endpoint.validate is not None

    def test_oversized_body_not_cached(self, fresh_state):
        from repro.service.state import MAX_CACHEABLE_BODY_BYTES

        fresh_state.store_response("small", b"x")
        fresh_state.store_response(
            "big", b"y" * (MAX_CACHEABLE_BODY_BYTES + 1)
        )
        assert fresh_state.cached_response("small") == b"x"
        assert fresh_state.cached_response("big") is None


# ----------------------------------------------------------------------
# metrics primitives


class TestMetrics:
    def test_percentile_nearest_rank(self):
        samples = sorted(float(i) for i in range(1, 101))
        # Nearest-rank over indices 0..99: p50 -> index 50, p99 -> 98.
        assert percentile(samples, 0.50) == samples[round(0.50 * 99)]
        assert percentile(samples, 0.99) == samples[round(0.99 * 99)]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 100.0
        assert percentile([], 0.5) == 0.0

    def test_observe_and_snapshot(self):
        metrics = ServiceMetrics()
        metrics.observe("/v1/estimate", 0.002)
        metrics.observe("/v1/estimate", 0.004, cache_hit=True)
        metrics.observe("/v1/estimate", 0.010, error=True)
        snapshot = metrics.snapshot()
        endpoint = snapshot["endpoints"]["/v1/estimate"]
        assert endpoint["requests"] == 3
        assert endpoint["cache_hits"] == 1
        assert endpoint["errors"] == 1
        assert endpoint["latency_ms"]["count"] == 3
        assert endpoint["latency_ms"]["p50"] == pytest.approx(4.0)
        assert snapshot["requests_total"] == 3

    def test_reason_counters(self):
        metrics = ServiceMetrics()
        assert metrics.snapshot()["reasons"] == {
            "lines_total": 0,
            "by_reason": {},
        }
        metrics.observe_reasons(["ner-unit", "ner-unit", "bare-count"])
        metrics.observe_reasons(iter(["no-description-match"]))
        reasons = metrics.snapshot()["reasons"]
        assert reasons["lines_total"] == 4
        assert reasons["by_reason"] == {
            "bare-count": 1,
            "ner-unit": 2,
            "no-description-match": 1,
        }


# ----------------------------------------------------------------------
# config validation


class TestServiceConfig:
    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"cache_cap": 0},
        {"port": -1},
        {"port": 70000},
        {"max_body_bytes": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)

    def test_error_hierarchy(self):
        assert issubclass(ValidationError, ServiceError)
        assert issubclass(NotFoundError, ServiceError)
        assert issubclass(MethodNotAllowedError, ServiceError)
