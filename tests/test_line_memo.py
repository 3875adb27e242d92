"""The service's line-outcome memo: parity with a memo-free oracle.

``ServiceState`` keeps each line's pass-1 outcome and rendered
fragment across requests (``caches.fragment`` in ``/metrics``).  The
memo is sound because a pass-1 estimate reads no corpus statistics;
these tests pin what must hold for it to stay invisible in responses:

* any sequence of single and batch requests, with repeated lines and
  a cold or warm memo, answers exactly what a fresh
  ``corpus_protocol`` call renders (``tests/references.py``);
* a line that pass 2 re-estimates is never answered from its
  memoized pass-1 fragment, and the statistics pass 2 reads weight
  every memoized line by how often the request uses it;
* ``/v1/explain`` builds its context statistics from memoized
  records and stores nothing;
* a fault plan bypasses the memo, so a poison selector set after a
  line was memoized still dead-letters it;
* a line whose pass 1 raised is never stored;
* the memo never holds more than its cap.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from references import render_batch_body, render_estimate_body
from repro.core.estimator import NutritionEstimator
from repro.core.explain import explain_line
from repro.core.resolution import REASON_ESTIMATOR_ERROR
from repro.service import codec
from repro.service import state as state_module
from repro.service.handlers import dispatch
from repro.service.state import ServiceConfig, ServiceState

#: Name-only on its own; resolved to ``cup`` by the
#: corpus-frequent-unit stage next to :data:`KIDNEY_CUP`.
KIDNEY_CAN = "1 can red kidney beans"
KIDNEY_CUP = "1 cup red kidney beans , rinsed and drained"
KIDNEY_OZ = "8 ounces red kidney beans"

LINES = [
    KIDNEY_CAN,
    KIDNEY_CUP,
    KIDNEY_OZ,
    "3 cloves garlic , minced",
    "4 garlic , minced",
    "1 head garlic",
    "2 tablespoons garlic",
    "2 cups white sugar",
    "1 tsp salt",
    "salt to taste",
    "1 butter",
    "3 tbsp butter",
    "2 cups all-purpose flour",
    "1 small onion , finely chopped",
    "1 pinch garam masala",
    "  1 egg ",
    "9" * 400 + " cups sugar",
]


@pytest.fixture(scope="module")
def oracle():
    return NutritionEstimator()


@pytest.fixture(scope="module")
def state():
    return ServiceState(ServiceConfig(port=0))


def _estimate(state, texts, servings=1) -> bytes:
    response = dispatch(
        state, "POST", "/v1/estimate",
        {"ingredients": list(texts), "servings": servings},
    )
    assert response.status == 200, response.body
    return response.body


def _batch(state, recipes) -> bytes:
    response = dispatch(
        state, "POST", "/v1/estimate_batch",
        {
            "recipes": [
                {"ingredients": list(texts), "servings": servings}
                for texts, servings in recipes
            ]
        },
    )
    assert response.status == 200, response.body
    return response.body


def _stripped(recipes):
    return [(tuple(t.strip() for t in texts), s) for texts, s in recipes]


recipe = st.tuples(
    st.lists(st.sampled_from(LINES), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=6),
)
step = st.tuples(
    st.sampled_from(["single", "batch"]),
    st.lists(recipe, min_size=1, max_size=3),
    st.booleans(),  # cold: empty the memo first
)


class TestOracleParity:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(steps=st.lists(step, min_size=1, max_size=5))
    def test_request_sequences_match_memo_free_oracle(
        self, state, oracle, steps
    ):
        for kind, recipes, cold in steps:
            # Every step reaches the memo, never the response cache.
            state._response_cache.clear()
            if cold:
                state._line_memo.clear()
            if kind == "single":
                texts, servings = recipes[0]
                (expected_recipe,) = _stripped([recipes[0]])
                assert _estimate(state, texts, servings) == (
                    render_estimate_body(oracle, *expected_recipe)
                )
            else:
                assert _batch(state, recipes) == render_batch_body(
                    oracle, _stripped(recipes)
                )
        assert len(state._line_memo) <= state_module.LINE_MEMO_CAP


class TestPassTwoIsNeverReplayed:
    def test_corpus_resolved_line_alone_paired_alone(self, oracle):
        state = ServiceState(ServiceConfig(port=0))
        sequence = [[KIDNEY_CAN], [KIDNEY_CAN, KIDNEY_CUP], [KIDNEY_CAN]]
        statuses = []
        for texts in sequence:
            body = _estimate(state, texts)
            assert body == render_estimate_body(oracle, tuple(texts), 1)
            statuses.append(json.loads(body)["ingredients"][0]["status"])
        # The scenario really exercises pass 2 both ways.
        assert statuses == ["name-only", "matched", "name-only"]
        assert state._line_memo[KIDNEY_CAN].status == "name-only"

    def test_memoized_observations_are_weighted_by_count(self, oracle):
        """With every line memoized, the rebuilt statistics still
        count each line as often as the request uses it: ``cup``
        (twice) beats ``ounce`` (once, but observed first)."""
        state = ServiceState(ServiceConfig(port=0))
        _estimate(state, [KIDNEY_OZ, KIDNEY_CUP, KIDNEY_CAN])
        texts = (KIDNEY_OZ, KIDNEY_CUP, KIDNEY_CUP, KIDNEY_CAN)
        body = _estimate(state, texts)
        assert body == render_estimate_body(oracle, texts, 1)
        can = json.loads(body)["ingredients"][3]
        assert can["resolution"]["unit"] == "cup"


class TestExplainContext:
    def test_context_from_memo_matches_fresh_explanation(self, oracle):
        """Explain reads memoized context lines from their records and
        stores none of its misses; the body equals an explanation on
        an estimator that never served a request."""
        state = ServiceState(ServiceConfig(port=0))
        _estimate(state, [KIDNEY_OZ, KIDNEY_CUP])
        context = [KIDNEY_OZ, "3 cloves garlic , minced", KIDNEY_CUP,
                   KIDNEY_CUP, KIDNEY_CAN]
        before = state.caches_snapshot()["fragment"]
        response = dispatch(
            state, "POST", "/v1/explain",
            {"text": KIDNEY_CAN, "context": context},
        )
        assert response.status == 200, response.body
        expected = codec.encode_explanation(
            explain_line(oracle, KIDNEY_CAN, context=context)
        )
        assert json.loads(response.body) == expected
        assert expected["estimate"]["resolution"]["unit"] == "cup"
        after = state.caches_snapshot()["fragment"]
        assert after["hits"] - before["hits"] == 2
        assert after["misses"] - before["misses"] == 2
        assert after["size"] == before["size"]

    def test_fault_plan_bypasses_memo_for_context(self, monkeypatch):
        state = ServiceState(ServiceConfig(port=0))
        _estimate(state, [KIDNEY_CUP])
        monkeypatch.setenv("REPRO_FAULTS", "raise@estimate-line:rinsed")
        before = state.caches_snapshot()["fragment"]
        response = dispatch(
            state, "POST", "/v1/explain",
            {"text": KIDNEY_CAN, "context": [KIDNEY_CUP]},
        )
        # The poisoned context line raises as it would unmemoized.
        assert response.status == 500
        assert state.caches_snapshot()["fragment"] == before


class TestFaultsBypassTheMemo:
    def test_poison_set_after_memoizing_still_dead_letters(
        self, monkeypatch, oracle
    ):
        state = ServiceState(ServiceConfig(port=0))
        request = codec.EstimateRequest(
            ingredients=("2 cups white sugar", "1 tsp salt"), servings=1
        )
        clean = codec.dumps_body(state.estimate(request))
        assert "1 tsp salt" in state._line_memo
        before = state.caches_snapshot()["fragment"]

        monkeypatch.setenv("REPRO_FAULTS", "raise@estimate-line:salt")
        body = json.loads(codec.dumps_body(state.estimate(request)))
        assert body["ingredients"][1]["reason"] == REASON_ESTIMATOR_ERROR
        assert body["ingredients"][0]["status"] == "matched"
        pipeline = state.resilience_snapshot()["pipeline"]
        assert pipeline["dead_lettered"] == 1
        # No reads and no writes while the plan is active.
        assert state.caches_snapshot()["fragment"] == before

        monkeypatch.delenv("REPRO_FAULTS")
        assert codec.dumps_body(state.estimate(request)) == clean
        assert clean == render_estimate_body(oracle, request.ingredients, 1)


class TestRaisedLinesAreNotStored:
    def test_pass_one_error_is_never_memoized(self, monkeypatch):
        state = ServiceState(ServiceConfig(port=0))
        estimator = state.estimator
        original = estimator._estimate_from_parsed
        poison = "1 cup poison berries"

        def flaky(parsed, stats=None, **kwargs):
            if parsed.text == poison:
                raise RuntimeError("boom")
            return original(parsed, stats, **kwargs)

        monkeypatch.setattr(estimator, "_estimate_from_parsed", flaky)
        request = codec.EstimateRequest(
            ingredients=(poison, "1 tsp salt"), servings=1
        )
        for attempt in (1, 2):
            body = json.loads(codec.dumps_body(state.estimate(request)))
            assert body["ingredients"][0]["reason"] == REASON_ESTIMATOR_ERROR
            assert poison not in state._line_memo
            assert "1 tsp salt" in state._line_memo
            pipeline = state.resilience_snapshot()["pipeline"]
            assert pipeline["dead_lettered"] == attempt
        # The poisoned line missed both times; salt hit the second time.
        stats = state.caches_snapshot()["fragment"]
        assert (stats["misses"], stats["hits"]) == (3, 1)


class TestMemoCap:
    def test_memo_never_exceeds_cap(self, monkeypatch, oracle):
        monkeypatch.setattr(state_module, "LINE_MEMO_CAP", 8)
        state = ServiceState(ServiceConfig(port=0))
        lines = [f"{n} cups all-purpose flour" for n in range(1, 25)]
        requests = [tuple(lines[i:i + 3]) for i in range(0, len(lines), 3)]
        for texts in requests + requests[:2]:
            assert _estimate(state, texts) == render_estimate_body(
                oracle, texts, 1
            )
            assert len(state._line_memo) <= 8
        stats = state.caches_snapshot()["fragment"]
        assert stats["cap"] == 8
        assert stats["evictions"] == len(lines) - 8
        # Evicted lines re-estimate; bodies are unchanged.
        for texts in requests[:3]:
            assert codec.dumps_body(
                state.estimate(codec.EstimateRequest(texts, 1))
            ) == render_estimate_body(oracle, texts, 1)
            assert len(state._line_memo) <= 8
