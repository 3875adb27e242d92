"""Tests for the §II-C resolution strategy chain and explain surface.

Covers the reason-code vocabulary, the compact trace, the pinned skip
rule (an NER-detected unit that fails to resolve must skip phrase-scan
and bare-count — ISSUE 5 satellite), and the verbose
``explain_line`` report driven by the same chain.
"""

from __future__ import annotations

import pytest

from repro.core.estimator import (
    STATUS_FULL,
    STATUS_NAME_ONLY,
    STATUS_UNMATCHED,
    NutritionEstimator,
    ParsedIngredient,
)
from repro.core.explain import explain_line
from repro.core.resolution import (
    MATCH_FAILURE_REASONS,
    OUTCOME_IMPLAUSIBLE,
    OUTCOME_NEVER_OBSERVED,
    OUTCOME_RESOLVED,
    OUTCOME_SKIPPED,
    OUTCOME_UNRESOLVABLE,
    REASON_BARE_COUNT,
    REASON_CORPUS_UNIT,
    REASON_NER_UNIT,
    REASON_NO_MATCH,
    REASON_NO_NAME,
    REASON_PHRASE_SCAN,
    REASON_PLAUSIBILITY_RESCUE,
    RESOLUTION_REASONS,
    run_unit_chain,
    trace_event,
)
from repro.units.fallback import DEFAULT_MAX_GRAMS, UnitFallback


def _parsed(text, name="butter", unit="", quantity="1", size=""):
    return ParsedIngredient(
        text=text,
        tokens=tuple(text.split()),
        tags=tuple("O" for _ in text.split()),
        name=name,
        state="",
        unit=unit,
        quantity=quantity,
        temperature="",
        dry_fresh="",
        size=size,
    )


@pytest.fixture(scope="module")
def butter_resolver():
    estimator = NutritionEstimator()
    match = estimator.matcher.match("butter", "")
    return estimator.resolver_for(match.food.ndb_no)


class TestReasonVocabulary:
    def test_reason_codes_are_disjoint(self):
        assert not set(RESOLUTION_REASONS) & set(MATCH_FAILURE_REASONS)

    def test_trace_events_are_interned(self):
        a = trace_event(REASON_NER_UNIT, OUTCOME_RESOLVED)
        b = trace_event(REASON_NER_UNIT, OUTCOME_RESOLVED)
        assert a is b
        assert a == "ner-unit:resolved"


class TestChain:
    def test_ner_unit_resolves(self, butter_resolver):
        result = run_unit_chain(
            _parsed("2 cups butter", unit="cups"),
            butter_resolver, 2.0, DEFAULT_MAX_GRAMS, UnitFallback(),
        )
        assert result.resolution.unit == "cup"
        assert result.reason == REASON_NER_UNIT
        assert result.trace == ("ner-unit:resolved",)
        assert not result.used_corpus_unit

    def test_phrase_scan_recovers_missing_ner_unit(self, butter_resolver):
        # NER produced no unit; the raw phrase carries a literal "cup"
        # (the scan's precision guard requires the exact alias spelling).
        result = run_unit_chain(
            _parsed("butter , 1 cup"),
            butter_resolver, 1.0, DEFAULT_MAX_GRAMS, UnitFallback(),
        )
        assert result.reason == REASON_PHRASE_SCAN
        assert result.trace == ("phrase-scan:resolved",)

    def test_bare_count_after_failed_scan(self):
        estimator = NutritionEstimator()
        match = estimator.matcher.match("eggs", "")
        resolver = estimator.resolver_for(match.food.ndb_no)
        result = run_unit_chain(
            _parsed("2 eggs", name="eggs"),
            resolver, 2.0, DEFAULT_MAX_GRAMS, UnitFallback(),
        )
        assert result.reason == REASON_BARE_COUNT
        assert result.trace == (
            "phrase-scan:no-unit", "bare-count:resolved",
        )

    def test_failed_ner_unit_skips_scan_and_bare_count(self, butter_resolver):
        """Pinned behavior (ISSUE 5 satellite): an NER-detected unit
        that fails to resolve must NOT fall through to the phrase scan
        or the bare count — even when the raw phrase contains a
        scannable unit that would have resolved."""
        parsed = _parsed("1 head butter cup", unit="head")
        result = run_unit_chain(
            parsed, butter_resolver, 1.0, DEFAULT_MAX_GRAMS, UnitFallback()
        )
        assert result.resolution is None
        assert result.trace[0] == f"{REASON_NER_UNIT}:{OUTCOME_UNRESOLVABLE}"
        assert not any(
            event.startswith((REASON_PHRASE_SCAN, REASON_BARE_COUNT))
            for event in result.trace
        )

    def test_implausible_candidate_rescued_by_scan(self):
        estimator = NutritionEstimator()
        match = estimator.matcher.match("water", "")
        resolver = estimator.resolver_for(match.food.ndb_no)
        # 500 cups of water is >100 kg; the phrase scan re-finds "cups"
        # so there is no distinct rescue and the line dies at the gate.
        result = run_unit_chain(
            _parsed("500 cups water", name="water", unit="cups", quantity="500"),
            resolver, 500.0, DEFAULT_MAX_GRAMS, UnitFallback(),
        )
        assert result.resolution is None
        assert result.reason == REASON_CORPUS_UNIT  # last strategy that failed
        assert f"{REASON_NER_UNIT}:{OUTCOME_IMPLAUSIBLE}" in result.trace
        assert (
            f"{REASON_PLAUSIBILITY_RESCUE}:{OUTCOME_UNRESOLVABLE}"
            in result.trace
        )
        # "500 g or 1 cup"-style: the scan finds the plausible gram.
        rescued = run_unit_chain(
            _parsed("500 g water or 1 cup", name="water", unit="cups",
                    quantity="500"),
            resolver, 500.0, DEFAULT_MAX_GRAMS, UnitFallback(),
        )
        assert rescued.resolution.unit == "gram"
        assert rescued.reason == REASON_PLAUSIBILITY_RESCUE

    def test_corpus_frequent_unit_resolves_and_flags(self, butter_resolver):
        fallback = UnitFallback()
        fallback.observe("butter", "tablespoon", 3)
        result = run_unit_chain(
            _parsed("1 knob butter", unit="knob"),
            butter_resolver, 1.0, DEFAULT_MAX_GRAMS, fallback,
        )
        assert result.resolution.unit == "tablespoon"
        assert result.reason == REASON_CORPUS_UNIT
        assert result.used_corpus_unit
        assert result.trace[-1] == f"{REASON_CORPUS_UNIT}:{OUTCOME_RESOLVED}"

    def test_collect_pass_never_consults_corpus_table(self, butter_resolver):
        fallback = UnitFallback()
        fallback.observe("butter", "tablespoon", 3)
        result = run_unit_chain(
            _parsed("1 knob butter", unit="knob"),
            butter_resolver, 1.0, DEFAULT_MAX_GRAMS, None,
        )
        assert result.resolution is None
        assert result.reason == REASON_NER_UNIT
        assert not any(
            event.startswith(REASON_CORPUS_UNIT) for event in result.trace
        )

    def test_never_observed_ingredient_fails_with_reason(self, butter_resolver):
        result = run_unit_chain(
            _parsed("1 knob butter", unit="knob"),
            butter_resolver, 1.0, DEFAULT_MAX_GRAMS, UnitFallback(),
        )
        assert result.resolution is None
        assert result.reason == REASON_CORPUS_UNIT
        assert result.trace[-1] == (
            f"{REASON_CORPUS_UNIT}:{OUTCOME_NEVER_OBSERVED}"
        )


class TestFastPathEquivalence:
    """The fused recorder-free fast path and the declarative recorded
    driver must be the same chain: identical ChainResult over a corpus
    plus the handcrafted edge lines, with and without corpus stats."""

    def _assert_same(self, estimator, parsed, stats):
        from repro.core.explain import _StageRecorder

        match = estimator.matcher.match(
            parsed.name, parsed.state, parsed.temperature, parsed.dry_fresh
        )
        if match is None:
            return
        resolver = estimator.resolver_for(match.food.ndb_no)
        from repro.text.quantity import try_parse_quantity

        quantity = (
            try_parse_quantity(parsed.quantity) if parsed.quantity else None
        )
        if quantity is None:
            quantity = 1.0
        fast = run_unit_chain(
            parsed, resolver, quantity, DEFAULT_MAX_GRAMS, stats
        )
        recorded = run_unit_chain(
            parsed, resolver, quantity, DEFAULT_MAX_GRAMS, stats,
            recorder=_StageRecorder(),
        )
        assert fast.resolution == recorded.resolution
        assert fast.reason == recorded.reason
        assert fast.trace == recorded.trace
        assert fast.used_corpus_unit == recorded.used_corpus_unit

    def test_equivalent_over_corpus_and_edge_lines(self):
        from repro.recipedb.generator import GeneratorConfig, RecipeGenerator

        estimator = NutritionEstimator()
        recipes = RecipeGenerator(config=GeneratorConfig(seed=13)).generate(40)
        texts = {t for r in recipes for t in r.ingredient_texts}
        texts.update([
            "1 head butter cup",
            "500 cups water",
            "500 g water or 1 cup",
            "2 eggs",
            "1 small onion , finely chopped",
            "1 (15 ounce) can black beans",
        ])
        stats = UnitFallback()
        stats.observe("butter", "tablespoon", 2)
        stats.observe("water", "gram", 2)
        empty = UnitFallback()
        for text in sorted(texts):
            parsed = estimator.parse(text)
            if not parsed.name:
                continue
            for table in (None, empty, stats):
                self._assert_same(estimator, parsed, table)


class TestEstimatorProvenance:
    """Reason codes as carried on real IngredientEstimate objects."""

    @pytest.fixture(scope="class")
    def estimator(self):
        return NutritionEstimator()

    def test_every_estimate_carries_a_reason(self, estimator):
        from repro.recipedb.generator import GeneratorConfig, RecipeGenerator

        recipes = RecipeGenerator(config=GeneratorConfig(seed=2)).generate(20)
        for estimate in estimator.estimate_corpus(recipes):
            for ingredient in estimate.ingredients:
                assert ingredient.reason
                assert ingredient.trace
                if ingredient.status == STATUS_FULL:
                    assert ingredient.reason in RESOLUTION_REASONS
                elif ingredient.status == STATUS_UNMATCHED:
                    assert ingredient.reason in MATCH_FAILURE_REASONS

    def test_no_name_reason(self, estimator):
        estimate = estimator.estimate_ingredient("2 cups")
        assert estimate.status == STATUS_UNMATCHED
        assert estimate.reason == REASON_NO_NAME
        assert estimate.trace == (REASON_NO_NAME,)

    def test_no_match_reason(self, estimator):
        estimate = estimator.estimate_ingredient("2 teaspoons garam masala")
        assert estimate.status == STATUS_UNMATCHED
        assert estimate.reason == REASON_NO_MATCH
        assert estimate.trace == (REASON_NO_MATCH,)

    def test_pinned_skip_behavior_end_to_end(self, estimator):
        """The stock tagger tags "can" as the unit; black beans have no
        can portion.  The phrase contains a scannable "ounce" that
        would resolve as a mass — the pinned rule forbids using it."""
        estimate = estimator.estimate_ingredient("1 (15 ounce) can black beans")
        assert estimate.status == STATUS_NAME_ONLY
        assert estimate.trace[0] == "ner-unit:unresolvable"
        assert not any("phrase-scan" in event for event in estimate.trace)
        assert not any("bare-count" in event for event in estimate.trace)

    def test_provenance_never_changes_the_numbers(self, estimator):
        """Reason/trace are carried alongside results; two estimates
        differing only in how they were produced stay numerically
        equal (the refactor's parity contract, spot-checked)."""
        a = estimator.estimate_ingredient("2 cups all-purpose flour")
        b = NutritionEstimator().estimate_ingredient("2 cups all-purpose flour")
        assert a == b
        assert a.grams == pytest.approx(250.0)


class TestExplainLine:
    @pytest.fixture(scope="class")
    def estimator(self):
        return NutritionEstimator()

    def test_resolved_line_report(self, estimator):
        explanation = explain_line(estimator, "2 cups all-purpose flour")
        assert explanation.estimate.status == STATUS_FULL
        assert explanation.estimate.reason == REASON_NER_UNIT
        stages = {r.stage: r for r in explanation.stages}
        assert stages[REASON_NER_UNIT].outcome == OUTCOME_RESOLVED
        assert stages[REASON_PHRASE_SCAN].outcome == OUTCOME_SKIPPED
        rendered = explanation.render()
        assert "winner:" in rendered
        assert "verdict: status=matched reason=ner-unit" in rendered

    def test_explain_matches_estimate_without_context(self, estimator):
        """No context == the single-line corpus protocol: the explain
        estimate must equal /v1/estimate's per-line outcome."""
        for text in (
            "2 cups all-purpose flour",
            "1 (15 ounce) can black beans",
            "500 cups water",
            "2 eggs",
        ):
            table = NutritionEstimator().corpus_estimate_table({text: 1})
            assert explain_line(estimator, text).estimate == table[text]

    def test_context_feeds_corpus_statistics(self, estimator):
        # "head" is tagged as the unit and has no gram weight for
        # butter; the pinned rule blocks the scannable "cup", so only
        # corpus statistics (from the context lines) can rescue it.
        without = explain_line(estimator, "1 head butter cup")
        with_ctx = explain_line(
            estimator,
            "1 head butter cup",
            context=["2 tablespoons butter", "3 tablespoons butter , melted"],
        )
        assert without.estimate.status == STATUS_NAME_ONLY
        assert with_ctx.estimate.status == STATUS_FULL
        assert with_ctx.estimate.reason == REASON_CORPUS_UNIT
        assert with_ctx.estimate.used_fallback_unit
        assert with_ctx.context_lines == 2
        assert "corpus-frequent-unit" in with_ctx.render()

    def test_explain_does_not_touch_live_fallback_table(self, estimator):
        before = estimator.fallback.snapshot()
        explain_line(
            estimator, "1 knob butter", context=["2 tablespoons butter"]
        )
        assert estimator.fallback.snapshot() == before

    def test_unmatched_reports(self, estimator):
        no_name = explain_line(estimator, "2 cups")
        assert no_name.estimate.reason == REASON_NO_NAME
        assert no_name.match_explanation is None
        assert no_name.stages == ()
        no_match = explain_line(estimator, "2 teaspoons garam masala")
        assert no_match.estimate.reason == REASON_NO_MATCH
        assert no_match.match_explanation is not None
        assert "UNMATCHED" in no_match.render()
