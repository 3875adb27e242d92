"""Tests for the §II-C resolution strategy chain and explain surface.

Covers the reason-code vocabulary, the compact trace, the pinned skip
rule (an NER-detected unit that fails to resolve must skip phrase-scan
and bare-count), the verbose ``explain_line`` report driven by the
same chain, pinned recorder rows and rendered reports, and the
guarantee that attaching a recorder never changes the chain's result.
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
from repro.units.gram_weights import UnitResolver


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
    return UnitResolver(match.food)


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
        resolver = UnitResolver(match.food)
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
        resolver = UnitResolver(match.food)
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


class TestRecorderIndependence:
    """Attaching a recorder only observes: ``run_unit_chain`` returns
    the same ChainResult with and without one, over a corpus plus the
    handcrafted edge lines, with and without corpus stats."""

    def _assert_same(self, estimator, parsed, stats):
        from repro.core.explain import _StageRecorder
        from repro.text.quantity import try_parse_quantity

        match = estimator.matcher.match(
            parsed.name, parsed.state, parsed.temperature, parsed.dry_fresh
        )
        if match is None:
            return
        resolver = UnitResolver(match.food)
        quantity = (
            try_parse_quantity(parsed.quantity) if parsed.quantity else None
        )
        if quantity is None:
            quantity = 1.0
        bare = run_unit_chain(
            parsed, resolver, quantity, DEFAULT_MAX_GRAMS, stats
        )
        recorder = _StageRecorder()
        recorded = run_unit_chain(
            parsed, resolver, quantity, DEFAULT_MAX_GRAMS, stats,
            recorder=recorder,
        )
        assert bare.resolution == recorded.resolution
        assert bare.reason == recorded.reason
        assert bare.trace == recorded.trace
        assert bare.used_corpus_unit == recorded.used_corpus_unit
        assert recorder.reports

    def test_same_result_with_and_without_recorder(self):
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

    def test_unmatched_reports(self, estimator):
        no_name = explain_line(estimator, "2 cups")
        assert no_name.estimate.reason == REASON_NO_NAME
        assert no_name.match_explanation is None
        assert no_name.stages == ()
        no_match = explain_line(estimator, "2 teaspoons garam masala")
        assert no_match.estimate.reason == REASON_NO_MATCH
        assert no_match.match_explanation is not None
        assert "UNMATCHED" in no_match.render()


#: ``explain_line`` output pinned for real lines: (text, context,
#: stage rows as (stage, outcome, detail, unit, grams_per_unit),
#: rendered report).  The rows, their order and the text are the
#: explain surface's contract (CLI and ``/v1/explain``).
EXPLAIN_GOLDEN = [
    (
        '2 cups all-purpose flour',
        (),
        (
            ('phrase-scan', 'skipped', 'ner-unit already produced a candidate', None, None),
            ('size-as-unit', 'skipped', 'ner-unit already produced a candidate', None, None),
            ('bare-count', 'skipped', 'ner-unit already produced a candidate', None, None),
            ('ner-unit', 'resolved', 'unit resolved', 'cup', 125.0),
        ),
        """\
phrase: '2 cups all-purpose flour'
tags:   2/QUANTITY  cups/UNIT  all-purpose/NAME  flour/NAME
parsed: name='all-purpose flour' qty='2' unit='cups' size='' state=''

description match:
  query: name='all-purpose flour' state=''
  word set A: {flour, purpose}
  winner: Wheat flour, white, all-purpose, enriched, bleached
  candidates (score | matched words | mean term priority | raw | SR index):
   -> 1.000 | {flour, purpose} | 2.00 | - | #328  Wheat flour, white, all-purpose, enriched, bleached
      0.500 | {flour} | 1.00 | - | #329  Wheat flour, whole-grain
      0.500 | {flour} | 3.00 | - | #297  Tortillas, ready-to-bake or -fry, flour
  decided by: similarity score (heuristics (c)/(e))

unit resolution chain (no context lines (corpus statistics empty)):
  phrase-scan            skipped        ner-unit already produced a candidate
  size-as-unit           skipped        ner-unit already produced a candidate
  bare-count             skipped        ner-unit already produced a candidate
  ner-unit               resolved       unit resolved  [cup = 125 g]

verdict: status=matched reason=ner-unit grams=250 calories=910
trace: ner-unit:resolved""",
    ),
    (
        '3 small tomatoes , quartered',
        (),
        (
            ('ner-unit', 'skipped', 'NER detected no UNIT entity', None, None),
            ('size-as-unit', 'skipped', 'phrase-scan already produced a candidate', None, None),
            ('bare-count', 'skipped', 'phrase-scan already produced a candidate', None, None),
            ('phrase-scan', 'resolved', 'unit resolved', 'small', 91.0),
        ),
        """\
phrase: '3 small tomatoes , quartered'
tags:   3/QUANTITY  small/SIZE  tomatoes/NAME  ,/O  quartered/STATE
parsed: name='tomatoes' qty='3' unit='' size='small' state='quartered'

description match:
  query: name='tomatoes' state='quartered'
  word set A: {quarter, tomato}
  winner: Tomatoes, red, ripe, raw, year round average
  candidates (score | matched words | mean term priority | raw | SR index):
   -> 0.500 | {tomato} | 1.00 | - | #210  Tomatoes, red, ripe, raw, year round average
      0.500 | {tomato} | 1.00 | - | #211  Tomatoes, red, ripe, canned, packed in tomato juice
      0.500 | {tomato} | 1.00 | - | #212  Tomato products, canned, paste, without salt added
      0.500 | {tomato} | 1.00 | - | #213  Tomato products, canned, sauce
      0.500 | {tomato} | 1.00 | - | #218  Tomatoes, crushed, canned
  decided by: SR index order (heuristic (i))

unit resolution chain (no context lines (corpus statistics empty)):
  ner-unit               skipped        NER detected no UNIT entity
  size-as-unit           skipped        phrase-scan already produced a candidate
  bare-count             skipped        phrase-scan already produced a candidate
  phrase-scan            resolved       unit resolved  [small = 91 g]

verdict: status=matched reason=phrase-scan grams=273 calories=49.14
trace: phrase-scan:resolved""",
    ),
    (
        '2 eggs',
        (),
        (
            ('ner-unit', 'skipped', 'NER detected no UNIT entity', None, None),
            ('phrase-scan', 'no-unit', 'no known unit token in the phrase', None, None),
            ('size-as-unit', 'skipped', 'no SIZE entity in the phrase', None, None),
            ('bare-count', 'resolved', 'unit resolved', 'large', 50.0),
        ),
        """\
phrase: '2 eggs'
tags:   2/QUANTITY  eggs/NAME
parsed: name='eggs' qty='2' unit='' size='' state=''

description match:
  query: name='eggs' state=''
  word set A: {egg}
  winner: Egg, whole, raw, fresh
  candidates (score | matched words | mean term priority | raw | SR index):
   -> 1.000 | {egg} | 1.00 | raw | #34  Egg, whole, raw, fresh
      1.000 | {egg} | 1.00 | raw | #35  Egg, white, raw, fresh
      1.000 | {egg} | 1.00 | raw | #36  Egg, yolk, raw, fresh
      1.000 | {egg} | 1.00 | - | #37  Egg, whole, cooked, hard-boiled
      1.000 | {egg} | 1.00 | - | #38  Egg, whole, cooked, fried
  decided by: SR index order (heuristic (i))

unit resolution chain (no context lines (corpus statistics empty)):
  ner-unit               skipped        NER detected no UNIT entity
  phrase-scan            no-unit        no known unit token in the phrase
  size-as-unit           skipped        no SIZE entity in the phrase
  bare-count             resolved       unit resolved  [large = 50 g]

verdict: status=matched reason=bare-count grams=100 calories=143
trace: phrase-scan:no-unit -> bare-count:resolved""",
    ),
    (
        '3 small green cabbage , shredded',
        (),
        (
            ('ner-unit', 'skipped', 'NER detected no UNIT entity', None, None),
            ('phrase-scan', 'unresolvable', "scanned unit 'small' has no gram weight for this food", None, None),
            ('size-as-unit', 'unresolvable', "SIZE 'small' has no gram weight for this food", None, None),
            ('bare-count', 'resolved', 'unit resolved', 'head', 908.0),
        ),
        """\
phrase: '3 small green cabbage , shredded'
tags:   3/QUANTITY  small/SIZE  green/NAME  cabbage/NAME  ,/O  shredded/STATE
parsed: name='green cabbage' qty='3' unit='' size='small' state='shredded'

description match:
  query: name='green cabbage' state='shredded'
  word set A: {cabbage, green, shred}
  winner: Cabbage, raw
  candidates (score | matched words | mean term priority | raw | SR index):
   -> 0.333 | {cabbage} | 1.00 | - | #178  Cabbage, raw
      0.333 | {cabbage} | 1.00 | - | #179  Cabbage, red, raw
      0.333 | {cabbage} | 1.00 | - | #180  Cabbage, chinese (pak-choi), raw
      0.333 | {green} | 2.00 | - | #141  Grapes, red or green (European type), raw
      0.333 | {green} | 2.00 | - | #142  Kiwifruit, green, raw
  decided by: SR index order (heuristic (i))

unit resolution chain (no context lines (corpus statistics empty)):
  ner-unit               skipped        NER detected no UNIT entity
  phrase-scan            unresolvable   scanned unit 'small' has no gram weight for this food
  size-as-unit           unresolvable   SIZE 'small' has no gram weight for this food
  bare-count             resolved       unit resolved  [head = 908 g]

verdict: status=matched reason=bare-count grams=2724 calories=681
trace: phrase-scan:unresolvable -> size-as-unit:unresolvable -> bare-count:resolved""",
    ),
    (
        '1 (15 ounce) can black beans',
        (),
        (
            ('ner-unit', 'unresolvable', "no gram weight for NER unit 'can' (phrase-scan and bare-count are skipped: the phrase names an explicit measure)", None, None),
            ('phrase-scan', 'skipped', 'NER already detected a unit', None, None),
            ('size-as-unit', 'skipped', 'no SIZE entity in the phrase', None, None),
            ('bare-count', 'skipped', 'NER already detected a unit', None, None),
            ('corpus-frequent-unit', 'never-observed', "no unit ever observed for 'black beans'", None, None),
        ),
        """\
phrase: '1 (15 ounce) can black beans'
tags:   1/QUANTITY  (/O  15/O  ounce/O  )/O  can/UNIT  black/NAME  beans/NAME
parsed: name='black beans' qty='1' unit='can' size='' state=''

description match:
  query: name='black beans' state=''
  word set A: {bean, black}
  winner: Beans, black, mature seeds, raw
  candidates (score | matched words | mean term priority | raw | SR index):
   -> 1.000 | {bean, black} | 1.50 | raw | #262  Beans, black, mature seeds, raw
      1.000 | {bean, black} | 1.50 | - | #263  Beans, black, mature seeds, cooked, boiled, without salt
      1.000 | {bean, black} | 1.50 | - | #264  Beans, black, mature seeds, canned
      0.500 | {bean} | 1.00 | raw | #172  Mung beans, mature seeds, sprouted, raw
      0.500 | {bean} | 1.00 | raw | #173  Beans, snap, green, raw
  decided by: the "raw" preference (heuristic (g))

unit resolution chain (no context lines (corpus statistics empty)):
  ner-unit               unresolvable   no gram weight for NER unit 'can' (phrase-scan and bare-count are skipped: the phrase names an explicit measure)
  phrase-scan            skipped        NER already detected a unit
  size-as-unit           skipped        no SIZE entity in the phrase
  bare-count             skipped        NER already detected a unit
  corpus-frequent-unit   never-observed no unit ever observed for 'black beans'

verdict: status=name-only reason=corpus-frequent-unit
trace: ner-unit:unresolvable -> corpus-frequent-unit:never-observed""",
    ),
    (
        '500 cups water',
        (),
        (
            ('phrase-scan', 'skipped', 'ner-unit already produced a candidate', None, None),
            ('size-as-unit', 'skipped', 'ner-unit already produced a candidate', None, None),
            ('bare-count', 'skipped', 'ner-unit already produced a candidate', None, None),
            ('ner-unit', 'implausible', '500 x 237 g/unit exceeds the 5000 g threshold', 'cup', 237.0),
            ('plausibility-rescue', 'unresolvable', 'no plausible phrase-scanned unit to rescue with', None, None),
            ('corpus-frequent-unit', 'never-observed', "no unit ever observed for 'water'", None, None),
        ),
        """\
phrase: '500 cups water'
tags:   500/QUANTITY  cups/UNIT  water/NAME
parsed: name='water' qty='500' unit='cups' size='' state=''

description match:
  query: name='water' state=''
  word set A: {water}
  winner: Beverages, water, tap, drinking
  candidates (score | matched words | mean term priority | raw | SR index):
   -> 1.000 | {water} | 2.00 | - | #251  Beverages, water, tap, drinking
      1.000 | {water} | 3.00 | - | #230  Nuts, coconut milk, canned (liquid expressed from grated meat and water)
      1.000 | {water} | 4.00 | - | #248  Beverages, coffee, brewed, prepared with tap water
      1.000 | {water} | 4.00 | - | #258  Fish, tuna, light, canned in water, drained solids
  decided by: comma-term priority (heuristic (h))

unit resolution chain (no context lines (corpus statistics empty)):
  phrase-scan            skipped        ner-unit already produced a candidate
  size-as-unit           skipped        ner-unit already produced a candidate
  bare-count             skipped        ner-unit already produced a candidate
  ner-unit               implausible    500 x 237 g/unit exceeds the 5000 g threshold  [cup = 237 g]
  plausibility-rescue    unresolvable   no plausible phrase-scanned unit to rescue with
  corpus-frequent-unit   never-observed no unit ever observed for 'water'

verdict: status=name-only reason=corpus-frequent-unit
trace: ner-unit:implausible -> plausibility-rescue:unresolvable -> corpus-frequent-unit:never-observed""",
    ),
    (
        '1 head butter cup',
        ('2 tablespoons butter',),
        (
            ('ner-unit', 'unresolvable', "no gram weight for NER unit 'head' (phrase-scan and bare-count are skipped: the phrase names an explicit measure)", None, None),
            ('phrase-scan', 'skipped', 'NER already detected a unit', None, None),
            ('size-as-unit', 'skipped', 'no SIZE entity in the phrase', None, None),
            ('bare-count', 'skipped', 'NER already detected a unit', None, None),
            ('corpus-frequent-unit', 'resolved', "most frequent unit for 'butter' is 'tablespoon'", 'tablespoon', 14.2),
        ),
        """\
phrase: '1 head butter cup'
tags:   1/QUANTITY  head/UNIT  butter/NAME  cup/UNIT
parsed: name='butter' qty='1' unit='head' size='' state=''

description match:
  query: name='butter' state=''
  word set A: {butter}
  winner: Butter, salted
  candidates (score | matched words | mean term priority | raw | SR index):
   -> 1.000 | {butter} | 1.00 | - | #0  Butter, salted
      1.000 | {butter} | 1.00 | - | #1  Butter, whipped, with salt
      1.000 | {butter} | 1.00 | - | #2  Butter, without salt
      1.000 | {butter} | 1.00 | - | #278  Peanut butter, smooth style, with salt
      1.000 | {butter} | 2.00 | - | #235  Seeds, sesame butter, tahini, from roasted and toasted kernels
  decided by: SR index order (heuristic (i))

unit resolution chain (statistics from 1 context line(s)):
  ner-unit               unresolvable   no gram weight for NER unit 'head' (phrase-scan and bare-count are skipped: the phrase names an explicit measure)
  phrase-scan            skipped        NER already detected a unit
  size-as-unit           skipped        no SIZE entity in the phrase
  bare-count             skipped        NER already detected a unit
  corpus-frequent-unit   resolved       most frequent unit for 'butter' is 'tablespoon'  [tablespoon = 14.2 g]

verdict: status=matched reason=corpus-frequent-unit grams=14.2 calories=101.814
trace: ner-unit:unresolvable -> corpus-frequent-unit:resolved""",
    ),
    (
        '2 cups',
        (),
        (),
        """\
phrase: '2 cups'
tags:   2/QUANTITY  cups/UNIT
parsed: name='' qty='2' unit='cups' size='' state=''

verdict: status=unmatched reason=no-name
trace: no-name""",
    ),
    (
        '2 teaspoons garam masala',
        (),
        (),
        """\
phrase: '2 teaspoons garam masala'
tags:   2/QUANTITY  teaspoons/UNIT  garam/NAME  masala/NAME
parsed: name='garam masala' qty='2' unit='teaspoons' size='' state=''

description match:
  query: name='garam masala' state=''
  word set A: {garam, masala}
  no description shares a name word -> UNMATCHED

verdict: status=unmatched reason=no-description-match
trace: no-description-match""",
    ),
]


_NER_KNOB_UNRESOLVABLE = (
    "ner-unit", "unresolvable",
    "no gram weight for NER unit 'knob' (phrase-scan and bare-count are "
    "skipped: the phrase names an explicit measure)",
    None, None,
)
_SCAN_SKIPPED_BY_NER = (
    "phrase-scan", "skipped", "NER already detected a unit", None, None,
)
_SIZE_SKIPPED = (
    "size-as-unit", "skipped", "no SIZE entity in the phrase", None, None,
)
_BARE_SKIPPED_BY_NER = (
    "bare-count", "skipped", "NER already detected a unit", None, None,
)

#: Recorder rows for branches no natural line reaches, pinned at the
#: ``run_unit_chain`` level: (id, ``_parsed`` arguments, food to match,
#: quantity, corpus observations or ``None`` for the collect pass,
#: expected trace, expected rows).
CHAIN_GOLDEN = [
    (
        "plausibility-rescue-resolves",
        dict(text="500 g water or 1 cup", name="water", unit="cups",
             quantity="500"),
        "water", 500.0, (),
        ("ner-unit:implausible", "plausibility-rescue:resolved"),
        (
            ("phrase-scan", "skipped", "ner-unit already produced a candidate", None, None),
            ("size-as-unit", "skipped", "ner-unit already produced a candidate", None, None),
            ("bare-count", "skipped", "ner-unit already produced a candidate", None, None),
            ("ner-unit", "implausible", "500 x 237 g/unit exceeds the 5000 g threshold", "cup", 237.0),
            ("plausibility-rescue", "resolved", "unit resolved", "gram", 1.0),
        ),
    ),
    (
        "size-as-unit-resolves",
        dict(text="1 knob onion", name="onion", unit="knob", size="small"),
        "onion", 1.0, (),
        ("ner-unit:unresolvable", "size-as-unit:resolved"),
        (
            _NER_KNOB_UNRESOLVABLE,
            _SCAN_SKIPPED_BY_NER,
            ("bare-count", "skipped", "size-as-unit already produced a candidate", None, None),
            ("size-as-unit", "resolved", "unit resolved", "small", 70.0),
        ),
    ),
    (
        "corpus-unresolvable",
        dict(text="1 knob butter", unit="knob"),
        "butter", 1.0, (("butter", "head"),),
        ("ner-unit:unresolvable", "corpus-frequent-unit:unresolvable"),
        (
            _NER_KNOB_UNRESOLVABLE,
            _SCAN_SKIPPED_BY_NER,
            _SIZE_SKIPPED,
            _BARE_SKIPPED_BY_NER,
            ("corpus-frequent-unit", "unresolvable", "frequent unit 'head' has no gram weight for this food", None, None),
        ),
    ),
    (
        "corpus-implausible",
        dict(text="500 knob water", name="water", unit="knob",
             quantity="500"),
        "water", 500.0, (("water", "cup"),),
        ("ner-unit:unresolvable", "corpus-frequent-unit:implausible"),
        (
            _NER_KNOB_UNRESOLVABLE,
            _SCAN_SKIPPED_BY_NER,
            _SIZE_SKIPPED,
            _BARE_SKIPPED_BY_NER,
            ("corpus-frequent-unit", "implausible", "frequent unit 'cup' resolves but 500 x 237 g/unit exceeds the 5000 g threshold", "cup", 237.0),
        ),
    ),
    (
        "collect-pass-skip",
        dict(text="1 knob butter", unit="knob"),
        "butter", 1.0, None,
        ("ner-unit:unresolvable",),
        (
            _NER_KNOB_UNRESOLVABLE,
            _SCAN_SKIPPED_BY_NER,
            _SIZE_SKIPPED,
            _BARE_SKIPPED_BY_NER,
            ("corpus-frequent-unit", "skipped", "corpus statistics not consulted (collect pass)", None, None),
        ),
    ),
]


def _rows(reports):
    return tuple(
        (r.stage, r.outcome, r.detail, r.unit, r.grams_per_unit)
        for r in reports
    )


class TestPinnedExplain:
    @pytest.fixture(scope="class")
    def estimator(self):
        return NutritionEstimator()

    @pytest.mark.parametrize(
        "text, context, rows, rendered",
        EXPLAIN_GOLDEN,
        ids=[case[0] for case in EXPLAIN_GOLDEN],
    )
    def test_stage_rows_and_render(self, estimator, text, context, rows,
                                   rendered):
        explanation = explain_line(estimator, text, context=context)
        assert _rows(explanation.stages) == rows
        assert explanation.render() == rendered


class TestPinnedChainRows:
    @pytest.fixture(scope="class")
    def estimator(self):
        return NutritionEstimator()

    @pytest.mark.parametrize(
        "parse, food, quantity, observations, trace, rows",
        [case[1:] for case in CHAIN_GOLDEN],
        ids=[case[0] for case in CHAIN_GOLDEN],
    )
    def test_recorder_rows(self, estimator, parse, food, quantity,
                           observations, trace, rows):
        from repro.core.explain import _StageRecorder

        stats = None
        if observations is not None:
            stats = UnitFallback()
            for name, unit in observations:
                stats.observe(name, unit, 2)
        match = estimator.matcher.match(food, "")
        recorder = _StageRecorder()
        result = run_unit_chain(
            _parsed(**parse),
            UnitResolver(match.food),
            quantity, DEFAULT_MAX_GRAMS, stats,
            recorder=recorder,
        )
        assert result.trace == trace
        assert _rows(recorder.reports) == rows
