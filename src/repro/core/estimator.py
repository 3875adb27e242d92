"""End-to-end nutritional profile estimation (paper Figure 1).

Per ingredient phrase:

1. **Ingredient Data Mining** — tokenize, run the NER tagger, group
   tagged tokens into NAME / STATE / UNIT / QUANTITY / TEMP / DF / SIZE
   entities (§II-A).
2. **Closest Description Annotation** — match NAME (+STATE/TEMP/DF)
   against USDA-SR with the modified Jaccard matcher (§II-B).
3. **Units Matching** — normalize the unit, resolve grams through the
   matched food's portions (deriving volumes when absent), then run
   the fallback chain: scan the raw phrase for a known unit, apply the
   grams-per-line plausibility threshold, and finally use the most
   frequent unit observed for that ingredient across the corpus
   (§II-C).
4. Multiply nutrients-per-gram by the resolved grams; sum over the
   recipe; divide by servings.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Protocol

from repro.core.profile import NutritionalProfile
from repro.core.resolution import (
    REASON_ESTIMATOR_ERROR,
    REASON_NO_MATCH,
    REASON_NO_NAME,
    ChainRecorder,
    ChainResult,
    run_unit_chain,
)
from repro.deadletter import DeadLetterLog
from repro.matching.matcher import DescriptionMatcher, MatcherConfig
from repro.matching.types import MatchResult
from repro.ner.rule_tagger import RuleBasedTagger
from repro.recipedb.model import Recipe, check_servings
from repro.text.quantity import try_parse_quantity
from repro.units.fallback import DEFAULT_MAX_GRAMS, UnitFallback
from repro.units.gram_weights import UnitResolution, UnitResolver
from repro.text.tokenize import tokenize
from repro.usda.database import NutrientDatabase, load_default_database
from repro.utils import DEFAULT_CACHE_CAP

#: Ingredient-level mapping status (drives Figure 2's two series).
STATUS_FULL = "matched"          # name and unit both resolved
STATUS_NAME_ONLY = "name-only"   # description found, unit failed
STATUS_UNMATCHED = "unmatched"   # no description match


class Tagger(Protocol):
    """Anything that tags token sequences (perceptron, CRF, rules)."""

    def predict(self, tokens: list[str] | tuple[str, ...]) -> list[str]:
        ...


@dataclass(frozen=True, slots=True)
class ParsedIngredient:
    """Entity view of one tagged phrase."""

    text: str
    tokens: tuple[str, ...]
    tags: tuple[str, ...]
    name: str
    state: str
    unit: str
    quantity: str
    temperature: str
    dry_fresh: str
    size: str


@dataclass(frozen=True, slots=True)
class IngredientEstimate:
    """Per-ingredient estimation outcome with full provenance.

    ``reason`` names the :mod:`repro.core.resolution` strategy that
    resolved the unit (status ``matched``), the last strategy that
    failed (status ``name-only``), or the pre-unit failure
    (``no-name`` / ``no-description-match``, status ``unmatched``).
    ``trace`` is the compact chain of ``"stage:outcome"`` events for
    the stages that ran.  Provenance rides alongside the estimate —
    it never changes grams, profile or status.
    """

    parsed: ParsedIngredient
    status: str
    match: MatchResult | None = None
    resolution: UnitResolution | None = None
    quantity: float = 0.0
    grams: float = 0.0
    profile: NutritionalProfile = field(default_factory=NutritionalProfile.zero)
    used_fallback_unit: bool = False
    reason: str = ""
    trace: tuple[str, ...] = ()

    @property
    def calories(self) -> float:
        return self.profile.calories


@dataclass(frozen=True, slots=True)
class RecipeEstimate:
    """Recipe-level aggregate."""

    ingredients: tuple[IngredientEstimate, ...]
    servings: int
    total: NutritionalProfile
    per_serving: NutritionalProfile

    @property
    def fraction_fully_mapped(self) -> float:
        """Share of ingredient lines with name+unit resolved (Figure 2)."""
        if not self.ingredients:
            return 0.0
        full = sum(1 for i in self.ingredients if i.status == STATUS_FULL)
        return full / len(self.ingredients)

    @property
    def fraction_name_mapped(self) -> float:
        """Share of lines whose name matched a description."""
        if not self.ingredients:
            return 0.0
        named = sum(
            1 for i in self.ingredients if i.status != STATUS_UNMATCHED
        )
        return named / len(self.ingredients)


def quarantined_estimate(text: str, error: BaseException) -> IngredientEstimate:
    """Zero-contribution placeholder for a line whose estimation raised.

    Status ``unmatched`` with reason ``estimator-error``: the line
    adds nothing to recipe totals and nothing to the corpus unit
    statistics, so every *other* line's estimate is bit-identical to
    a run over the corpus with this line removed — the quarantine
    parity contract (see :mod:`repro.deadletter`).
    """
    parsed = ParsedIngredient(
        text=text,
        tokens=(),
        tags=(),
        name="",
        state="",
        unit="",
        quantity="",
        temperature="",
        dry_fresh="",
        size="",
    )
    return IngredientEstimate(
        parsed=parsed,
        status=STATUS_UNMATCHED,
        reason=REASON_ESTIMATOR_ERROR,
        trace=(f"{REASON_ESTIMATOR_ERROR}:{type(error).__name__}",),
    )


def group_entities(
    text: str, tokens: tuple[str, ...], tags: tuple[str, ...]
) -> ParsedIngredient:
    """Group tagged tokens into a :class:`ParsedIngredient`.

    The entity-grouping half of :meth:`NutritionEstimator.parse`,
    shared verbatim with the columnar chunk pipeline
    (:mod:`repro.core.columnar`) so both paths produce identical
    parses from identical ``(tokens, tags)``.  See :meth:`parse` for
    the segment/primary-run semantics.
    """
    segments: list[list[int]] = [[]]
    for i, token in enumerate(tokens):
        if token == "," or token.lower() in ("or", "plus"):
            segments.append([])
        else:
            segments[-1].append(i)
    primary = next(
        (seg for seg in segments if any(tags[i] == "NAME" for i in seg)),
        list(range(len(tokens))),
    )

    def first_run(tag: str) -> list[str]:
        run: list[str] = []
        in_run = False
        for i in primary:
            if tags[i] == tag:
                run.append(tokens[i])
                in_run = True
            elif in_run:
                break
        return run

    name_tokens = [tokens[i] for i in primary if tags[i] == "NAME"]
    state_tokens = [t for t, g in zip(tokens, tags) if g == "STATE"]
    quantity = " ".join(first_run("QUANTITY")).replace(" - ", "-")
    return ParsedIngredient(
        text=text,
        tokens=tokens,
        tags=tags,
        name=" ".join(name_tokens),
        state=" ".join(state_tokens),
        unit=" ".join(first_run("UNIT")),
        quantity=quantity,
        temperature=" ".join(tokens[i] for i in primary if tags[i] == "TEMP"),
        dry_fresh=" ".join(tokens[i] for i in primary if tags[i] == "DF"),
        size=" ".join(tokens[i] for i in primary if tags[i] == "SIZE"),
    )


class NutritionEstimator:
    """The full pipeline over one nutrient database."""

    def __init__(
        self,
        database: NutrientDatabase | None = None,
        tagger: Tagger | None = None,
        matcher_config: MatcherConfig | None = None,
        max_grams: float = DEFAULT_MAX_GRAMS,
        cache_cap: int = DEFAULT_CACHE_CAP,
        *,
        matcher: DescriptionMatcher | None = None,
        resolvers: dict[str, UnitResolver] | None = None,
    ):
        """Build the pipeline, or assemble it from prebuilt parts.

        The keyword-only *matcher* and *resolvers* accept components
        restored from an artifact snapshot (:mod:`repro.artifacts`),
        skipping description preprocessing and portion normalization.
        A prebuilt matcher must wrap *database* and excludes
        *matcher_config* (the matcher already carries its config).
        *max_grams* is the unit chain's plausibility threshold (grams
        per ingredient line).
        """
        if max_grams <= 0:
            raise ValueError(f"non-positive max_grams: {max_grams}")
        self._db = database or load_default_database()
        self._tagger: Tagger = tagger or RuleBasedTagger()
        if matcher is None:
            matcher = DescriptionMatcher(
                self._db, matcher_config, cache_cap=cache_cap
            )
        else:
            if matcher_config is not None:
                raise ValueError(
                    "matcher_config and a prebuilt matcher are mutually "
                    "exclusive (the matcher already has a config)"
                )
            if matcher.database is not self._db:
                raise ValueError(
                    "prebuilt matcher must wrap the estimator's database"
                )
        self._matcher = matcher
        self._max_grams = max_grams
        self._resolvers: dict[str, UnitResolver] = dict(resolvers or {})
        self._columnar = None  # lazy ColumnarPipeline (repro.core.columnar)

    @property
    def database(self) -> NutrientDatabase:
        return self._db

    @property
    def matcher(self) -> DescriptionMatcher:
        return self._matcher

    @property
    def tagger(self) -> Tagger:
        """The NER tagger stage (rule tagger unless one was injected)."""
        return self._tagger

    @property
    def max_grams(self) -> float:
        """The plausibility threshold (grams per ingredient line)."""
        return self._max_grams

    @property
    def columnar(self):
        """The batched per-chunk pipeline bound to this estimator.

        Built lazily (:mod:`repro.core.columnar` imports this module,
        so a top-level import would be circular) and memoized.
        Results are bit-identical to :meth:`_estimate_from_parsed` over
        :meth:`parse` per line — the columnar stages only reorganize
        *where* work happens (per chunk instead of per line), never
        *what* is computed.
        """
        if self._columnar is None:
            from repro.core.columnar import ColumnarPipeline

            self._columnar = ColumnarPipeline(self)
        return self._columnar

    # ------------------------------------------------------------------
    # stage 1: ingredient data mining

    def parse(self, text: str) -> ParsedIngredient:
        """Tokenize, tag and group entities for one phrase.

        Phrases split into *segments* at commas and the alternative
        markers "or"/"plus"; NAME, UNIT, QUANTITY, SIZE, TEMP and DF
        come from the first segment that carries a NAME tag ("3/4 cup
        butter or 3/4 cup margarine , softened" keeps quantity "3/4",
        unit "cup", name "butter" — Table I keeps the first
        alternative; "cream of mushroom soup" keeps the full
        O-interrupted name).  STATE keeps every tagged token across
        segments ("1 hard-cooked egg , finely chopped" ->
        "hard-cooked chopped").  Within the primary segment, QUANTITY
        and UNIT take the first contiguous run so packaging
        parentheticals ("1 (15 ounce) can") cannot smuggle a second
        measure in.
        """
        tokens = tuple(tokenize(text))
        tags = tuple(self._tagger.predict(list(tokens)))
        return group_entities(text, tokens, tags)

    # ------------------------------------------------------------------
    # stage 3: units

    def _resolver(self, ndb_no: str) -> UnitResolver:
        if ndb_no not in self._resolvers:
            self._resolvers[ndb_no] = UnitResolver(self._db.get(ndb_no))
        return self._resolvers[ndb_no]

    def _resolve_unit(
        self,
        parsed: ParsedIngredient,
        match: MatchResult,
        quantity: float,
        stats: UnitFallback | None,
        *,
        recorder: ChainRecorder | None = None,
    ) -> ChainResult:
        """Unit resolution with the §II-C strategy chain.

        Thin binding of :func:`repro.core.resolution.run_unit_chain`
        to this estimator's per-food resolvers and plausibility
        threshold — the chain order, skip rules (an NER-detected unit
        that fails to resolve skips the phrase-scan and bare-count
        strategies; see the :mod:`repro.core.resolution` docstring)
        and reason codes all live there.  *stats* is the frozen
        corpus table the ``corpus-frequent-unit`` strategy reads;
        ``None`` skips that strategy — the collect pass of the corpus
        protocol uses this so each line's outcome depends only on the
        line itself, never on processing order.  *recorder* (the
        explain surface) observes every stage without changing the
        result.
        """
        return run_unit_chain(
            parsed,
            self._resolver(match.food.ndb_no),
            quantity,
            self._max_grams,
            stats,
            recorder,
        )

    # ------------------------------------------------------------------
    # per-ingredient estimate

    @staticmethod
    def parse_cache_stats() -> dict:
        """The ``caches.parse`` entry of ``/metrics``: always zeros.

        The estimator keeps no parse memo (the chunk pipeline parses
        each distinct line once, and the service memoizes whole line
        outcomes); the six keys stay because the ``/metrics`` schema
        is additive.
        """
        return {
            "size": 0, "cap": 0, "hits": 0, "misses": 0,
            "evictions": 0, "hit_rate": 0.0,
        }

    def _estimate_from_parsed(
        self,
        parsed: ParsedIngredient,
        stats: UnitFallback | None = None,
        *,
        quantity_memo: dict[str, float | None] | None = None,
        recorder: ChainRecorder | None = None,
    ) -> IngredientEstimate:
        """Stages 2-4 for an already-parsed phrase.

        The pure core of the pipeline: the result depends only on
        *parsed* and the frozen corpus statistics *stats* (``None``:
        no corpus-frequent-unit strategy).  The shared tail of the
        columnar chunk pipeline (:mod:`repro.core.columnar`) after its
        batched parse stage and of
        :func:`repro.core.explain.explain_line` — one implementation,
        so the paths cannot drift.  *quantity_memo*
        (columnar only) caches :func:`try_parse_quantity` results per
        distinct quantity string; the function is pure, so memoization
        cannot change outcomes.  *recorder* is handed to the unit
        chain (see :func:`repro.core.resolution.run_unit_chain`).
        """
        if not parsed.name:
            return IngredientEstimate(
                parsed=parsed,
                status=STATUS_UNMATCHED,
                reason=REASON_NO_NAME,
                trace=(REASON_NO_NAME,),
            )
        match = self._matcher.match(
            parsed.name, parsed.state, parsed.temperature, parsed.dry_fresh
        )
        if match is None:
            return IngredientEstimate(
                parsed=parsed,
                status=STATUS_UNMATCHED,
                reason=REASON_NO_MATCH,
                trace=(REASON_NO_MATCH,),
            )

        if not parsed.quantity:
            quantity = None
        elif quantity_memo is not None and parsed.quantity in quantity_memo:
            quantity = quantity_memo[parsed.quantity]
        else:
            quantity = try_parse_quantity(parsed.quantity)
            if quantity_memo is not None:
                quantity_memo[parsed.quantity] = quantity
        if quantity is None:
            quantity = 1.0  # "salt to taste" and missing quantities

        outcome = self._resolve_unit(
            parsed, match, quantity, stats, recorder=recorder
        )
        if outcome.resolution is None:
            return IngredientEstimate(
                parsed=parsed,
                status=STATUS_NAME_ONLY,
                match=match,
                quantity=quantity,
                reason=outcome.reason,
                trace=outcome.trace,
            )
        resolution = outcome.resolution
        grams = quantity * resolution.grams_per_unit
        return IngredientEstimate(
            parsed=parsed,
            status=STATUS_FULL,
            match=match,
            resolution=resolution,
            quantity=quantity,
            grams=grams,
            profile=NutritionalProfile.from_food(match.food, grams),
            used_fallback_unit=outcome.used_corpus_unit,
            reason=outcome.reason,
            trace=outcome.trace,
        )

    def estimate_ingredient(self, text: str) -> IngredientEstimate:
        """Full pipeline for one phrase: the one-line corpus table.

        The two-phase protocol over ``{text: 1}``, so the result is a
        pure function of (database, tagger, text) and equals
        ``estimate_recipe([text]).ingredients[0]``.
        """
        return self.corpus_estimate_table({text: 1})[text]

    # ------------------------------------------------------------------
    # recipe level

    @staticmethod
    def finish_recipe(
        estimates: Sequence[IngredientEstimate], servings: int
    ) -> RecipeEstimate:
        """Aggregate per-ingredient estimates into a recipe estimate.

        Shared by :meth:`estimate_recipe`, :meth:`estimate_corpus`, the
        sharded corpus engine's coordinator and the service so all sum
        profiles in the identical order with identical float
        operations (exact-parity requirement).  Static: aggregation
        needs no estimator state.
        """
        check_servings(servings)
        total = NutritionalProfile.sum(est.profile for est in estimates)
        return RecipeEstimate(
            ingredients=tuple(estimates),
            servings=servings,
            total=total,
            per_serving=total.per_serving(servings),
        )

    def estimate_recipe(
        self, ingredient_texts: list[str], servings: int = 1
    ) -> RecipeEstimate:
        """Estimate a whole recipe from its ingredient phrases.

        The recipe is its own corpus: the two-phase protocol over its
        line counts — the table ``/v1/estimate`` computes — so the
        result depends neither on line order nor on earlier calls.
        """
        check_servings(servings)
        table = self.corpus_estimate_table(Counter(ingredient_texts))
        return self.finish_recipe(
            [table[text] for text in ingredient_texts], servings
        )

    # ------------------------------------------------------------------
    # corpus level: the two-phase protocol (§II-C, sharding-exact)

    def corpus_collect_estimates(
        self,
        texts_with_counts: Iterable[tuple[str, int]],
        *,
        quarantine: DeadLetterLog | None = None,
        ordinal_base: int = 0,
    ) -> tuple[dict[str, IngredientEstimate], dict[str, dict[str, int]]]:
        """Corpus pass 1 over distinct ingredient lines (shardable).

        Estimates each distinct text with ``stats=None`` — no
        corpus-frequent-unit strategy — and tallies (name, unit)
        observations weighted by how often the line occurs.  Because no
        statistics are read, each line's outcome — and therefore the
        observation table — is independent of processing order and of
        how the corpus is sharded across workers, and a line's pass-1
        estimate is a pure function of (database, tagger, text): the
        service memoizes it across requests on that basis
        (:mod:`repro.service.state`).  The chunk runs through the
        batched pipeline (:mod:`repro.core.columnar`).

        With *quarantine*, a line whose estimation raises is diverted
        to a dead-letter record (numbered ``ordinal_base + i`` in the
        distinct-line table — shard coordinators pass their chunk's
        base ordinal) and replaced by a zero-contribution
        :func:`quarantined_estimate` instead of aborting the pass.
        Without it (the default), exceptions propagate — strict mode,
        the seed behaviour.

        Returns ``(text -> estimate, observation snapshot)``.  The
        snapshot merges across shards via :meth:`UnitFallback.merge`.
        """
        observations = UnitFallback(self._max_grams)
        estimates: dict[str, IngredientEstimate] = {}
        items = (
            texts_with_counts
            if isinstance(texts_with_counts, list)
            else list(texts_with_counts)
        )
        outcomes = self.columnar.estimate_lines([text for text, _ in items])
        for i, ((text, count), outcome) in enumerate(zip(items, outcomes)):
            try:
                estimate = outcome.unwrap()
            except Exception as exc:
                if quarantine is None:
                    raise
                estimate = quarantined_estimate(text, exc)
                quarantine.add(
                    "estimate",
                    ordinal_base + i,
                    text,
                    REASON_ESTIMATOR_ERROR,
                    repr(exc),
                )
            estimates[text] = estimate
            if estimate.status == STATUS_FULL:
                observations.observe(
                    estimate.parsed.name, estimate.resolution.unit, count
                )
        return estimates, observations.snapshot()

    def corpus_fallback_estimates(
        self,
        texts: Iterable[str],
        stats: UnitFallback,
        *,
        quarantine: DeadLetterLog | None = None,
        ordinals: dict[str, int] | None = None,
    ) -> dict[str, IngredientEstimate]:
        """Corpus pass 2 for the unit-unresolved lines (shardable).

        Re-estimates against *stats* — by protocol, the merged pass-1
        statistics of the whole corpus.  The table is only read, never
        written, so results again do not depend on order or sharding.

        With *quarantine*, a line that raises here is dead-lettered
        and simply **omitted** from the returned dict, which leaves
        its valid pass-1 name-only estimate standing (pass 2 can only
        upgrade a line, so keeping the pass-1 outcome is the safe
        degradation).  *ordinals* maps text to its distinct-line
        ordinal for the dead-letter record.
        """
        estimates: dict[str, IngredientEstimate] = {}
        items = texts if isinstance(texts, list) else list(texts)
        outcomes = self.columnar.estimate_lines(items, stats=stats)
        for text, outcome in zip(items, outcomes):
            try:
                estimates[text] = outcome.unwrap()
            except Exception as exc:
                if quarantine is None:
                    raise
                quarantine.add(
                    "estimate",
                    (ordinals or {}).get(text, -1),
                    text,
                    REASON_ESTIMATOR_ERROR,
                    repr(exc),
                )
        return estimates

    def corpus_protocol(
        self,
        counts: dict[str, int] | Sequence[tuple[str, int]],
        *,
        quarantine: DeadLetterLog | None = None,
    ) -> tuple[dict[str, IngredientEstimate], dict[str, dict[str, int]]]:
        """The full two-phase protocol over a line table.

        Collect, freeze the observations into one :class:`UnitFallback`,
        re-estimate the name-only lines against it, and return
        ``(text -> final estimate, frozen snapshot)``.  The canonical
        implementation — :meth:`corpus_estimate_table`,
        :meth:`estimate_corpus` and the sharded engine's in-process
        (``workers=1``) path call it.  The service runs the same
        sequence over its memoized pass-1 records
        (``ServiceState._memo_protocol``), and
        ``tests/test_line_memo.py`` compares the two.
        *quarantine* enables poison-line diversion in both passes (see
        :meth:`corpus_collect_estimates`).

        *counts* is normally a distinct-line table (``text -> count``)
        but also accepts an explicit ``(text, count)`` sequence with
        repeated texts, which yields the identical table: estimation is
        deterministic per text, and n unit observations of weight 1
        equal one observation of weight n (same counts, same key
        insertion order, same tie-breaks).
        """
        items = (
            list(counts.items())
            if isinstance(counts, dict)
            else list(counts)
        )
        estimates, snapshot = self.corpus_collect_estimates(
            items, quarantine=quarantine
        )
        stats = UnitFallback(self._max_grams)
        stats.merge(snapshot)
        pending = [
            text
            for text, estimate in estimates.items()
            if estimate.status == STATUS_NAME_ONLY
        ]
        ordinals = None
        if quarantine is not None:
            ordinals = {}
            for i, (text, _) in enumerate(items):
                if text not in ordinals:
                    ordinals[text] = i
        estimates.update(
            self.corpus_fallback_estimates(
                pending, stats, quarantine=quarantine, ordinals=ordinals
            )
        )
        return estimates, snapshot

    def corpus_estimate_table(
        self,
        counts: dict[str, int] | Sequence[tuple[str, int]],
        *,
        quarantine: DeadLetterLog | None = None,
    ) -> dict[str, IngredientEstimate]:
        """``text -> final estimate`` from :meth:`corpus_protocol`."""
        return self.corpus_protocol(counts, quarantine=quarantine)[0]

    def estimate_corpus(self, recipes: list[Recipe]) -> list[RecipeEstimate]:
        """Estimate many recipes with corpus-level unit statistics.

        Runs the two-phase corpus protocol:

        1. **Collect** — every distinct ingredient line is estimated
           without the corpus fallback; lines whose unit resolves
           directly contribute their (name, unit) to the
           most-frequent-unit table, weighted by occurrence count.
        2. **Freeze & re-estimate** — the collected observations are
           frozen into one statistics table, and only the lines that
           matched a description but failed unit resolution are
           re-estimated against it (the paper's garlic -> clove
           example).  Resolved lines cannot be affected by the table,
           so their pass-1 estimates are already final.

        This preserves §II-C's semantics — "the most frequent unit for
        that particular ingredient was used" is a corpus-level
        statistic — while making the result exactly independent of
        recipe order and of sharding, which is what lets
        ``repro.pipeline`` distribute the passes across worker
        processes with bit-identical results.
        """
        counts = Counter(
            text for recipe in recipes for text in recipe.ingredient_texts
        )
        estimates = self.corpus_estimate_table(counts)
        return [
            self.finish_recipe(
                [estimates[text] for text in recipe.ingredient_texts],
                recipe.servings,
            )
            for recipe in recipes
        ]
