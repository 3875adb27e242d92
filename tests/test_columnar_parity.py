"""Differential harness: columnar chunk pipeline vs per-line oracle.

The columnar hot path (:mod:`repro.core.columnar`) re-stages the
estimation pipeline chunk-at-a-time but promises **bit-identical**
output to the per-line reference — estimates, reason codes, traces,
dead letters, and the position of every raised exception.  These
tests enforce that promise differentially: the per-line
``per_line_estimate`` loop in ``tests/references.py`` is the oracle,
the production columnar path is the candidate, and every comparison is
plain dataclass equality, which covers every provenance field
(``IngredientEstimate`` compares parsed tokens/tags, match,
resolution, grams, profile, reason *and* trace).

Swept axes:

* all 16 :class:`MatcherConfig` ablation combinations,
* chunk sizes 1 / 7 / 64 / whole-corpus,
* rule tagger and trained perceptron (the ``predict_batch`` fast path),
* edge chunks: empty lines, nameless lines, punctuation, unicode
  fractions, repeated lines, and poison lines injected through
  :mod:`repro.faults` in both strict and quarantine modes.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.estimator import NutritionEstimator
from repro.deadletter import DeadLetterLog
from repro.matching.matcher import MatcherConfig
from repro.ner.perceptron import AveragedPerceptronTagger
from repro.recipedb.generator import RecipeGenerator
from references import (
    per_line_collect,
    per_line_corpus,
    per_line_estimate,
    per_line_table,
)

#: Hand-picked hostile lines every swept corpus includes.
EDGE_LINES = [
    "",                                  # empty
    "   ",                               # whitespace only
    ", , ,",                             # punctuation only
    "1 cup",                             # quantity+unit, no name
    "2 tablespoons",                     # nameless again
    "salt to taste",                     # no quantity
    "2½ cups all-purpose flour",         # unicode vulgar fraction
    "1 1/2 cups whole milk",             # mixed number
    "3 large eggs , beaten",             # scraped-punctuation style
    "butter",                            # bare name
    "1 (14.5 oz) can diced tomatoes, drained",
    "garlic cloves, minced, or 1 tsp garlic powder",
]


def _corpus_counts(n_recipes: int = 40) -> dict[str, int]:
    """Distinct-line table: generated recipes plus the edge lines."""
    recipes = RecipeGenerator().generate(n_recipes)
    counts: dict[str, int] = {}
    for text in EDGE_LINES:
        counts[text] = counts.get(text, 0) + 1
    for recipe in recipes:
        for text in recipe.ingredient_texts:
            counts[text] = counts.get(text, 0) + 1
    return counts


def _fresh(matcher_config=None, tagger=None) -> NutritionEstimator:
    return NutritionEstimator(matcher_config=matcher_config, tagger=tagger)


@pytest.fixture(scope="module")
def counts() -> dict[str, int]:
    return _corpus_counts()


@pytest.fixture(scope="module")
def perceptron() -> AveragedPerceptronTagger:
    phrases = [
        item.tagged for item in RecipeGenerator().generate_phrases(400)
    ]
    tagger = AveragedPerceptronTagger()
    tagger.train(phrases, epochs=2)
    return tagger


ALL_CONFIGS = [
    MatcherConfig(
        use_modified_jaccard=mj,
        rewrite_negations=rn,
        raw_bonus=rb,
        priority_tiebreak=pt,
    )
    for mj, rn, rb, pt in itertools.product((True, False), repeat=4)
]


class TestMatcherConfigSweep:
    @pytest.mark.parametrize(
        "config",
        ALL_CONFIGS,
        ids=[
            f"mj{int(c.use_modified_jaccard)}-rn{int(c.rewrite_negations)}"
            f"-rb{int(c.raw_bonus)}-pt{int(c.priority_tiebreak)}"
            for c in ALL_CONFIGS
        ],
    )
    def test_two_phase_table_bit_identical(self, config, counts):
        """Full two-phase protocol, per matcher ablation combo."""
        reference = per_line_table(_fresh(config), counts)
        columnar = _fresh(config).corpus_estimate_table(counts)
        assert columnar == reference


class TestChunkSizes:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, None])
    def test_phase1_chunked_bit_identical(self, chunk_size, counts):
        """Phase-1 collect, chunked exactly as a sharded run chunks it.

        ``None`` means one whole-corpus chunk.  Both sides accumulate
        estimates *and* observation snapshots chunk-by-chunk on one
        estimator each (caches warm across chunks on both sides, as
        they do inside a pool worker)."""
        items = list(counts.items())
        size = len(items) if chunk_size is None else chunk_size

        def collect(columnar: bool):
            estimator = _fresh()
            estimates: dict = {}
            snapshots = []
            for i in range(0, len(items), size):
                if columnar:
                    part, snapshot = estimator.corpus_collect_estimates(
                        items[i : i + size], ordinal_base=i
                    )
                else:
                    part, snapshot = per_line_collect(
                        estimator, items[i : i + size], ordinal_base=i
                    )
                estimates.update(part)
                snapshots.append(snapshot)
            return estimates, snapshots

        ref_estimates, ref_snapshots = collect(columnar=False)
        col_estimates, col_snapshots = collect(columnar=True)
        assert col_estimates == ref_estimates
        assert col_snapshots == ref_snapshots

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, None])
    def test_estimate_lines_matches_per_line_oracle(
        self, chunk_size, counts
    ):
        """estimate_lines() in chunks vs literal per-line estimates."""
        texts = list(counts)
        size = len(texts) if chunk_size is None else chunk_size

        oracle = _fresh()
        expected = [
            per_line_estimate(oracle, text)
            for text in texts
        ]

        candidate = _fresh()
        actual = []
        for i in range(0, len(texts), size):
            outcomes = candidate.columnar.estimate_lines(
                texts[i : i + size]
            )
            actual.extend(outcome.unwrap() for outcome in outcomes)
        assert actual == expected


class TestTrainedPerceptron:
    def test_two_phase_table_bit_identical(self, perceptron, counts):
        """The predict_batch emission-gather path, against the oracle."""
        reference = per_line_table(_fresh(tagger=perceptron), counts)
        columnar = _fresh(tagger=perceptron).corpus_estimate_table(counts)
        assert columnar == reference

    def test_small_chunks_hit_every_length_bucket(self, perceptron, counts):
        texts = list(counts)
        oracle = _fresh(tagger=perceptron)
        expected = [
            per_line_estimate(oracle, text)
            for text in texts
        ]
        candidate = _fresh(tagger=perceptron)
        actual = []
        for i in range(0, len(texts), 7):
            outcomes = candidate.columnar.estimate_lines(
                texts[i : i + 7]
            )
            actual.extend(outcome.unwrap() for outcome in outcomes)
        assert actual == expected


class TestPoisonLines:
    POISON = "1 cup poisoned broth"

    def test_strict_mode_raises_at_identical_position(self, monkeypatch):
        """A fault-injected line raises from unwrap() at its own index;
        every line before it estimates identically first."""
        monkeypatch.setenv("REPRO_FAULTS", "raise@estimate-line:poisoned")
        texts = ["1 cup milk", self.POISON, "2 eggs", "butter"]

        from repro import faults

        oracle = _fresh()
        per_line: list = []
        with pytest.raises(RuntimeError) as ref_exc:
            for text in texts:
                faults.active_plan().poison(text)
                per_line.append(
                    per_line_estimate(oracle, text)
                )
        assert len(per_line) == 1  # milk estimated, poison raised

        candidate = _fresh()
        outcomes = candidate.columnar.estimate_lines(texts)
        assert outcomes[0].unwrap() == per_line[0]
        with pytest.raises(RuntimeError) as col_exc:
            outcomes[1].unwrap()
        assert str(col_exc.value) == str(ref_exc.value)
        # Lines after the poison still estimated (per-line isolation).
        assert outcomes[2].unwrap() == per_line_estimate(oracle, "2 eggs")
        assert outcomes[3].unwrap() == per_line_estimate(oracle, "butter")

    def test_quarantine_dead_letters_identical(self, monkeypatch, counts):
        """Two-phase + quarantine: tables and dead letters both match."""
        monkeypatch.setenv("REPRO_FAULTS", "raise@estimate-line:poisoned")
        poisoned = dict(counts)
        poisoned[self.POISON] = 3

        ref_log = DeadLetterLog()
        reference = per_line_table(_fresh(), poisoned, quarantine=ref_log)
        col_log = DeadLetterLog()
        columnar = _fresh().corpus_estimate_table(
            poisoned, quarantine=col_log
        )
        assert columnar == reference
        assert list(col_log.records) == list(ref_log.records)
        assert len(col_log) >= 1


class TestEdgeChunks:
    def test_edge_lines_only_chunk(self):
        """A chunk that is nothing but hostile lines."""
        reference = per_line_table(
            _fresh(), {text: 1 for text in EDGE_LINES}
        )
        columnar = _fresh().corpus_estimate_table(
            {text: 1 for text in EDGE_LINES}
        )
        assert columnar == reference

    def test_empty_chunk(self):
        assert _fresh().columnar.estimate_lines([]) == []

    def test_repeated_lines_share_one_parse(self):
        """Duplicates inside one chunk dedup but yield per-position
        outcomes identical to per-line calls."""
        texts = ["1 cup milk"] * 5 + ["2 eggs", "1 cup milk"]
        oracle = _fresh()
        expected = [
            per_line_estimate(oracle, text)
            for text in texts
        ]
        outcomes = _fresh().columnar.estimate_lines(texts)
        assert [outcome.unwrap() for outcome in outcomes] == expected


class TestEngineDifferential:
    def test_engine_columnar_vs_per_line_oracle(self):
        """The sharded engine against the per-line reference corpus."""
        from repro.pipeline.engine import ShardedCorpusEstimator

        recipes = RecipeGenerator().generate(30)
        oracle = per_line_corpus(recipes)
        with ShardedCorpusEstimator(workers=2, chunk_size=32) as engine:
            sharded = engine.estimate_corpus(recipes)
        assert sharded == oracle
