"""Exact-parity guarantees of the sharded corpus engine and the
vectorized perceptron hot path.

The contract under test (ISSUE 2): multi-worker ``estimate_corpus``
produces **bit-identical** ``RecipeEstimate`` objects to the
single-process path on a shuffled corpus, and the vectorized
perceptron emissions match the dict-based reference on trained
weights.
"""

from __future__ import annotations

import copyreg
import dataclasses
import io
import pickle
import pickletools
import random

import numpy as np
import pytest

from repro import (
    EstimatorSpec,
    NutritionEstimator,
    RecipeGenerator,
    ShardedCorpusEstimator,
)
from repro.core.estimator import (
    STATUS_FULL,
    STATUS_NAME_ONLY,
    quarantined_estimate,
)
from repro.core.resolution import REASON_NO_MATCH, REASON_NO_NAME
from repro.ner import AveragedPerceptronTagger
from repro.ner.features import extract_features
from repro.pipeline import engine as engine_module, wire
from repro.pipeline.wire import dumps_estimates, loads_estimates
from repro.recipedb.corpus import save_recipes_jsonl
from repro.recipedb.generator import GeneratorConfig
from repro.usda.schema import FoodItem


class _ExplodingTagger:
    """Picklable tagger that fails on every phrase (worker-crash test)."""

    def predict(self, tokens):
        raise RuntimeError("exploding tagger")


@pytest.fixture(scope="module")
def shuffled_corpus():
    """A generated corpus in deliberately shuffled order."""
    recipes = RecipeGenerator(config=GeneratorConfig(seed=11)).generate(150)
    rng = random.Random(5)
    shuffled = list(recipes)
    rng.shuffle(shuffled)
    return shuffled


@pytest.fixture(scope="module")
def reference_estimates(shuffled_corpus):
    return NutritionEstimator().estimate_corpus(shuffled_corpus)


class TestShardedParity:
    def test_multi_worker_bit_identical(
        self, shuffled_corpus, reference_estimates
    ):
        engine = ShardedCorpusEstimator(workers=3, chunk_size=29)
        parallel = engine.estimate_corpus(shuffled_corpus)
        assert parallel == reference_estimates

    def test_single_worker_in_process_bit_identical(
        self, shuffled_corpus, reference_estimates
    ):
        engine = ShardedCorpusEstimator(workers=1, chunk_size=29)
        assert engine.estimate_corpus(shuffled_corpus) == reference_estimates

    def test_parity_corpus_exercises_fallback(self, reference_estimates):
        """Guard against a vacuous parity check: the corpus must
        actually contain lines resolved via corpus-level unit
        statistics and lines left name-only."""
        flat = [i for e in reference_estimates for i in e.ingredients]
        assert any(i.used_fallback_unit for i in flat)
        assert any(i.status == STATUS_NAME_ONLY for i in flat)

    def test_provenance_ships_bit_identically_across_workers(
        self, shuffled_corpus, reference_estimates
    ):
        """Reason codes and traces travel the wire codec unchanged:
        every worker-produced line carries the exact provenance the
        single-process path computed (dataclass == already covers it;
        this pins the fields explicitly so a codec regression that
        drops them cannot hide behind an equality shortcut)."""
        engine = ShardedCorpusEstimator(workers=2, chunk_size=17)
        parallel = engine.estimate_corpus(shuffled_corpus)
        reasons_seen = set()
        for ours, reference in zip(parallel, reference_estimates):
            for a, b in zip(ours.ingredients, reference.ingredients):
                assert a.reason == b.reason
                assert a.trace == b.trace
                assert a.reason  # never empty on pipeline output
                reasons_seen.add(a.reason)
        # the corpus must exercise more than one strategy for this
        # check to mean anything
        assert len(reasons_seen) >= 3

    def test_corpus_diagnostics_identical_across_worker_counts(
        self, shuffled_corpus
    ):
        single = ShardedCorpusEstimator(workers=1).corpus_diagnostics(
            shuffled_corpus
        )
        sharded = ShardedCorpusEstimator(
            workers=2, chunk_size=23
        ).corpus_diagnostics(shuffled_corpus)
        assert sharded == single
        assert sharded.total_lines == sum(
            len(r.ingredient_texts) for r in shuffled_corpus
        )
        assert sharded.fully_mapped > 0
        assert sharded.unit_gap >= 0
        assert sum(sharded.resolved_by.values()) == sharded.fully_mapped
        assert "resolved by:" in sharded.render()

    def test_chunk_size_does_not_change_results(self, shuffled_corpus):
        small = ShardedCorpusEstimator(workers=2, chunk_size=7)
        large = ShardedCorpusEstimator(workers=2, chunk_size=500)
        assert small.estimate_corpus(shuffled_corpus) == large.estimate_corpus(
            shuffled_corpus
        )

    def test_jsonl_streaming_matches_in_memory(
        self, tmp_path, shuffled_corpus, reference_estimates
    ):
        path = tmp_path / "corpus.jsonl"
        save_recipes_jsonl(shuffled_corpus, path)
        engine = ShardedCorpusEstimator(workers=2, chunk_size=64)
        streamed = list(engine.iter_corpus_estimates(str(path)))
        assert streamed == reference_estimates

    def test_rejects_non_reiterable_source(self):
        engine = ShardedCorpusEstimator(workers=1)
        with pytest.raises(TypeError):
            engine.estimate_corpus(iter([]))

    def test_empty_corpus(self):
        assert ShardedCorpusEstimator(workers=1).estimate_corpus([]) == []

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            ShardedCorpusEstimator(workers=0)
        with pytest.raises(ValueError):
            ShardedCorpusEstimator(chunk_size=0)

    def test_worker_exception_propagates(self, shuffled_corpus):
        """A failing worker must raise in the coordinator, not hang
        the pool shutdown behind the bounded-imap gate."""
        engine = ShardedCorpusEstimator(
            EstimatorSpec(tagger=_ExplodingTagger()),
            workers=2,
            chunk_size=2,
        )
        with pytest.raises(RuntimeError, match="exploding tagger"):
            engine.estimate_corpus(shuffled_corpus[:12])


class TestEstimatorSpec:
    def test_spec_is_picklable(self):
        spec = EstimatorSpec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert len(list(clone.database())) == len(list(spec.database()))

    def test_build_applies_max_grams(self):
        estimator = EstimatorSpec(max_grams=123.0).build()
        assert estimator.max_grams == 123.0

    def test_custom_database_roundtrip(self, db):
        spec = EstimatorSpec.for_database(db)
        rebuilt = spec.database()
        assert list(rebuilt) == list(db)


class TestWireCodec:
    def test_roundtrip_field_for_field(self, shuffled_corpus):
        estimator = NutritionEstimator()
        estimates = [
            estimator.estimate_ingredient(text)
            for recipe in shuffled_corpus[:40]
            for text in recipe.ingredient_texts
        ]
        # Matched + at least one other status, so the codec is
        # exercised with and without match/resolution payload.
        assert len({e.status for e in estimates}) >= 2
        wire = dumps_estimates(estimates, estimator.database)
        assert loads_estimates(wire, estimator.database) == estimates

    def test_wire_strips_food_payload(self, shuffled_corpus):
        """Foods travel as indices: wire size must not scale with the
        ~1 KB food records, which naive pickle pays once per distinct
        food per chunk."""
        estimator = NutritionEstimator()
        estimates = []
        seen_foods = set()
        for recipe in shuffled_corpus:
            for text in recipe.ingredient_texts:
                estimate = estimator.estimate_ingredient(text)
                if estimate.match and estimate.match.food.ndb_no not in seen_foods:
                    seen_foods.add(estimate.match.food.ndb_no)
                    estimates.append(estimate)
        assert len(estimates) >= 30  # distinct foods, worst case for pickle
        naive = len(pickle.dumps(estimates, pickle.HIGHEST_PROTOCOL))
        wire = len(dumps_estimates(estimates, estimator.database))
        assert wire < naive / 1.5

    def test_loads_outside_codec_rejected(self, shuffled_corpus):
        estimator = NutritionEstimator()
        estimate = estimator.estimate_ingredient("1 cup white sugar")
        wire = dumps_estimates([estimate], estimator.database)
        with pytest.raises(RuntimeError):
            pickle.loads(wire)  # no database bound


def _legacy_dumps(estimates, database) -> bytes:
    """The codec as older run journals hold it: stock reduce for every
    record plus the ``FoodItem``-only dispatch entry."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    index_of = database.index_of
    table = copyreg.dispatch_table.copy()
    table[FoodItem] = lambda food: (
        wire._restore_food, (index_of(food.ndb_no),)
    )
    pickler.dispatch_table = table
    pickler.dump(list(estimates))
    return buffer.getvalue()


def _assert_same_fields(ours, theirs) -> None:
    """Equal field for field, recursing through nested records, with
    every leaf of the same type."""
    assert type(ours) is type(theirs)
    for f in dataclasses.fields(ours):
        a, b = getattr(ours, f.name), getattr(theirs, f.name)
        if dataclasses.is_dataclass(a):
            _assert_same_fields(a, b)
        else:
            assert type(a) is type(b), f.name
            assert a == b, f.name


def _opcodes(blob: bytes) -> set[str]:
    return {op.name for op, _, _ in pickletools.genops(blob)}


class TestWireRecords:
    """Field-tuple records: every estimate shape, and older blobs."""

    @pytest.fixture(scope="class")
    def shapes(self, shuffled_corpus):
        """One estimate of each shape the pipeline emits."""
        estimator = NutritionEstimator()
        flat = [
            line
            for recipe in estimator.estimate_corpus(shuffled_corpus[:60])
            for line in recipe.ingredients
        ]
        picks = {
            "full": lambda e: e.status == STATUS_FULL
            and not e.used_fallback_unit,
            "name-only": lambda e: e.status == STATUS_NAME_ONLY,
            "fallback-unit": lambda e: e.used_fallback_unit,
        }
        shapes = {
            name: next(e for e in flat if pick(e))
            for name, pick in picks.items()
        }
        shapes["no-name"] = estimator.estimate_ingredient("to taste")
        shapes["no-description-match"] = estimator.estimate_ingredient(
            "2 teaspoons garam masala"
        )
        shapes["quarantined"] = quarantined_estimate(
            "1 cup poison", RuntimeError("boom")
        )
        assert shapes["no-name"].reason == REASON_NO_NAME
        assert shapes["no-description-match"].reason == REASON_NO_MATCH
        return estimator, shapes

    @pytest.mark.parametrize("shape", [
        "full", "name-only", "fallback-unit", "no-name",
        "no-description-match", "quarantined",
    ])
    def test_every_shape_round_trips_field_for_field(self, shapes, shape):
        estimator, by_shape = shapes
        estimate = by_shape[shape]
        foods = list(estimator.database)
        (decoded,) = loads_estimates(
            dumps_estimates([estimate], estimator.database), foods
        )
        _assert_same_fields(decoded, estimate)
        if estimate.match is not None:
            assert decoded.match.food is foods[estimate.match.db_index]

    def test_records_travel_as_field_tuples(self, shapes):
        """No record goes through the dataclass ``__setstate__``."""
        estimator, by_shape = shapes
        estimates = list(by_shape.values())
        assert "BUILD" not in _opcodes(
            dumps_estimates(estimates, estimator.database)
        )
        assert "BUILD" in _opcodes(
            _legacy_dumps(estimates, estimator.database)
        )

    def test_legacy_blob_still_decodes(self, shapes, shuffled_corpus):
        estimator, by_shape = shapes
        estimates = list(by_shape.values()) + [
            estimator.estimate_ingredient(text)
            for recipe in shuffled_corpus[:20]
            for text in recipe.ingredient_texts
        ]
        blob = _legacy_dumps(estimates, estimator.database)
        decoded = loads_estimates(blob, estimator.database)
        assert decoded == estimates
        for ours, theirs in zip(decoded, estimates):
            _assert_same_fields(ours, theirs)

    def test_resume_of_legacy_journal_is_byte_identical(
        self, monkeypatch, tmp_path, shuffled_corpus
    ):
        """A journal whose chunks were written by the older codec
        resumes to the output of a clean run, repr for repr."""
        from repro.runs import RunJournal, RunManifest

        path = tmp_path / "corpus.jsonl"
        save_recipes_jsonl(shuffled_corpus[:60], path)
        with ShardedCorpusEstimator(workers=2, chunk_size=40) as engine:
            clean = engine.estimate_corpus(str(path))

        # Forked pool workers inherit the patched module global, so
        # every journaled chunk is a legacy blob.
        monkeypatch.setattr(engine_module, "dumps_estimates", _legacy_dumps)
        run_dir = tmp_path / "run"
        with ShardedCorpusEstimator(
            workers=2, chunk_size=40, run_dir=run_dir
        ) as engine:
            engine.estimate_corpus(str(path))
        monkeypatch.undo()
        records = RunJournal(run_dir / "journal.bin").scan().records
        assert len(records) >= 4
        assert "BUILD" in _opcodes(records[1].payload["wire"])
        with (run_dir / "journal.bin").open("r+b") as handle:
            handle.truncate(records[3].offset)
        manifest = RunManifest.load(run_dir)
        manifest.status = "running"
        manifest.save(run_dir)
        with ShardedCorpusEstimator(
            workers=2, chunk_size=40, run_dir=run_dir, resume=True
        ) as engine:
            resumed = engine.estimate_corpus(str(path))
            report = engine.last_report
        assert report.replayed_chunks >= 2 and report.executed_chunks >= 1
        assert resumed == clean
        assert repr(resumed) == repr(clean)


class TestVectorizedPerceptron:
    @pytest.fixture(scope="class")
    def trained(self):
        phrases = [
            item.tagged
            for item in RecipeGenerator(
                config=GeneratorConfig(seed=3)
            ).generate_phrases(250)
        ]
        tagger = AveragedPerceptronTagger()
        tagger.train(phrases, epochs=3)
        return tagger

    def test_emissions_bit_identical_to_dict_reference(self, trained):
        test_phrases = [
            item.tagged
            for item in RecipeGenerator(
                config=GeneratorConfig(seed=4)
            ).generate_phrases(120)
        ]
        for phrase in test_phrases:
            feats = extract_features(phrase.tokens)
            vectorized = trained._emissions(feats)
            reference = trained._emissions_reference(feats)
            assert np.array_equal(vectorized, reference), phrase.tokens

    def test_weight_matrix_mirrors_dict(self, trained):
        matrix = trained._weight_matrix
        feature_ids = trained._feature_ids
        assert matrix.shape == (len(feature_ids), len(trained.tags))
        for (feat, tag), weight in trained._weights.items():
            assert matrix[feature_ids[feat], tag] == weight
        assert np.count_nonzero(matrix) == len(trained._weights)

    def test_predictions_unchanged(self, trained):
        phrases = [
            item.tagged
            for item in RecipeGenerator(
                config=GeneratorConfig(seed=6)
            ).generate_phrases(60)
        ]
        for phrase in phrases:
            fast = trained.predict(phrase.tokens)
            # Force the reference path by hiding the matrix.
            matrix, trained._weight_matrix = trained._weight_matrix, None
            try:
                slow = trained.predict(phrase.tokens)
            finally:
                trained._weight_matrix = matrix
            assert fast == slow

    def test_trained_tagger_is_picklable(self, trained):
        clone = pickle.loads(pickle.dumps(trained))
        tokens = ["2", "cups", "chopped", "onion"]
        assert clone.predict(tokens) == trained.predict(tokens)

    def test_sharded_engine_with_trained_tagger(self, trained):
        """The paper's configuration (learned NER) through the pool."""
        recipes = RecipeGenerator(config=GeneratorConfig(seed=8)).generate(25)
        spec = EstimatorSpec(tagger=trained)
        single = spec.build().estimate_corpus(recipes)
        sharded = ShardedCorpusEstimator(
            spec, workers=2, chunk_size=16
        ).estimate_corpus(recipes)
        assert sharded == single
