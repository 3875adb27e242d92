"""Differential harness: duplicate collapse vs per-occurrence reference.

Coordinator-side duplicate collapse hash-conses the corpus's
ingredient lines into a distinct-line table with multiplicities
before sharding, estimates each distinct line once, and fans the
results back out per occurrence.  The promise is
**bit-identical** output to the per-occurrence reference in
``tests/references.py``, which feeds every occurrence through
``corpus_estimate_table`` as its own ``(text, 1)`` item:

* weighted ``observe(name, unit, count=n)`` equals ``n`` independent
  observes — counts *and* first-seen insertion order, so every
  ``most_common`` tie-break lands identically (the Hypothesis
  properties below pin this algebraically, across arbitrary shard
  merge orders);
* dead letters for a poisoned distinct line are re-expanded to one
  record per occurrence with corpus-order line numbers, identical to
  the reference's per-occurrence records;
* durable runs journal the collapsed table, and a crashed run resumed
  with ``--resume`` byte-matches a clean run's report;
* the service tier's responses are byte-identical to bodies rendered
  from the reference table.

Every engine comparison is plain dataclass equality over
``RecipeEstimate``/``IngredientEstimate``, which covers parsed
tokens, match, resolution, grams, profile, reason and trace.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from references import per_occurrence_corpus, per_occurrence_protocol
from repro.core.estimator import STATUS_FULL
from repro.core.resolution import REASON_ESTIMATOR_ERROR
from repro.deadletter import MAX_INPUT_CHARS, DeadLetterLog
from repro.pipeline import ShardedCorpusEstimator
from repro.recipedb.corpus import save_recipes_jsonl
from repro.recipedb.generator import GeneratorConfig, RecipeGenerator
from repro.runs import RunManifest, RunMismatchError
from repro.units.fallback import UnitFallback, snapshot_digest

N_RECIPES = 24


@pytest.fixture(scope="module")
def corpus():
    """A duplicate-heavy corpus: every recipe appears twice."""
    recipes = RecipeGenerator(config=GeneratorConfig(seed=5)).generate(
        N_RECIPES
    )
    return recipes + recipes


@pytest.fixture(scope="module")
def oracle_estimates(corpus):
    """The per-occurrence reference, single process."""
    return per_occurrence_corpus(corpus)


class TestEngineDifferential:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk_size", [7, 64, 4096])
    def test_dedup_matches_oracle(
        self, corpus, oracle_estimates, workers, chunk_size
    ):
        with ShardedCorpusEstimator(
            workers=workers, chunk_size=chunk_size
        ) as engine:
            assert engine.estimate_corpus(list(corpus)) == oracle_estimates

    def test_report_counts_occurrences_and_distincts(self, corpus):
        engine = ShardedCorpusEstimator(workers=1)
        engine.estimate_corpus(list(corpus))
        report = engine.last_report
        total = sum(len(r.ingredient_texts) for r in corpus)
        distinct = len(
            {t for r in corpus for t in r.ingredient_texts}
        )
        assert report.total_lines == total
        assert report.distinct_lines == distinct
        # Doubled corpus: every line occurs at least twice.
        assert report.dedup_ratio >= 2.0

    def test_stats_digest_identical_across_modes(self, corpus):
        _, snapshot = per_occurrence_protocol(corpus)
        digests = {snapshot_digest(snapshot)}
        for workers in (1, 2):
            with ShardedCorpusEstimator(
                workers=workers, chunk_size=32
            ) as engine:
                engine.estimate_corpus(list(corpus))
                digests.add(engine.last_report.stats_digest)
        assert len(digests) == 1
        assert None not in digests


class TestDeadLetterExpansion:
    """A poisoned distinct line dead-letters every occurrence."""

    @pytest.fixture(scope="class")
    def poisoned_text(self, corpus):
        repeated = Counter(
            t for r in corpus for t in r.ingredient_texts
        )
        # The longest line occurring 2+ times: unique enough to select
        # by substring, repeated enough to exercise the expansion.
        return max(
            (t for t, n in repeated.items() if n >= 2), key=len
        )

    @staticmethod
    def _run(corpus, dedup: bool):
        """(estimates, dead letters) from the engine or the reference."""
        if dedup:
            engine = ShardedCorpusEstimator(workers=1, quarantine=True)
            estimates = engine.estimate_corpus(list(corpus))
            return estimates, engine.last_report.dead_letters.records
        log = DeadLetterLog()
        return per_occurrence_corpus(corpus, quarantine=log), log.records

    @pytest.mark.parametrize("dedup", [True, False])
    def test_one_letter_per_occurrence_in_corpus_order(
        self, monkeypatch, corpus, poisoned_text, dedup
    ):
        monkeypatch.setenv(
            "REPRO_FAULTS", f"raise@estimate-line:{poisoned_text}"
        )
        estimates, letters = self._run(corpus, dedup)
        flat = [t for r in corpus for t in r.ingredient_texts]
        expected_line_nos = [
            i for i, t in enumerate(flat) if t == poisoned_text
        ]
        assert len(expected_line_nos) >= 2
        assert [letter.line_no for letter in letters] == expected_line_nos
        assert all(letter.source == "estimate" for letter in letters)
        assert all(
            letter.reason == REASON_ESTIMATOR_ERROR for letter in letters
        )
        # The poisoned placeholders surface in every affected recipe.
        for recipe, estimate in zip(corpus, estimates):
            for text, item in zip(recipe.ingredient_texts, (
                estimate.ingredients
            )):
                if text == poisoned_text:
                    assert item.reason == REASON_ESTIMATOR_ERROR

    def test_expansion_is_mode_invariant(
        self, monkeypatch, corpus, poisoned_text
    ):
        monkeypatch.setenv(
            "REPRO_FAULTS", f"raise@estimate-line:{poisoned_text}"
        )
        engine, reference = (
            self._run(corpus, dedup) for dedup in (True, False)
        )
        assert engine[0] == reference[0]
        assert engine[1] == reference[1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_long_prefix_is_not_dead_lettered(
        self, monkeypatch, corpus, workers
    ):
        """Letters name lines by ordinal: a valid line whose first
        ``MAX_INPUT_CHARS`` characters equal a poisoned line's is not
        dead-lettered with it."""
        prefix = "2 cups all-purpose flour , " + ", ".join(
            ["sifted twice"] * 20
        )
        assert len(prefix) > MAX_INPUT_CHARS
        template = corpus[0].ingredients[0]
        recipes = [
            dataclasses.replace(
                corpus[0],
                ingredients=(dataclasses.replace(template, text=text),),
            )
            for text in (prefix + " zzpoison", prefix + " extra")
        ]
        monkeypatch.setenv("REPRO_FAULTS", "raise@estimate-line:zzpoison")
        with ShardedCorpusEstimator(
            workers=workers, quarantine=True
        ) as engine:
            estimates = engine.estimate_corpus(recipes)
            letters = engine.last_report.dead_letters.records
        assert [letter.line_no for letter in letters] == [0]
        assert estimates[0].ingredients[0].reason == REASON_ESTIMATOR_ERROR
        assert estimates[1].ingredients[0].status == STATUS_FULL


class TestDurableDedup:
    @pytest.fixture(scope="class")
    def corpus_path(self, tmp_path_factory, corpus):
        path = tmp_path_factory.mktemp("dedup-durable") / "corpus.jsonl"
        save_recipes_jsonl(list(corpus), path)
        return path

    def test_manifest_omits_dedup_key(self, tmp_path, corpus_path):
        run_dir = tmp_path / "run"
        with ShardedCorpusEstimator(
            workers=2, chunk_size=24, run_dir=run_dir
        ) as engine:
            engine.estimate_corpus(str(corpus_path))
        assert "dedup" not in RunManifest.load(run_dir).config

    def test_resume_refuses_flipped_dedup(self, tmp_path, corpus_path):
        """A manifest from an uncollapsed run (``"dedup": false``)
        journaled a differently shaped line table: resume refuses it."""
        run_dir = tmp_path / "run"
        with ShardedCorpusEstimator(
            workers=1, chunk_size=24, run_dir=run_dir
        ) as engine:
            engine.estimate_corpus(str(corpus_path))
        manifest = RunManifest.load(run_dir)
        manifest.status = "running"
        manifest.config["dedup"] = False
        manifest.save(run_dir)
        with pytest.raises(RunMismatchError, match="dedup"):
            ShardedCorpusEstimator(
                workers=1, chunk_size=24, run_dir=run_dir, resume=True
            ).estimate_corpus(str(corpus_path))

    def test_crashed_dedup_resume_matches_clean_oracle_run(
        self, tmp_path, corpus_path, oracle_estimates
    ):
        """Crash a durable run mid-journal, resume it, and compare
        against the per-occurrence reference and a clean durable run:
        estimates equal the reference and the dead-letter reports are
        byte-identical."""
        from repro.deadletter import REPORT_NAME, write_report_jsonl
        from repro.runs import RunJournal

        run_dir = tmp_path / "run"
        with ShardedCorpusEstimator(
            workers=2, chunk_size=24, run_dir=run_dir
        ) as engine:
            full = engine.estimate_corpus(str(corpus_path))
        assert full == oracle_estimates
        # Cut the journal mid-run (after the plan and two frames) —
        # the on-disk state a SIGKILL leaves — and resume.
        records = RunJournal(run_dir / "journal.bin").scan().records
        assert len(records) >= 4
        with (run_dir / "journal.bin").open("r+b") as handle:
            handle.truncate(records[3].offset)
        manifest = RunManifest.load(run_dir)
        manifest.status = "running"
        manifest.save(run_dir)
        with ShardedCorpusEstimator(
            workers=2, chunk_size=24, run_dir=run_dir, resume=True
        ) as engine:
            resumed = engine.estimate_corpus(str(corpus_path))
            resumed_report = engine.last_report
        assert resumed == oracle_estimates
        assert resumed_report.resumed

        # Byte-compare the resumed report against a clean run's report
        # (run ids normalized: they are the only legitimately
        # differing bytes).
        clean_dir = tmp_path / "clean"
        with ShardedCorpusEstimator(
            workers=2, chunk_size=24, run_dir=clean_dir
        ) as engine:
            engine.estimate_corpus(str(corpus_path))
            clean_report = engine.last_report
        write_report_jsonl(
            run_dir / REPORT_NAME, resumed_report.dead_letters, "run"
        )
        write_report_jsonl(
            clean_dir / REPORT_NAME, clean_report.dead_letters, "run"
        )
        assert (run_dir / REPORT_NAME).read_bytes() == (
            clean_dir / REPORT_NAME
        ).read_bytes()


class TestServiceByteParity:
    def test_responses_byte_identical_with_dedup_flipped(self, corpus):
        """Service bodies (collapsed tables, each distinct line
        rendered once per request) equal bodies rendered from the
        per-occurrence reference table."""
        from repro.service import codec
        from repro.service.state import ServiceConfig, ServiceState

        state = ServiceState(ServiceConfig(port=0))
        recipes = corpus[:8]
        request = codec.BatchRequest(
            recipes=tuple(
                codec.EstimateRequest(
                    ingredients=tuple(r.ingredient_texts),
                    servings=r.servings,
                )
                for r in recipes
            )
        )
        texts = tuple(corpus[0].ingredient_texts) * 2
        single = codec.EstimateRequest(ingredients=texts, servings=2)

        def render(table, texts, servings):
            estimate = state.estimator.finish_recipe(
                [table[t] for t in texts], servings
            )
            return codec.assemble_recipe_estimate_bytes(
                estimate,
                [codec.dumps_ingredient_fragment(table[t]) for t in texts],
            )

        batch_table, _ = per_occurrence_protocol(recipes)
        single_table = state.estimator.corpus_estimate_table(
            [(text, 1) for text in texts]
        )
        assert state.estimate_batch(request) == codec.assemble_batch_bytes(
            [render(batch_table, r.ingredients, r.servings)
             for r in request.recipes]
        )
        assert codec.dumps_body(state.estimate(single)) == render(
            single_table, texts, 2
        )


class TestWeightedObserveProperties:
    """S3: the multiplicity algebra behind duplicate collapse."""

    lines = st.lists(
        st.tuples(
            st.sampled_from(["flour", "sugar", "salt", "milk", "egg"]),
            st.sampled_from(["cup", "tsp", "tbsp", "g", "oz"]),
            st.integers(min_value=1, max_value=9),
        ),
        min_size=0,
        max_size=24,
    )

    @given(lines)
    @settings(max_examples=60, deadline=None)
    def test_weighted_observe_equals_n_independent_observes(self, items):
        weighted = UnitFallback()
        repeated = UnitFallback()
        for name, unit, count in items:
            weighted.observe(name, unit, count)
            for _ in range(count):
                repeated.observe(name, unit)
        assert weighted.snapshot() == repeated.snapshot()
        assert snapshot_digest(weighted.snapshot()) == snapshot_digest(
            repeated.snapshot()
        )
        for name, _, _ in items:
            assert weighted.most_frequent_unit(
                name
            ) == repeated.most_frequent_unit(name)

    @given(lines, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_sharded_merge_is_order_independent(self, items, rng):
        """Shard the observations, merge snapshots in a shuffled
        order: identical to the unsharded table as long as shard
        *construction* order is fixed (the engine merges snapshots in
        shard order for exactly this reason) — and counts are equal
        under any merge order."""
        whole = UnitFallback()
        for name, unit, count in items:
            whole.observe(name, unit, count)
        shards = [UnitFallback() for _ in range(3)]
        for i, (name, unit, count) in enumerate(items):
            shards[i % 3].observe(name, unit, count)
        snapshots = [s.snapshot() for s in shards]
        rng.shuffle(snapshots)
        merged = UnitFallback()
        for snapshot in snapshots:
            merged.merge(snapshot)
        # Counts are permutation-invariant even if key order is not.
        assert {
            name: dict(sorted(units.items()))
            for name, units in merged.snapshot().items()
        } == {
            name: dict(sorted(units.items()))
            for name, units in whole.snapshot().items()
        }

    @given(lines)
    @settings(max_examples=60, deadline=None)
    def test_digest_is_insertion_order_sensitive(self, items):
        """The digest deliberately refuses sort_keys: first-seen order
        is part of the table's identity (it breaks most_common ties),
        so two tables with equal counts but different insertion order
        must not share a token."""
        table = UnitFallback()
        for name, unit, count in items:
            table.observe(name, unit, count)
        snapshot = table.snapshot()
        assert snapshot_digest(snapshot) == snapshot_digest(
            json.loads(json.dumps(snapshot))
        )
