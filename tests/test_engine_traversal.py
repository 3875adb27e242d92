"""The sharded engine reads its corpus once per run.

``ShardedCorpusEstimator`` interns every ingredient line while it
counts and keeps a compact layout (per-occurrence line ordinals,
per-recipe end offsets, parsed servings) from which it assembles
recipes and renumbers dead letters, so no run parses the JSONL a
second time.  Each test wraps the engine module's
``iter_recipes_jsonl`` with a counter and checks both the traversal
count and the results against the per-occurrence reference
(``tests/references.py``).
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from references import per_occurrence_corpus
from repro.core.coverage import reason_breakdown
from repro.core.resolution import REASON_ESTIMATOR_ERROR
from repro.deadletter import REPORT_NAME, DeadLetterLog, write_report_jsonl
from repro.pipeline import ShardedCorpusEstimator, engine as engine_module
from repro.recipedb.corpus import iter_recipes_jsonl, save_recipes_jsonl
from repro.recipedb.generator import GeneratorConfig, RecipeGenerator
from repro.runs import RunJournal, RunManifest

N_RECIPES = 30


@pytest.fixture(scope="module")
def corpus():
    """Every recipe twice, so lines repeat across recipes."""
    recipes = RecipeGenerator(config=GeneratorConfig(seed=21)).generate(
        N_RECIPES
    )
    return recipes + recipes


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("traversal") / "corpus.jsonl"
    save_recipes_jsonl(list(corpus), path)
    return path


@pytest.fixture(scope="module")
def reference(corpus):
    return per_occurrence_corpus(corpus)


@pytest.fixture
def traversals(monkeypatch):
    """Paths the engine opened with ``iter_recipes_jsonl``, in order."""
    opened = []
    real = engine_module.iter_recipes_jsonl

    def counting(path, *args, **kwargs):
        opened.append(str(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(engine_module, "iter_recipes_jsonl", counting)
    return opened


def _poisoned_text(recipes) -> str:
    """The longest line occurring at least twice in *recipes*."""
    counts = Counter(t for r in recipes for t in r.ingredient_texts)
    return max((t for t, n in counts.items() if n >= 2), key=len)


class TestStrict:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_estimates_read_the_corpus_once(
        self, traversals, corpus_path, reference, workers
    ):
        with ShardedCorpusEstimator(workers=workers, chunk_size=32) as engine:
            estimates = list(engine.iter_corpus_estimates(str(corpus_path)))
            report = engine.last_report
        assert traversals == [str(corpus_path)]
        assert estimates == reference
        assert not report.dead_letters

    @pytest.mark.parametrize("workers", [1, 2])
    def test_diagnostics_read_the_corpus_once(
        self, traversals, corpus_path, reference, workers
    ):
        with ShardedCorpusEstimator(workers=workers, chunk_size=32) as engine:
            breakdown = engine.corpus_diagnostics(str(corpus_path))
        assert traversals == [str(corpus_path)]
        assert breakdown == reason_breakdown(reference)


class TestQuarantine:
    """A corrupt corpus line and a raising ingredient line, one pass."""

    @pytest.fixture
    def faulted(self, monkeypatch, corpus, corpus_path):
        """(expected estimates, expected dead letters) under the plan."""
        survivors = list(corpus[:2]) + list(corpus[3:])
        poisoned = _poisoned_text(survivors)
        monkeypatch.setenv(
            "REPRO_FAULTS",
            f"corrupt@ingest-line:3;raise@estimate-line:{poisoned}",
        )
        log = DeadLetterLog()
        read = list(
            iter_recipes_jsonl(corpus_path, on_error="skip", dead_letters=log)
        )
        assert read == survivors
        expected = per_occurrence_corpus(survivors, quarantine=log)
        assert sum(
            letter.source == "estimate" for letter in log.records
        ) >= 2
        return expected, log.records

    @pytest.mark.parametrize("workers", [1, 2])
    def test_estimates_and_letters_from_one_pass(
        self, traversals, corpus_path, faulted, workers
    ):
        expected, letters = faulted
        with ShardedCorpusEstimator(
            workers=workers, chunk_size=16, quarantine=True
        ) as engine:
            estimates = list(engine.iter_corpus_estimates(str(corpus_path)))
            report = engine.last_report
        assert traversals == [str(corpus_path)]
        assert estimates == expected
        assert report.dead_letters.records == letters
        assert letters[0].source == "ingest" and letters[0].line_no == 3
        assert all(
            letter.reason == REASON_ESTIMATOR_ERROR for letter in letters[1:]
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_diagnostics_letters_from_one_pass(
        self, traversals, corpus_path, faulted, workers
    ):
        expected, letters = faulted
        with ShardedCorpusEstimator(
            workers=workers, chunk_size=16, quarantine=True
        ) as engine:
            breakdown = engine.corpus_diagnostics(str(corpus_path))
            report = engine.last_report
        assert traversals == [str(corpus_path)]
        assert breakdown == reason_breakdown(expected)
        assert report.dead_letters.records == letters


class TestDurable:
    def test_run_and_resume_each_read_the_corpus_once(
        self, traversals, tmp_path, corpus_path, reference
    ):
        run_dir = tmp_path / "run"
        with ShardedCorpusEstimator(
            workers=2, chunk_size=24, run_dir=run_dir
        ) as engine:
            assert engine.estimate_corpus(str(corpus_path)) == reference
            clean = engine.last_report
        assert traversals == [str(corpus_path)]
        # Cut the journal after the plan and two frames, as a kill
        # mid-run leaves it, and resume.
        records = RunJournal(run_dir / "journal.bin").scan().records
        assert len(records) >= 4
        with (run_dir / "journal.bin").open("r+b") as handle:
            handle.truncate(records[3].offset)
        manifest = RunManifest.load(run_dir)
        manifest.status = "running"
        manifest.save(run_dir)
        traversals.clear()
        with ShardedCorpusEstimator(
            workers=2, chunk_size=24, run_dir=run_dir, resume=True
        ) as engine:
            assert engine.estimate_corpus(str(corpus_path)) == reference
            resumed = engine.last_report
        assert traversals == [str(corpus_path)]
        assert resumed.resumed and resumed.replayed_chunks >= 2
        assert resumed.dead_letters.records == clean.dead_letters.records


class TestServings:
    """Servings reach ``finish_recipe`` exactly as the corpus gave them."""

    @pytest.fixture
    def fractional(self, tmp_path, corpus):
        recipes = [
            dataclasses.replace(recipe, servings=2.5)
            if i % 3 == 0 else recipe
            for i, recipe in enumerate(corpus[:N_RECIPES])
        ]
        path = tmp_path / "fractional.jsonl"
        save_recipes_jsonl(recipes, path)
        assert '"servings": 2.5' in path.read_text()
        return recipes, path

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fractional_servings_round_trip(
        self, traversals, fractional, workers
    ):
        recipes, path = fractional
        with ShardedCorpusEstimator(workers=workers, chunk_size=32) as engine:
            estimates = engine.estimate_corpus(str(path))
        assert traversals == [str(path)]
        assert estimates == per_occurrence_corpus(recipes)
        for recipe, estimate in zip(recipes, estimates):
            assert estimate.servings == recipe.servings
            assert type(estimate.servings) is type(recipe.servings)
        assert any(type(e.servings) is float for e in estimates)


def test_quarantined_durable_run_reads_once_and_reports_reference_bytes(
    monkeypatch, traversals, tmp_path, corpus, corpus_path
):
    """A quarantined durable run reads its corpus once, and its
    persisted dead-letter report is byte-identical to one written from
    the reference's letters."""
    survivors = list(corpus[:2]) + list(corpus[3:])
    poisoned = _poisoned_text(survivors)
    monkeypatch.setenv(
        "REPRO_FAULTS",
        f"corrupt@ingest-line:3;raise@estimate-line:{poisoned}",
    )
    log = DeadLetterLog()
    list(iter_recipes_jsonl(corpus_path, on_error="skip", dead_letters=log))
    per_occurrence_corpus(survivors, quarantine=log)
    with ShardedCorpusEstimator(
        workers=2, chunk_size=16, quarantine=True, run_dir=tmp_path / "run"
    ) as engine:
        engine.estimate_corpus(str(corpus_path))
        report = engine.last_report
    assert traversals == [str(corpus_path)]
    write_report_jsonl(tmp_path / "engine.jsonl", report.dead_letters, "run")
    write_report_jsonl(tmp_path / REPORT_NAME, log, "run")
    assert (tmp_path / "engine.jsonl").read_bytes() == (
        tmp_path / REPORT_NAME
    ).read_bytes()
