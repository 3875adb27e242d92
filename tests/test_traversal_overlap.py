"""The corpus traversal overlaps phase 1.

The sharded engine's one corpus traversal is the supervised pool's
lazy payload source: collect chunk i (ordinals ``[i·chunk_size,
(i+1)·chunk_size)``) is sent the moment the traversal has seen it,
while the coordinator reads on.  Counts are final only at the end, so
the coordinator weighs each chunk's unit observations itself and, in
a durable run, holds early results until the plan frame is written.

* results are exact: every chunk size gives the ``workers=1``
  estimates, dead letters and unit-table digest, on a corpus with a
  partial last chunk and quarantined lines at chunk boundaries;
* the lazy ``SupervisedWorkerPool.run`` yields in task order while its
  source still produces, retries a chunk lost mid-traversal, and a
  strict-mode ingest error mid-stream leaves no worker behind;
* the journal is laid out as before, whatever the arrival times, and
  a resume sends only the chunks the journal lacks.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import pytest

from repro.core.estimator import NutritionEstimator
from repro.pipeline import EstimatorSpec, ShardedCorpusEstimator
from repro.pipeline import engine as engine_module
from repro.pipeline.supervisor import SupervisedWorkerPool
from repro.recipedb.corpus import (
    _recipe_from_line,
    iter_recipes_jsonl,
    save_recipes_jsonl,
)
from repro.recipedb.generator import GeneratorConfig, RecipeGenerator
from repro.runs import RunJournal, RunManifest
from repro.runs.journal import (
    KIND_CHECKPOINT,
    KIND_COLLECT,
    KIND_COMPLETE,
    KIND_FALLBACK,
    KIND_PLAN,
)

N_RECIPES = 80
BAD_LINE = "{not json\n"


def _echo(state, payload, task_id, attempt):
    return payload


@pytest.fixture(scope="module")
def recipes():
    return RecipeGenerator(config=GeneratorConfig(seed=41)).generate(
        N_RECIPES
    )


@pytest.fixture(scope="module")
def distinct(recipes):
    """Distinct ingredient lines in first-occurrence order."""
    return list(Counter(t for r in recipes for t in r.ingredient_texts))


def _boundary_recipes(recipes, size: int) -> list[int]:
    """Indices of the recipes whose lines complete a chunk of *size*."""
    seen: set[str] = set()
    crossing = []
    for index, recipe in enumerate(recipes):
        before = len(seen)
        seen.update(recipe.ingredient_texts)
        if len(seen) // size != before // size:
            crossing.append(index)
    return crossing


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory, recipes):
    """The corpus as JSONL, with malformed lines just before and just
    after recipes that complete a 7- or 512-line chunk."""
    path = tmp_path_factory.mktemp("overlap") / "corpus.jsonl"
    save_recipes_jsonl(recipes, path)
    lines = path.read_text().splitlines(keepends=True)
    marked = set(_boundary_recipes(recipes, 7)[:3])
    marked |= set(_boundary_recipes(recipes, 512))
    out = []
    for index, line in enumerate(lines):
        if index in marked:
            out.append(BAD_LINE)
        out.append(line)
        if index in marked:
            out.append(BAD_LINE)
    path.write_text("".join(out))
    return path


@pytest.fixture
def poisoned(monkeypatch, distinct):
    """Make one distinct line raise in the estimator."""
    text = max(distinct, key=len)
    monkeypatch.setenv("REPRO_FAULTS", f"raise@estimate-line:{text}")
    return text


def _run(path, **kwargs):
    with ShardedCorpusEstimator(**kwargs) as engine:
        estimates = engine.estimate_corpus(str(path))
        return estimates, engine.last_report


class TestExactness:
    def test_corpus_has_partial_chunks_and_boundary_letters(
        self, corpus_path, distinct
    ):
        assert len(distinct) > 512
        assert len(distinct) % 7 and len(distinct) % 512
        text = corpus_path.read_text()
        assert text.count(BAD_LINE) >= 8

    @pytest.mark.parametrize("chunk_size", [1, 7, 512])
    def test_chunk_size_matches_in_process(
        self, corpus_path, poisoned, chunk_size
    ):
        expected, reference = _run(corpus_path, workers=1, quarantine=True)
        estimates, report = _run(
            corpus_path, workers=2, chunk_size=chunk_size, quarantine=True
        )
        assert estimates == expected
        assert report.dead_letters.records == reference.dead_letters.records
        sources = Counter(
            letter.source for letter in report.dead_letters.records
        )
        assert sources["ingest"] >= 8 and sources["estimate"] >= 1
        assert report.stats_digest == reference.stats_digest
        assert (report.total_lines, report.distinct_lines) == (
            reference.total_lines, reference.distinct_lines,
        )

    def test_first_chunk_is_sent_before_the_traversal_ends(
        self, monkeypatch, corpus_path
    ):
        read = [0]
        real_reader = engine_module.iter_recipes_jsonl

        def counting(*args, **kwargs):
            for record in real_reader(*args, **kwargs):
                read[0] += 1
                yield record

        sent_at = []
        real_dispatch = SupervisedWorkerPool._dispatch_backlog

        def dispatch(self, run):
            if run.backlog and run.kind == "collect-chunk":
                sent_at.append(read[0])
            return real_dispatch(self, run)

        monkeypatch.setattr(engine_module, "iter_recipes_jsonl", counting)
        monkeypatch.setattr(
            SupervisedWorkerPool, "_dispatch_backlog", dispatch
        )
        _run(corpus_path, workers=2, chunk_size=7, quarantine=True)
        assert read[0] == N_RECIPES
        assert sent_at and sent_at[0] < N_RECIPES // 4


class TestLazyRun:
    def test_results_arrive_in_order_while_the_source_produces(self):
        drawn = []

        def source():
            for i in range(6):
                drawn.append(i)
                yield i
                time.sleep(0.05)

        with SupervisedWorkerPool(
            EstimatorSpec(), {"echo": _echo}, 2
        ) as pool:
            seen = []
            for result in pool.run("echo", source()):
                seen.append((result, len(drawn)))
        assert [result for result, _ in seen] == list(range(6))
        assert seen[0][1] < 6

    def test_chunk_lost_mid_traversal_is_retried(
        self, monkeypatch, corpus_path
    ):
        expected, reference = _run(
            corpus_path, workers=2, chunk_size=7, quarantine=True
        )
        monkeypatch.setenv("REPRO_FAULTS", "crash@collect-chunk:0")
        estimates, report = _run(
            corpus_path, workers=2, chunk_size=7, quarantine=True
        )
        assert report.worker_crashes == 1 and report.retries == 1
        assert estimates == expected
        assert report.dead_letters.records == reference.dead_letters.records
        assert report.stats_digest == reference.stats_digest

    def test_strict_ingest_error_mid_stream_leaves_nothing(
        self, monkeypatch, tmp_path, recipes
    ):
        path = tmp_path / "broken.jsonl"
        save_recipes_jsonl(recipes, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[N_RECIPES - 5] = BAD_LINE
        path.write_text("".join(lines))
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(BAD_LINE)

        pools, processes = [], []
        real = ShardedCorpusEstimator._ensure_pool

        def ensure_pool(self):
            pool = real(self)
            pools.append(pool)
            processes.extend(w.process for w in pool._workers.values())
            return pool

        monkeypatch.setattr(
            ShardedCorpusEstimator, "_ensure_pool", ensure_pool
        )
        engine = ShardedCorpusEstimator(workers=2, chunk_size=7)
        with pytest.raises(json.JSONDecodeError) as raised:
            engine.estimate_corpus(str(path))
        assert str(raised.value) == str(expected.value)
        assert raised.value.__notes__ == [
            f"{path} line {N_RECIPES - 4}: malformed-json"
        ]
        # The pool was in use (chunks went out before the bad line)
        # and was closed by the failure.
        assert pools and engine._pool is None
        pool = pools[0]
        assert pool._closed and not pool._workers
        assert processes and not any(p.is_alive() for p in processes)


class TestStrictIngestError:
    @pytest.mark.parametrize(
        ("bad_line", "exc_type", "reason"),
        [
            (BAD_LINE, json.JSONDecodeError, "malformed-json"),
            ('{"title": "t"}\n', KeyError, "invalid-recipe"),
        ],
    )
    def test_keeps_type_and_message_and_names_the_line(
        self, tmp_path, recipes, bad_line, exc_type, reason
    ):
        path = tmp_path / "corpus.jsonl"
        save_recipes_jsonl(recipes[:3], path)
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(2, bad_line)
        path.write_text("".join(lines))
        with pytest.raises(exc_type) as raised:
            list(iter_recipes_jsonl(path))
        with pytest.raises(exc_type) as bare:
            _recipe_from_line(bad_line)
        assert str(raised.value) == str(bare.value)
        assert raised.value.corpus_location == f"{path} line 3: {reason}"
        assert raised.value.__notes__ == [raised.value.corpus_location]


class TestDurable:
    def test_frames_follow_the_plan_in_chunk_order(
        self, tmp_path, recipes, distinct
    ):
        path = tmp_path / "corpus.jsonl"
        save_recipes_jsonl(recipes, path)
        size = 64
        with ShardedCorpusEstimator(
            workers=2, chunk_size=size, run_dir=tmp_path / "run"
        ) as engine:
            engine.estimate_corpus(str(path))
        records = RunJournal(tmp_path / "run" / "journal.bin").scan().records
        n_chunks = -(-len(distinct) // size)
        kinds = [record.kind for record in records]
        assert kinds[: n_chunks + 2] == (
            [KIND_PLAN] + [KIND_COLLECT] * n_chunks + [KIND_CHECKPOINT]
        )
        assert set(kinds[n_chunks + 2:-1]) <= {KIND_FALLBACK}
        assert kinds[-1] == KIND_COMPLETE
        # Each collect frame carries its chunk's observations weighted
        # by the final counts: what the estimator's collect pass says.
        counts = Counter(t for r in recipes for t in r.ingredient_texts)
        estimator = NutritionEstimator()
        for i, record in enumerate(records[1:n_chunks + 1]):
            assert record.payload["chunk"] == i
            chunk = distinct[i * size:(i + 1) * size]
            _, snapshot = estimator.corpus_collect_estimates(
                [(text, counts[text]) for text in chunk]
            )
            assert record.payload["snapshot"] == snapshot

    def test_journal_bytes_do_not_depend_on_worker_count(
        self, tmp_path, recipes
    ):
        path = tmp_path / "corpus.jsonl"
        save_recipes_jsonl(recipes, path)
        journals = []
        for workers in (1, 2):
            run_dir = tmp_path / f"run-{workers}"
            with ShardedCorpusEstimator(
                workers=workers, chunk_size=32, run_dir=run_dir
            ) as engine:
                engine.estimate_corpus(str(path))
            journals.append((run_dir / "journal.bin").read_bytes())
        assert journals[0] == journals[1]

    def test_resume_sends_only_missing_chunks(
        self, monkeypatch, tmp_path, recipes, distinct
    ):
        path = tmp_path / "corpus.jsonl"
        save_recipes_jsonl(recipes, path)
        size = 64
        run_dir = tmp_path / "run"
        with ShardedCorpusEstimator(
            workers=2, chunk_size=size, run_dir=run_dir
        ) as engine:
            expected = engine.estimate_corpus(str(path))
        journal = run_dir / "journal.bin"
        records = RunJournal(journal).scan().records
        kept = 3  # the plan and collect chunks 0 and 1
        with journal.open("r+b") as handle:
            handle.truncate(records[kept].offset)
        manifest = RunManifest.load(run_dir)
        manifest.status = "running"
        manifest.save(run_dir)

        sent = []
        real_run = SupervisedWorkerPool.run

        def run(self, kind, payloads):
            if kind == "collect-chunk":
                payloads = (
                    sent.append(payload[0] // size) or payload
                    for payload in payloads
                )
            return real_run(self, kind, payloads)

        monkeypatch.setattr(SupervisedWorkerPool, "run", run)
        with ShardedCorpusEstimator(
            workers=2, chunk_size=size, run_dir=run_dir, resume=True
        ) as engine:
            assert engine.estimate_corpus(str(path)) == expected
            report = engine.last_report
        n_chunks = -(-len(distinct) // size)
        assert sent == list(range(kept - 1, n_chunks))
        assert report.replayed_chunks == kept - 1
