"""The batch coordinator stays off its workers' critical path.

Two properties of the coordinator's serial work:

* **Dispatch before yield.**  ``SupervisedWorkerPool.run`` hands an
  idle worker its next backlog task before it yields a result, so a
  worker never waits while the consumer decodes, journals and merges
  the chunk that worker just returned.
* **The collector is paused, then restored.**  The engine pauses
  automatic garbage collection while it builds a corpus run's
  estimate table and freezes the finished heap for the fan-out.
  Whichever way the run ends (exhausted, closed early, raising), the
  collector's switch and freeze count are back at their entry values,
  and pool workers forked during the pause collect as usual.
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.pipeline import EstimatorSpec, ShardedCorpusEstimator
from repro.pipeline import engine as engine_module
from repro.pipeline.supervisor import SupervisedWorkerPool
from repro.recipedb.corpus import save_recipes_jsonl
from repro.recipedb.generator import GeneratorConfig, RecipeGenerator


def _echo(state, payload, task_id, attempt):
    return payload


def _collector_enabled(state, payload, task_id, attempt):
    return gc.isenabled()


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    recipes = RecipeGenerator(config=GeneratorConfig(seed=31)).generate(30)
    path = tmp_path_factory.mktemp("overlap") / "corpus.jsonl"
    save_recipes_jsonl(recipes, path)
    return path


@pytest.fixture
def collector():
    """The collector's entry state, put back after the test."""
    enabled = gc.isenabled()
    frozen = gc.get_freeze_count()
    yield enabled, frozen
    if gc.get_freeze_count() != frozen:
        gc.unfreeze()
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _state():
    return gc.isenabled(), gc.get_freeze_count()


class TestDispatchBeforeYield:
    def test_next_task_is_dispatched_when_a_result_is_yielded(self):
        with SupervisedWorkerPool(
            EstimatorSpec(), {"echo": _echo}, 1
        ) as pool:
            results = pool.run("echo", ["first", "second"])
            assert next(results) == "first"
            (worker,) = pool._workers.values()
            assert worker.busy is not None
            assert worker.busy[1] == 1
            assert list(results) == ["second"]


class TestCollectorState:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_restored_after_exhaustion(self, collector, corpus_path, workers):
        with ShardedCorpusEstimator(workers=workers) as engine:
            estimates = list(engine.iter_corpus_estimates(str(corpus_path)))
        assert len(estimates) == 30
        assert _state() == collector

    def test_fan_out_collects_with_the_table_frozen(
        self, collector, corpus_path
    ):
        with ShardedCorpusEstimator(workers=1) as engine:
            stream = engine.iter_corpus_estimates(str(corpus_path))
            next(stream)
            assert gc.isenabled() is collector[0]
            assert gc.get_freeze_count() > 0
            stream.close()
        assert _state() == collector

    def test_restored_when_the_consumer_raises(self, collector, corpus_path):
        with ShardedCorpusEstimator(workers=1) as engine:
            stream = engine.iter_corpus_estimates(str(corpus_path))
            next(stream)
            with pytest.raises(KeyError):
                stream.throw(KeyError("consumer"))
        assert _state() == collector

    @pytest.mark.parametrize("workers", [1, 2])
    def test_restored_when_the_run_raises(
        self, collector, tmp_path, corpus_path, workers
    ):
        path = tmp_path / "broken.jsonl"
        lines = corpus_path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:5] + ["{not json\n"] + lines[5:]))
        with ShardedCorpusEstimator(workers=workers) as engine:
            with pytest.raises(json.JSONDecodeError):
                list(engine.iter_corpus_estimates(str(path)))
        assert _state() == collector

    def test_disabled_collector_stays_disabled(self, collector, corpus_path):
        gc.disable()
        with ShardedCorpusEstimator(workers=1) as engine:
            list(engine.iter_corpus_estimates(str(corpus_path)))
        assert _state() == (False, collector[1])

    def test_outer_freeze_is_left_alone(self, collector, corpus_path):
        gc.freeze()
        frozen = gc.get_freeze_count()
        with ShardedCorpusEstimator(workers=1) as engine:
            list(engine.iter_corpus_estimates(str(corpus_path)))
        assert _state() == (collector[0], frozen)

    def test_diagnostics_restore_it_too(self, collector, corpus_path):
        with ShardedCorpusEstimator(workers=1) as engine:
            engine.corpus_diagnostics(str(corpus_path))
        assert _state() == collector

    def test_estimate_table_never_pauses(self, collector, monkeypatch):
        seen = []
        real = ShardedCorpusEstimator._estimate_table_into

        def probe(self, *args, **kwargs):
            seen.append(gc.isenabled())
            return real(self, *args, **kwargs)

        monkeypatch.setattr(
            ShardedCorpusEstimator, "_estimate_table_into", probe
        )
        with ShardedCorpusEstimator(workers=1) as engine:
            engine.estimate_table({"2 cups flour": 1})
        assert seen == [collector[0]]

    def test_workers_forked_during_the_pause_collect(
        self, collector, monkeypatch, corpus_path
    ):
        """The engine spawns its pool lazily inside the pause; the
        forked workers must still run with the collector on."""
        monkeypatch.setitem(
            engine_module._HANDLERS, "gc-probe", _collector_enabled
        )
        spawned = []
        real = ShardedCorpusEstimator._ensure_pool

        def ensure_pool(self):
            spawned.append(gc.isenabled())
            return real(self)

        monkeypatch.setattr(
            ShardedCorpusEstimator, "_ensure_pool", ensure_pool
        )
        with ShardedCorpusEstimator(workers=2) as engine:
            list(engine.iter_corpus_estimates(str(corpus_path)))
            assert spawned and not spawned[0]
            assert list(engine._pool.run("gc-probe", [None, None])) == [
                True, True,
            ]
