"""Lifecycle of the supervised pool's fork-inherited workers.

Under the ``fork`` start method every pool worker — initial or
respawned — uses the estimator the coordinator already holds, through
the fork, and builds nothing.  These tests pin what that leaves out:

* no ``/dev/shm`` entry is created by a pass, a crash with its
  respawn, ``close()``, or the finalizer of an engine dropped unclosed,
* the coordinator's only children are its ``workers`` pool processes
  (no resource-tracker process rides along),
* a worker's estimator is the coordinator's object itself,
* a ``crash@worker-boot`` fault at boot is survived with a respawn and
  a bit-identical result,
* a ``spawn`` context still ships the pickled spec
  (:class:`SpecBootstrap`) and gives identical results.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os

import pytest

from repro import EstimatorSpec, NutritionEstimator, RecipeGenerator
from repro.pipeline import engine as engine_module
from repro.pipeline.engine import ShardedCorpusEstimator
from repro.pipeline.supervisor import SpecBootstrap, SupervisedWorkerPool

SHM_DIR = "/dev/shm"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR)
    or not os.path.exists(f"/proc/{os.getpid()}/task")
    or mp.get_start_method(allow_none=False) != "fork",
    reason="requires /dev/shm, /proc and the fork start method",
)


def _shm_entries() -> set[str]:
    return set(os.listdir(SHM_DIR))


def _children() -> set[int]:
    """Direct children of this process (every thread's list)."""
    pids: set[int] = set()
    task_dir = f"/proc/{os.getpid()}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/children") as fh:
                pids.update(map(int, fh.read().split()))
        except FileNotFoundError:  # the thread has exited meanwhile
            pass
    return pids


def _worker_pids(pool: SupervisedWorkerPool) -> set[int]:
    return {worker.process.pid for worker in pool._workers.values()}


@pytest.fixture
def host():
    """The children and ``/dev/shm`` entries that predate the test.

    ``check(pool)`` asserts that nothing was added to ``/dev/shm`` and
    that the only new children are *pool*'s workers (none without a
    pool).
    """
    children, entries = _children(), _shm_entries()

    def check(pool: SupervisedWorkerPool | None = None) -> None:
        assert _shm_entries() - entries == set()
        expected = _worker_pids(pool) if pool is not None else set()
        assert _children() - children == expected

    return check


@pytest.fixture(scope="module")
def corpus():
    return RecipeGenerator().generate(60)


@pytest.fixture(scope="module")
def reference(corpus):
    return NutritionEstimator().estimate_corpus(corpus)


def _estimator_id(state, payload, task_id, attempt):
    """Test-only handler: which process answered, with which estimator."""
    if payload == "crash" and attempt == 0:
        os._exit(70)
    return os.getpid(), id(state.estimator)


class TestInheritedEstimator:
    def test_worker_uses_the_coordinators_estimator(self, host):
        """Initial and respawned workers alike hold the coordinator's
        estimator object: same ``id()``, no build of their own."""
        estimator = NutritionEstimator()
        with SupervisedWorkerPool(
            EstimatorSpec(),
            {"estimator-id": _estimator_id},
            1,
            estimator_supplier=lambda: estimator,
        ) as pool:
            assert pool._bootstrap is estimator
            [(first_pid, first_id)] = pool.run("estimator-id", ["ok"])
            [(second_pid, second_id)] = pool.run("estimator-id", ["crash"])
            assert pool.stats.respawns == 1
            assert second_pid != first_pid
            assert first_id == second_id == id(estimator)
            host(pool)
        host()

    def test_engine_workers_inherit_the_local_estimator(
        self, host, monkeypatch
    ):
        monkeypatch.setitem(
            engine_module._HANDLERS, "estimator-id", _estimator_id
        )
        with ShardedCorpusEstimator(workers=2) as engine:
            engine.ensure_pool()
            ids = {
                estimator_id
                for _, estimator_id in engine._pool.run(
                    "estimator-id", ["ok"] * 4
                )
            }
            assert ids == {id(engine._local_estimator())}
            host(engine._pool)
        host()

    def test_unbuildable_spec_raises_before_any_fork(self, host):
        spec = EstimatorSpec(max_grams=-1.0)
        with pytest.raises(Exception) as raised:
            spec.build()
        with pytest.raises(type(raised.value)):
            SupervisedWorkerPool(spec, {}, 2)
        host()


class TestEngineLifecycle:
    def test_pass_and_close_leave_no_segment_or_tracker(
        self, host, corpus, reference
    ):
        engine = ShardedCorpusEstimator(workers=2, chunk_size=32)
        engine.ensure_pool()
        pool = engine._pool
        host(pool)
        assert len(_worker_pids(pool)) == 2
        assert engine.estimate_corpus(corpus) == reference
        assert engine.estimate_corpus(corpus) == reference  # warm reuse
        assert engine._pool is pool
        host(pool)
        engine.close()
        host()
        engine.close()  # idempotent

    def test_worker_crash_respawns_without_segment_or_tracker(
        self, monkeypatch, host, corpus, reference
    ):
        monkeypatch.setenv("REPRO_FAULTS", "crash@collect-chunk:1")
        with ShardedCorpusEstimator(workers=2, chunk_size=16) as engine:
            assert engine.estimate_corpus(corpus) == reference
            report = engine.last_report
            assert report.worker_crashes >= 1
            assert report.respawns >= 1
            host(engine._pool)
            assert len(_worker_pids(engine._pool)) == 2
        host()

    def test_crash_at_worker_boot_respawns_clean(
        self, monkeypatch, host, corpus, reference
    ):
        """Worker 0 hard-exits right after the fork; its replacement
        (fresh worker id) boots clean and the run is identical."""
        monkeypatch.setenv("REPRO_FAULTS", "crash@worker-boot:0")
        with ShardedCorpusEstimator(workers=2, chunk_size=32) as engine:
            assert engine.estimate_corpus(corpus) == reference
            report = engine.last_report
            assert report.worker_crashes >= 1
            assert report.respawns >= 1
            assert 0 not in engine._pool._workers
            host(engine._pool)
        host()

    def test_finalizer_closes_unclosed_engine(self, host, corpus, reference):
        engine = ShardedCorpusEstimator(workers=2, chunk_size=32)
        assert engine.estimate_corpus(corpus) == reference
        host(engine._pool)
        del engine
        gc.collect()
        host()


def test_spawn_context_uses_spec_bootstrap(monkeypatch, corpus, reference):
    """Workers that start in a fresh interpreter build the estimator
    from the pickled spec, with the same results."""
    pools = []

    def spawn_pool(*args, **kwargs):
        pool = SupervisedWorkerPool(
            *args, ctx=mp.get_context("spawn"), **kwargs
        )
        pools.append(pool)
        return pool

    monkeypatch.setattr(engine_module, "SupervisedWorkerPool", spawn_pool)
    with ShardedCorpusEstimator(workers=2, chunk_size=32) as engine:
        assert engine.estimate_corpus(corpus) == reference
    [pool] = pools
    assert isinstance(pool._bootstrap, SpecBootstrap)
    assert pool._bootstrap.spec == engine.spec
