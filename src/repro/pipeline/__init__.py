"""Sharded multiprocess corpus estimation (the production-scale path).

The paper applies its pipeline corpus-wide — every RecipeDB recipe
through NER -> Jaccard matching -> unit resolution — and related work
runs the same estimation over 70k+ recipe datasets.  This subpackage
distributes :meth:`NutritionEstimator.estimate_corpus`'s two-phase
protocol across a process pool with an exact-parity guarantee: the
multi-worker result is bit-identical to the single-process path.

* :mod:`repro.pipeline.spec` — :class:`EstimatorSpec`, the picklable
  recipe an estimator is built from,
* :mod:`repro.pipeline.wire` — the compact wire codec for shipping
  per-line estimates between workers and the coordinator,
* :mod:`repro.pipeline.supervisor` — :class:`SupervisedWorkerPool`,
  the fault-tolerant pool: workers forked with the coordinator's
  estimator, crash/hang detection, respawn, bounded chunk retry,
  ordered results,
* :mod:`repro.pipeline.engine` — :class:`ShardedCorpusEstimator`, the
  coordinator: chunked sharding over the supervised pool, mergeable
  unit-statistics snapshots, bounded-memory streaming ingestion,
  optional dead-letter quarantine with a per-run :class:`RunReport`.
"""

from repro.pipeline.engine import RunReport, ShardedCorpusEstimator
from repro.pipeline.errors import (
    ChunkRetriesExhaustedError,
    PipelineError,
    WorkerPoolError,
)
from repro.pipeline.spec import EstimatorSpec
from repro.pipeline.supervisor import SupervisedWorkerPool, SupervisorStats

__all__ = [
    "ChunkRetriesExhaustedError",
    "EstimatorSpec",
    "PipelineError",
    "RunReport",
    "ShardedCorpusEstimator",
    "SupervisedWorkerPool",
    "SupervisorStats",
    "WorkerPoolError",
]
