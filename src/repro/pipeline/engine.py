"""The sharded corpus estimation coordinator.

Distributes the two-phase corpus protocol of
:meth:`NutritionEstimator.estimate_corpus` across a supervised
process pool:

1. **Collect (sharded, overlapped with the traversal)** — the
   coordinator streams the corpus once, interning every ingredient
   line to the ordinal of its first occurrence, and sends each chunk
   of distinct texts to the pool the moment the traversal has seen
   all of it: chunk i is ordinals ``[i·chunk_size, (i+1)·chunk_size)``,
   fixed once cut because ordinals first occur in increasing order.
   Each worker estimates its chunk without the corpus fallback and
   returns compact wire estimates (and its dead letters) while the
   coordinator keeps reading.
2. **Merge** — occurrence counts are final only when the traversal
   ends, so the coordinator weighs the observations itself: per
   chunk, in chunk order, it observes ``(name, unit)`` of every
   matched line with the line's count and merges that snapshot
   (:meth:`UnitFallback.merge`), reproducing the exact table — counts
   *and* ``most_common`` tie-break order — a single process builds.
3. **Re-estimate (sharded)** — only lines that matched a description
   but failed unit resolution go back to the pool, which re-estimates
   them against the frozen merged table.
4. **Assemble** — the coordinator replays the corpus layout its one
   traversal recorded (per-occurrence line ordinals, per-recipe end
   offsets and servings) and aggregates per-recipe results with the
   same float-operation order as the single-process path; the corpus
   is never parsed a second time.

Every per-line outcome depends only on the line text and the merged
table — never on processing order — so the result is **bit-identical**
to ``NutritionEstimator.estimate_corpus`` regardless of worker count,
chunk size or scheduling (``tests/test_pipeline_parallel.py``).

**Fault tolerance** (ISSUE 6): the pool is a
:class:`~repro.pipeline.supervisor.SupervisedWorkerPool` — a worker
that crashes or hangs mid-chunk is detected (liveness + chunk
deadline), respawned from the spec (instant with an artifact-backed
spec), and its chunk retried on a healthy worker with a bounded
budget; because chunk results are pure functions of chunk content,
recovery preserves the bit-identical merge.  With ``quarantine=True``
malformed corpus lines and estimator-raising ingredient lines are
diverted to dead-letter records (:mod:`repro.deadletter`) instead of
aborting the run; :attr:`ShardedCorpusEstimator.last_report` carries
the run's dead letters and supervision counters.  Both recovery paths
are deterministically testable through :mod:`repro.faults`.

**Durable runs** (ISSUE 7): with ``run_dir=`` set, the coordinator
itself stops being a single point of failure.  Each phase-1/phase-3
chunk result is appended — wire bytes, unit-observation snapshot,
dead letters — to a checksummed, fsync'd journal in the run directory
(:mod:`repro.runs`) the moment it arrives, and the merged unit tables
are checkpointed at the phase boundary.  The chunk plan and the
count-weighted snapshots exist only once the traversal has ended, so
collect results that arrive earlier are held and appended after the
plan frame, in chunk order: the journal's bytes do not depend on
arrival times.  ``resume=True`` replays the
journaled prefix in shard order and dispatches **only missing
chunks** to the pool (no pool is even spawned when nothing is
missing), which composes with the exact-parity property: a run killed
at any chunk boundary — or mid-append, leaving a torn journal tail —
resumes to bit-identical output (``tests/test_durable_resume.py``).

Memory is bounded by the distinct-line table plus 4 bytes per
ingredient-line occurrence (the ordinal array) and one end offset and
servings value per recipe: recipes are streamed (see
:func:`repro.recipedb.corpus.iter_recipes_jsonl`) and never held, and
each worker holds at most one chunk at a time (chunks cut ahead of the
workers wait as slices of the table).

**Lean coordinator**: the coordinator is serial, so its own work is
kept small and off the workers' path.  The traversal reads JSONL
through the lean parse
(:func:`~repro.recipedb.corpus.recipe_fields_from_line`), which
yields ``(title, texts, servings)`` and builds no ``Recipe`` objects
but accepts and rejects exactly the lines the full parse does; it is
the pool's lazy payload source, so workers estimate the first chunks
while the rest of the corpus is still being read; the pool hands an
idle worker its next chunk before yielding a result; and automatic
garbage collection is paused while the estimate table is built, then
the finished heap is frozen for the fan-out (see
:meth:`ShardedCorpusEstimator._corpus_table`).

**Columnar hot path**: workers (and the ``workers=1``
in-process path) drive each chunk through the batched pipeline
(:mod:`repro.core.columnar`) — chunk-wide tokenize/tag stages
feeding the unmodified per-line tail — which is bit-identical to a
per-line ``parse`` + ``_estimate_from_parsed`` loop by construction
and pinned differentially by ``tests/test_columnar_parity.py``.

**Duplicate collapse** (ISSUE 10): the coordinator hash-conses the
corpus's ingredient lines into the distinct-line table *before*
sharding, so wire traffic, NER, matching and unit-chain work all
scale with the distinct set — heavily Zipfian real corpora repeat "1
cup sugar" millions of times.  The collapse is exact: phase-1
observations are weighted by multiplicity
(:meth:`UnitFallback.observe` with ``count=n``), which produces the
identical counts *and* identical key insertion order — hence the same
``most_common`` tie-breaks — as n repeated observes, and phase-3
estimates are pure functions of (text, frozen table), so per-distinct
results expand to per-occurrence results losslessly through the
ordinal array.  ``tests/test_dedup_parity.py`` byte-compares the
engine end to end against a per-occurrence reference that feeds every
occurrence through :meth:`NutritionEstimator.corpus_estimate_table`
as its own ``(text, 1)`` item.  Estimate-side dead letters are
re-numbered by the coordinator from line-table ordinals to
per-occurrence corpus positions, so a poisoned line that occurs k
times dead-letters k times with correct positions — and the persisted
report is byte-identical to the reference's and across resume.  The
letters name lines by ordinal, never by their (truncated) text, so a
valid line that shares a long prefix with a poisoned one is never
dead-lettered.

**Persistent pool** (ISSUE 9): the supervised pool outlives a single
run.  The first pool run spawns it (workers are forked with the
coordinator's estimator and build nothing); later runs on the same
engine reuse the warm workers — the HTTP service keeps one engine, so
``/v1/estimate_batch`` requests skip process spawn and estimator
rebuild entirely.  Phase-3 tasks carry a per-run ``stats_token`` so a
reused worker can never serve a previous run's merged unit table.
Call :meth:`ShardedCorpusEstimator.close` (or use the engine as a
context manager) to release the pool; a finalizer covers engines that
are simply dropped, and a failed run closes the pool rather than
reuse workers in an unknown state.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import os
import time
import weakref
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path

from repro import __version__, faults
from repro.core.coverage import ReasonBreakdown, reason_breakdown_from_lines
from repro.core.estimator import (
    STATUS_FULL,
    STATUS_NAME_ONLY,
    IngredientEstimate,
    NutritionEstimator,
    RecipeEstimate,
)
from repro.deadletter import DeadLetterLog
from repro.pipeline.spec import EstimatorSpec
from repro.pipeline.supervisor import SupervisedWorkerPool, WorkerState
from repro.pipeline.wire import dumps_estimates, loads_estimates
from repro.recipedb.corpus import iter_recipes_jsonl, recipe_fields_from_line
from repro.recipedb.model import Recipe
from repro.runs import DurableRun, RunError, RunJournalError, RunManifest
from repro.runs.manifest import corpus_identity, new_run_id
from repro.units.fallback import UnitFallback, snapshot_digest

#: A corpus source: an in-memory sequence, or a path to a JSONL file
#: (streamed).  Either is traversed once per run.
CorpusSource = Sequence[Recipe] | str | Path

#: Default per-chunk wall-clock budget before a worker is presumed
#: hung.  Generous: a 512-line chunk estimates in well under a second
#: even with a trained tagger, so triggering this means a genuinely
#: stuck process, not a slow one.
DEFAULT_CHUNK_DEADLINE_S = 120.0

#: Default re-dispatches allowed per lost chunk.
DEFAULT_MAX_CHUNK_RETRIES = 2


@dataclass
class RunReport:
    """What happened, beyond the estimates, during one corpus run."""

    workers: int = 1
    retries: int = 0
    respawns: int = 0
    worker_crashes: int = 0
    hung_workers: int = 0
    dead_letters: DeadLetterLog = field(default_factory=DeadLetterLog)
    #: Durable-run provenance (``None`` outside ``run_dir=`` runs).
    run_id: str | None = None
    run_dir: str | None = None
    resumed: bool = False
    #: Chunks whose results came straight from the journal vs chunks
    #: actually dispatched to workers.  A resume of a completed run is
    #: pure replay: ``executed_chunks == 0``.
    replayed_chunks: int = 0
    executed_chunks: int = 0
    #: Line-interning accounting (ISSUE 10).  ``total_lines`` counts
    #: ingredient-line occurrences across the corpus; ``distinct_lines``
    #: counts the entries that actually did pipeline work after
    #: duplicate collapse.
    total_lines: int = 0
    distinct_lines: int = 0
    #: Content digest of the frozen phase-boundary unit table
    #: (:func:`repro.units.fallback.snapshot_digest`); equal to the
    #: in-process path's digest by the exact-parity guarantee, which
    #: ``tests/test_dedup_parity.py`` checks through it.
    stats_digest: str | None = None

    @property
    def dedup_ratio(self) -> float:
        """Occurrences per distinct line (1.0 when nothing repeats)."""
        if not self.distinct_lines:
            return 1.0
        return self.total_lines / self.distinct_lines

    def counters(self) -> dict:
        """Flat counter view (the service merges this into /metrics)."""
        return {
            "retries": self.retries,
            "respawns": self.respawns,
            "worker_crashes": self.worker_crashes,
            "hung_workers": self.hung_workers,
            "dead_lettered": len(self.dead_letters),
        }

    def journal_counters(self) -> dict:
        """Replay accounting for durable runs (journal + CLI summary)."""
        return {
            "replayed_chunks": self.replayed_chunks,
            "executed_chunks": self.executed_chunks,
            "resumed": self.resumed,
        }


class _Ordinals(dict):
    """``text -> ordinal``, numbering unseen texts in arrival order and
    appending them to *texts*.

    Lookups of seen texts stay in C (``map(ordinals.__getitem__,
    texts)``); only a text's first occurrence runs Python code.
    """

    __slots__ = ("texts",)

    def __init__(self, texts: list[str]):
        super().__init__()
        self.texts = texts

    def __missing__(self, text: str) -> int:
        self[text] = ordinal = len(self)
        self.texts.append(text)
        return ordinal


@dataclass(slots=True)
class _CorpusLayout:
    """The distinct-line table of a run, plus what the engine's one
    corpus traversal keeps for assembly."""

    #: Distinct texts in first-occurrence order; a line's position
    #: here is its ordinal.
    texts: list[str] = field(default_factory=list)
    #: Occurrence count per ordinal; ``None`` until the traversal ends.
    counts: list[int] | None = None
    #: Line ordinal of every ingredient-line occurrence, corpus order.
    occurrences: array = field(default_factory=lambda: array("I"))
    #: Per recipe, the end offset of its lines in *occurrences*.
    ends: array = field(default_factory=lambda: array("I"))
    #: Per recipe, ``servings`` exactly as parsed (never coerced).
    servings: list = field(default_factory=list)

    @property
    def lines(self) -> list[tuple[str, int]]:
        """Distinct ``(text, count)`` in ordinal order."""
        return list(zip(self.texts, self.counts))


# ----------------------------------------------------------------------
# worker-side task handlers (module-level: they cross the process
# boundary by reference; each runs with the worker's WorkerState)

def _collect_task(state: WorkerState, payload, task_id: int, attempt: int):
    """Phase-1 task: wire estimates for a chunk of distinct texts.

    ``payload`` is ``(base_ordinal, texts, quarantine_on)``.
    Returns ``(wire, dead_letter_records)``.  The chunk is sent while
    the coordinator is still counting occurrences, so it carries no
    counts and its unit observations are weighed by the coordinator
    (:func:`_chunk_observations`).
    """
    base_ordinal, texts, quarantine_on = payload
    plan = faults.active_plan()
    if plan is not None:
        plan.fire("collect-chunk", task_id, attempt)
    log = DeadLetterLog() if quarantine_on else None
    estimates, _ = state.estimator.corpus_collect_estimates(
        [(text, 1) for text in texts],
        quarantine=log,
        ordinal_base=base_ordinal,
    )
    wire = dumps_estimates(
        [estimates[text] for text in texts], state.estimator.database
    )
    return wire, (log.records if log is not None else ())


def _fallback_task(state: WorkerState, payload, task_id: int, attempt: int):
    """Phase-3 task: re-estimate texts against the merged statistics.

    ``payload`` is ``(stats_token, snapshot, items, quarantine_on)``
    with ``items`` a list of ``(ordinal, text)``.  The merged snapshot
    rides along with each task and a worker freezes it into a
    statistics table once per *token* — a fresh serial per engine run
    — kept on its :class:`WorkerState`.  That makes two failure shapes
    correct at once: a worker respawned mid-phase-3 (``stats_token``
    reset to 0) rebuilds the table from its next task, and a
    **persistent pool reused across runs** sees a new token and can
    never serve the previous run's table.  Returns
    ``(present_indices, wire, dead_letter_records)`` where
    ``present_indices`` are the positions in *items* that produced an
    estimate (a line quarantined here keeps its phase-1 estimate).
    """
    stats_token, snapshot, items, quarantine_on = payload
    plan = faults.active_plan()
    if plan is not None:
        plan.fire("fallback-chunk", task_id, attempt)
    if state.stats_token != stats_token:
        stats = UnitFallback(state.estimator.max_grams)
        stats.merge(snapshot)
        state.stats = stats
        state.stats_token = stats_token
    log = DeadLetterLog() if quarantine_on else None
    texts = [text for _, text in items]
    estimates = state.estimator.corpus_fallback_estimates(
        texts,
        state.stats,
        quarantine=log,
        ordinals={text: ordinal for ordinal, text in items},
    )
    present = [i for i, text in enumerate(texts) if text in estimates]
    wire = dumps_estimates(
        [estimates[texts[i]] for i in present], state.estimator.database
    )
    return present, wire, (log.records if log is not None else ())


_HANDLERS = {
    "collect-chunk": _collect_task,
    "fallback-chunk": _fallback_task,
}


# ----------------------------------------------------------------------
# coordinator

def _chunked(items, size: int) -> Iterator[list]:
    iterator = iter(items)
    while chunk := list(islice(iterator, size)):
        yield chunk


def _chunk_observations(
    estimates: list[IngredientEstimate], counts: list[int]
) -> dict[str, dict[str, int]]:
    """The unit-observation snapshot of one collect chunk.

    What :meth:`NutritionEstimator.corpus_collect_estimates` returns
    for the chunk's lines with their final occurrence counts: each
    matched line observes its ``(name, unit)`` once, weighted by its
    count, in ordinal order.
    """
    observations = UnitFallback()
    for estimate, count in zip(estimates, counts):
        if estimate.status == STATUS_FULL:
            observations.observe(
                estimate.parsed.name, estimate.resolution.unit, count
            )
    return observations.snapshot()


class ShardedCorpusEstimator:
    """Corpus estimation across a supervised process pool with exact
    parity.

    Parameters
    ----------
    spec:
        The estimator configuration (default: the default pipeline —
        embedded database, rule tagger).
    workers:
        Process count; ``None`` means ``os.cpu_count()``.  ``1`` runs
        the identical protocol in-process with no pool (useful as the
        parity reference and for streaming over huge corpora without
        IPC).
    chunk_size:
        Distinct ingredient lines per pool task.  Bigger chunks
        amortize task/pickle overhead; smaller chunks balance load.
    quarantine:
        With ``True``, malformed JSONL corpus lines and ingredient
        lines whose estimation raises are diverted to dead-letter
        records on :attr:`last_report` instead of aborting the run.
        Default ``False``: strict mode, every failure propagates
        (the seed behaviour, and what the parity suites pin).
    chunk_deadline_s:
        Per-chunk wall-clock budget before a worker is presumed hung
        and replaced (``None`` disables hang detection).
    max_chunk_retries:
        Re-dispatches allowed per chunk lost to a crashed or hung
        worker before :class:`ChunkRetriesExhaustedError`.
    run_dir:
        Directory for a **durable run** (:mod:`repro.runs`): manifest,
        chunk journal, checkpoint.  Requires a JSONL-path corpus
        source (an in-memory sequence has no durable identity to bind
        the manifest to).  One engine instance maps to one run
        directory — construct a fresh engine per durable run.
    resume:
        Resume the existing run in *run_dir*: verify its manifest
        against this engine's corpus/config (typed
        :class:`~repro.runs.errors.RunMismatchError` on drift),
        truncate any torn journal tail, replay journaled chunks and
        execute only the missing ones.
    force_pool:
        Route even ``workers=1`` non-durable runs through the
        supervised pool instead of the in-process shortcut.  The
        worker-scaling benchmarks use this so every point of a worker
        series measures the same pool machinery (spawn, IPC) rather
        than comparing a pool against a loop.
    estimator_supplier:
        Zero-arg callable returning an already-built estimator
        equivalent to ``spec.build()``: the estimator pool workers
        inherit through the fork.  The HTTP service passes its warm
        estimator so the pool does not build a second one; default
        is the engine's own lazily built in-process estimator.
    """

    def __init__(
        self,
        spec: EstimatorSpec | None = None,
        *,
        workers: int | None = None,
        chunk_size: int = 512,
        quarantine: bool = False,
        chunk_deadline_s: float | None = DEFAULT_CHUNK_DEADLINE_S,
        max_chunk_retries: int = DEFAULT_MAX_CHUNK_RETRIES,
        run_dir: str | Path | None = None,
        resume: bool = False,
        force_pool: bool = False,
        estimator_supplier=None,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1: {chunk_size}")
        if max_chunk_retries < 0:
            raise ValueError(
                f"max_chunk_retries must be >= 0: {max_chunk_retries}"
            )
        if resume and run_dir is None:
            raise ValueError("resume=True requires run_dir")
        self._run_dir = Path(run_dir) if run_dir is not None else None
        self._resume = resume
        self._spec = spec or EstimatorSpec()
        if workers is not None:
            self._workers = workers
        else:
            self._workers = os.cpu_count() or 1
        self._chunk_size = chunk_size
        self._quarantine = quarantine
        self._chunk_deadline_s = chunk_deadline_s
        self._max_chunk_retries = max_chunk_retries
        self._force_pool = force_pool
        self._estimator_supplier = estimator_supplier
        self._local: NutritionEstimator | None = None
        self._foods = None
        self._pinned_fingerprint: str | None = None
        #: Persistent supervised pool: spawned on the first pool run,
        #: reused by later runs until :meth:`close`.
        self._pool: SupervisedWorkerPool | None = None
        self._pool_finalizer: weakref.finalize | None = None
        #: Serial for phase-3 merged-table installs (see
        #: :func:`_fallback_task`); monotonically increasing per run.
        self._stats_serial = 0
        #: Supervision counters and dead letters for the most recent
        #: corpus run (None until a run happens).  Refreshed at the
        #: start of every run; read it before starting the next one.
        self.last_report: RunReport | None = None
        if self._spec.artifact_path is not None:
            # Pin the artifact version now: the coordinator's food
            # list (the wire codec's index space) must come from the
            # same file state the engine was created against, not from
            # whatever the file contains when the first corpus runs.
            # Foods and fingerprint both come from ONE snapshot so a
            # swap landing mid-construction cannot split the pin
            # across two file states.
            snapshot = self._spec._snapshot()
            self._foods = list(snapshot.database())
            self._pinned_fingerprint = snapshot.fingerprint

    @property
    def spec(self) -> EstimatorSpec:
        return self._spec

    @property
    def workers(self) -> int:
        return self._workers

    def _local_estimator(self) -> NutritionEstimator:
        """The coordinator's estimator, built from the pinned
        :meth:`_worker_spec`: in-process runs use it, and pool workers
        forked from this process inherit it."""
        if self._local is None:
            self._local = self._worker_spec().build()
        return self._local

    # ------------------------------------------------------------------
    # persistent pool lifecycle

    def ensure_pool(self) -> None:
        """Spawn the persistent worker pool now (idempotent).

        Lets services and benchmarks pay the spawn cost up front
        instead of inside the first request or timed region.  Only
        useful for engines that actually route through the pool
        (``workers > 1`` or ``force_pool=True``).
        """
        self._ensure_pool()

    def _ensure_pool(self) -> SupervisedWorkerPool:
        if self._pool is None:
            pool = SupervisedWorkerPool(
                self._worker_spec(),
                _HANDLERS,
                self._workers,
                deadline_s=self._chunk_deadline_s,
                max_retries=self._max_chunk_retries,
                estimator_supplier=(
                    self._estimator_supplier or self._local_estimator
                ),
            )
            self._pool = pool
            # Safety net for engines dropped without close(): the
            # callback holds the pool, never the engine, so the
            # finalizer cannot keep the engine alive.
            self._pool_finalizer = weakref.finalize(self, pool.close)
        return self._pool

    def close(self) -> None:
        """Shut down the persistent pool.

        Idempotent; the engine remains usable (the next pool run
        simply spawns a fresh pool).
        """
        pool, self._pool = self._pool, None
        finalizer, self._pool_finalizer = self._pool_finalizer, None
        if finalizer is not None:
            finalizer.detach()
        if pool is not None:
            pool.close()

    def __enter__(self) -> "ShardedCorpusEstimator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _food_list(self):
        if self._foods is None:
            self._foods = list(self._spec.database())
        return self._foods

    # ------------------------------------------------------------------

    def _stream(
        self, source: CorpusSource, dead_letters: DeadLetterLog
    ) -> Iterator[tuple[str, list[str], object]]:
        """The run's corpus traversal as ``(title, texts, servings)``,
        quarantine-aware for JSONL sources: with quarantine on,
        malformed lines are skipped and recorded in *dead_letters*.
        JSONL lines go through the lean parse, which builds no
        :class:`Recipe`."""
        if isinstance(source, (str, Path)):
            if self._quarantine:
                return iter_recipes_jsonl(
                    source,
                    on_error="skip",
                    dead_letters=dead_letters,
                    parse=recipe_fields_from_line,
                )
            return iter_recipes_jsonl(source, parse=recipe_fields_from_line)
        if isinstance(source, Sequence):
            return (
                (recipe.title, recipe.ingredient_texts, recipe.servings)
                for recipe in source
            )
        raise TypeError(
            "corpus source must be a Sequence[Recipe] or a JSONL path, "
            f"got {type(source).__name__}"
        )

    def _begin_run(self) -> RunReport:
        self.last_report = RunReport(workers=self._workers)
        return self.last_report

    def _line_table(
        self, source: CorpusSource, report: RunReport, layout: _CorpusLayout
    ) -> Iterator[list[str]]:
        """The run's one corpus traversal, filling *layout* and cutting
        collect chunks as it goes.

        Hash-conses every ingredient line into the distinct-line
        table, so all downstream work scales with the distinct set:
        each occurrence is interned to the ordinal of its line's first
        occurrence.  Ordinals first occur in increasing order, so the
        texts of ordinals ``[i·chunk_size, (i+1)·chunk_size)`` never
        change once the traversal has seen them; chunk i is yielded
        then, and the partial last chunk when the corpus ends.  Only
        then are the counts final: counting the ordinal array runs at
        C speed.  The ordinals, per-recipe end offsets and servings
        are everything assembly needs, so the corpus is never parsed
        again.
        """
        texts = layout.texts
        intern = _Ordinals(texts).__getitem__
        occurrences = layout.occurrences
        size = self._chunk_size
        cut = 0
        for _, recipe_texts, servings in self._stream(
            source, report.dead_letters
        ):
            occurrences.extend(map(intern, recipe_texts))
            layout.ends.append(len(occurrences))
            layout.servings.append(servings)
            while len(texts) - cut >= size:
                yield texts[cut:cut + size]
                cut += size
        if len(texts) > cut:
            yield texts[cut:]
        # Ordinals first occur in increasing order, so the counter's
        # insertion order is ordinal order.
        layout.counts = list(Counter(occurrences).values())
        report.total_lines = len(occurrences)
        report.distinct_lines = len(texts)

    @staticmethod
    def _pull_poisoned(report: RunReport) -> dict[int, tuple[str, str]]:
        """Lift estimate-source dead letters out for re-numbering.

        Corpus paths renumber estimate-side letters from line-table
        ordinals to per-occurrence corpus positions; this removes them
        from the report (ingest letters keep their 1-based file line
        numbers) and returns ``line ordinal -> (reason, detail)``.
        Estimation is deterministic per text, so every occurrence of a
        poisoned line shares one reason/detail.
        """
        poisoned: dict[int, tuple[str, str]] = {}
        kept = []
        for letter in report.dead_letters.records:
            if letter.source == "estimate":
                poisoned.setdefault(
                    letter.line_no, (letter.reason, letter.detail)
                )
            else:
                kept.append(letter)
        report.dead_letters.replace(kept)
        return poisoned

    @staticmethod
    def _letter_occurrences(
        log: DeadLetterLog,
        layout: _CorpusLayout,
        poisoned: dict[int, tuple[str, str]],
        start: int,
        end: int,
    ) -> None:
        """Dead-letter each occurrence of a poisoned line among corpus
        positions ``start..end-1``, under its position."""
        occurrences = layout.occurrences
        for position in range(start, end):
            hit = poisoned.get(occurrences[position])
            if hit is not None:
                log.add(
                    "estimate",
                    position,
                    layout.texts[occurrences[position]],
                    hit[0],
                    hit[1],
                )

    # ------------------------------------------------------------------
    # durable runs

    def _database_fingerprint(self) -> str:
        """The fingerprint a durable run's manifest binds to."""
        if self._pinned_fingerprint is not None:
            return self._pinned_fingerprint
        from repro.artifacts.store import database_fingerprint

        return database_fingerprint(self._food_list())

    def _durable_run(self, source: CorpusSource) -> DurableRun | None:
        """Create (or reopen and verify) this engine's durable run."""
        if self._run_dir is None:
            return None
        if not isinstance(source, (str, Path)):
            raise RunError(
                "durable runs need a JSONL corpus path (an in-memory "
                "sequence has no durable identity for the manifest)"
            )
        fingerprint = self._database_fingerprint()
        if self._resume:
            run = DurableRun.open(self._run_dir)
            run.manifest.verify_corpus(source)
            run.manifest.verify_config(
                chunk_size=self._chunk_size,
                quarantine=self._quarantine,
                max_grams=self._spec.max_grams,
                database_fingerprint=fingerprint,
            )
            return run
        database: dict = {
            "fingerprint": fingerprint,
            "artifact_path": self._spec.artifact_path,
        }
        if self._spec.artifact_path is not None:
            from repro.artifacts.format import read_artifact_digest

            database["artifact_sha256"] = read_artifact_digest(
                self._spec.artifact_path
            )
        # The CLI names run directories after the run id it generates
        # (``ROOT/run-.../``); adopting such a name keeps directory and
        # manifest in agreement instead of minting a second id.
        dir_name = self._run_dir.name
        manifest = RunManifest(
            run_id=dir_name if dir_name.startswith("run-") else new_run_id(),
            created_at=time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            repro_version=__version__,
            corpus=corpus_identity(source),
            config={
                "chunk_size": self._chunk_size,
                "quarantine": self._quarantine,
                "max_grams": self._spec.max_grams,
                "workers": self._workers,
            },
            database=database,
        )
        return DurableRun.create(self._run_dir, manifest)

    @staticmethod
    def _note_run(report: RunReport, run: DurableRun | None) -> None:
        if run is not None:
            report.run_id = run.manifest.run_id
            report.run_dir = str(run.path)
            report.resumed = run.resumed

    # ------------------------------------------------------------------

    def estimate_corpus(self, source: CorpusSource) -> list[RecipeEstimate]:
        """All recipe estimates, in corpus order."""
        return list(self.iter_corpus_estimates(source))

    @contextlib.contextmanager
    def _corpus_table(
        self, source: CorpusSource
    ) -> Iterator[
        tuple[RunReport, _CorpusLayout, dict[str, IngredientEstimate]]
    ]:
        """A corpus run up to its estimate table — the one traversal,
        then the two-phase protocol over the distinct lines — held
        for the body of the ``with``.

        Automatic garbage collection is paused while the table is
        built.  The table and layout are acyclic and only grow, so the
        collections their allocations trigger would rescan them and
        free nothing.  The finished heap is then frozen for the body
        (unless something outside froze it first: a freeze cannot be
        undone selectively), so the allocations there do not rescan
        it either; on exit the collector is as it was.  Pool workers
        forked meanwhile (a lazy spawn, a respawn) turn their own
        collector back on.  Never pause inside
        :meth:`estimate_table`: the service calls it from handler
        threads, and the switch is process-wide.
        """
        report = self._begin_run()
        run = self._durable_run(source)
        self._note_run(report, run)
        layout = _CorpusLayout()
        enabled = gc.isenabled()
        freeze = gc.get_freeze_count() == 0
        gc.disable()
        try:
            try:
                estimates = self._estimate_table_into(
                    self._line_table(source, report, layout),
                    layout,
                    report,
                    run,
                )
            finally:
                if run is not None:
                    run.close()
            if freeze:
                gc.freeze()
        finally:
            if enabled:
                gc.enable()
        try:
            yield report, layout, estimates
        finally:
            if freeze:
                gc.unfreeze()

    def iter_corpus_estimates(
        self, source: CorpusSource
    ) -> Iterator[RecipeEstimate]:
        """Stream recipe estimates in corpus order.

        Results are assembled from the layout the run's one corpus
        traversal recorded and yielded one recipe at a time, so memory
        stays bounded by the distinct-line estimate table plus the
        layout's 4 bytes per line occurrence.
        """
        with self._corpus_table(source) as (report, layout, estimates):
            # Fan-out: per-distinct estimates expand to per-occurrence
            # results in corpus order through the ordinal array, and
            # estimate-side dead letters are renumbered to
            # per-occurrence positions in the flattened ingredient-line
            # stream.
            table = [estimates[text] for text in layout.texts]
            del estimates
            poisoned = self._pull_poisoned(report)
            finish = NutritionEstimator.finish_recipe
            occurrences = layout.occurrences
            start = 0
            for end, servings in zip(layout.ends, layout.servings):
                if poisoned:
                    self._letter_occurrences(
                        report.dead_letters, layout, poisoned, start, end
                    )
                yield finish(
                    [table[i] for i in occurrences[start:end]], servings
                )
                start = end

    def corpus_diagnostics(self, source: CorpusSource) -> ReasonBreakdown:
        """Reason-code breakdown over a whole corpus (Figure 2 by cause).

        Runs the two-phase protocol over the corpus's distinct-line
        table (sharded at ``workers > 1`` — reason codes and traces
        ship bit-identically through the wire codec) and attributes
        every line, weighted by occurrence count, to the §II-C
        strategy that resolved or killed it.
        """
        with self._corpus_table(source) as (report, layout, table):
            poisoned = self._pull_poisoned(report)
            if poisoned:
                # The letters carry per-occurrence corpus positions,
                # like the streaming path's assembly produces.
                self._letter_occurrences(
                    report.dead_letters,
                    layout,
                    poisoned,
                    0,
                    len(layout.occurrences),
                )
            return reason_breakdown_from_lines(
                (table[text], count) for text, count in layout.lines
            )

    # ------------------------------------------------------------------
    # execution backends

    def estimate_table(
        self, counts: dict[str, int]
    ) -> dict[str, IngredientEstimate]:
        """Run the two-phase protocol over a distinct-line table.

        ``text -> final estimate`` for every key of *counts* (values
        are occurrence counts, which weight the unit statistics).  The
        building block under :meth:`iter_corpus_estimates`, exposed
        for callers that already hold a distinct-line table — the HTTP
        service's batch endpoint assembles its own recipes from this.
        Dispatches to the in-process estimator at ``workers=1`` and to
        the supervised pool otherwise; results are bit-identical
        either way.
        """
        report = self._begin_run()
        report.total_lines = sum(counts.values())
        report.distinct_lines = len(counts)
        layout = _CorpusLayout(
            texts=list(counts), counts=list(counts.values())
        )
        return self._estimate_table_into(
            _chunked(layout.texts, self._chunk_size), layout, report
        )

    def _estimate_table_into(
        self,
        chunks: Iterable[list[str]],
        layout: _CorpusLayout,
        report: RunReport,
        run: DurableRun | None = None,
    ) -> dict[str, IngredientEstimate]:
        """The two-phase protocol over *layout*'s distinct-line table,
        whose collect chunks *chunks* produces; *layout* is complete
        once *chunks* is exhausted."""
        if run is None and self._workers == 1 and not self._force_pool:
            # In process, the protocol starts from the finished table.
            for _ in chunks:
                pass
            return self._run_local(layout.lines, report)
        # A durable run always takes the chunked pool path, even at
        # workers=1: journaling and replay are defined over the chunk
        # plan, and a full replay never spawns a worker anyway.
        return self._run_pool(chunks, layout, report, run)

    def _run_local(
        self, lines: list[tuple[str, int]], report: RunReport
    ) -> dict[str, IngredientEstimate]:
        log = report.dead_letters if self._quarantine else None
        estimates, snapshot = self._local_estimator().corpus_protocol(
            lines, quarantine=log
        )
        report.stats_digest = snapshot_digest(snapshot)
        return estimates

    def _worker_spec(self) -> EstimatorSpec:
        """The spec estimators are built from: in the coordinator,
        and in pool workers under non-fork start methods.

        For artifact-backed specs the coordinator pins the database
        fingerprint it loaded at construction onto this spec.  The
        wire codec decodes foods by database *index* against the
        coordinator's list; if the file were swapped for one built
        against different data between construction and a later build
        (e.g. a deploy refreshing the artifact under a running
        service), the indices would silently resolve to the wrong
        foods.  Pinning routes that race into ``EstimatorSpec``'s
        fingerprint check, so every build either loads the identical
        database or fails with a typed ``ArtifactMismatchError`` — in
        the coordinator before any fork, or in a spec-built worker —
        at the cost of one string, not a pickled food list.
        """
        if (
            self._pinned_fingerprint is None
            or self._spec.expected_fingerprint is not None
        ):
            return self._spec
        return dataclasses.replace(
            self._spec, expected_fingerprint=self._pinned_fingerprint
        )

    def _run_pool(
        self,
        chunks: Iterable[list[str]],
        layout: _CorpusLayout,
        report: RunReport,
        run: DurableRun | None = None,
    ) -> dict[str, IngredientEstimate]:
        foods = self._food_list()
        size = self._chunk_size
        texts = layout.texts
        estimates: dict[str, IngredientEstimate] = {}
        quarantine_on = self._quarantine
        replay = run.collect if run is not None else {}

        # The pool is acquired lazily: a resume whose journal already
        # covers every chunk is pure replay and spawns no workers.
        # The pool itself is persistent (spawned once per engine,
        # reused run-to-run), so supervision counters are reported as
        # deltas against a baseline captured at first acquisition.
        used_pool: SupervisedWorkerPool | None = None
        baseline = (0, 0, 0, 0)

        def ensure_pool() -> SupervisedWorkerPool:
            nonlocal used_pool, baseline
            acquired = self._ensure_pool()
            if used_pool is None:
                used_pool = acquired
                stats = acquired.stats
                baseline = (
                    stats.retries, stats.respawns, stats.crashes, stats.hung
                )
            return acquired

        def replay_decode(wire, expected: int, what: str, index: int):
            decoded = loads_estimates(wire, foods)
            if len(decoded) != expected:
                raise RunJournalError(
                    f"journaled {what} chunk {index} decodes to "
                    f"{len(decoded)} estimates where the recomputed "
                    f"chunk holds {expected} — the corpus changed since "
                    f"the run was started"
                )
            return decoded

        # Chunk indices sent to the pool, in order (task k is chunk
        # dispatched[k]); journaled chunks are never sent.
        dispatched: list[int] = []

        def collect_payloads():
            for i, chunk in enumerate(chunks):
                if i not in replay:
                    dispatched.append(i)
                    yield i * size, chunk, quarantine_on

        # Collect results waiting for final counts, in chunk order
        # (the wire only for the journal), and the settled ones:
        # chunk -> (estimates, letters, snapshot).
        held: list[tuple[int, bytes | None, list, list]] = []
        settled: dict[int, tuple[list, list, dict]] = {}
        planned = False

        def settle() -> None:
            """Weigh the held results' observations by the final
            counts and journal them after the plan frame, in chunk
            order.  Only valid once the traversal has ended."""
            nonlocal planned
            if run is not None and not planned:
                run.begin(
                    n_chunks=-(-len(texts) // size),
                    distinct_lines=len(texts),
                    chunk_size=size,
                )
                planned = True
            for i, wire, decoded, letters in held:
                start = i * size
                snapshot = _chunk_observations(
                    decoded, layout.counts[start:start + size]
                )
                if run is not None:
                    run.record_collect(i, wire, snapshot, letters)
                settled[i] = (decoded, letters, snapshot)
            held.clear()

        try:
            # Phase 1, overlapped with the traversal: the pool draws
            # collect payloads from it lazily, so workers estimate the
            # first chunks while the coordinator reads on, and yields
            # results in task order even when a retry finishes out of
            # sequence.  A chunk's result is held until the traversal
            # ends; after that, each one settles as it arrives.
            payloads = collect_payloads()
            first = next(payloads, None)
            if first is not None:
                results = ensure_pool().run(
                    "collect-chunk", chain((first,), payloads)
                )
                for k, (wire, letters) in enumerate(results):
                    i = dispatched[k]
                    held.append((
                        i,
                        wire if run is not None else None,
                        loads_estimates(wire, foods),
                        list(letters),
                    ))
                    if layout.counts is not None:
                        settle()
            settle()
            if not texts:
                # Even an empty run freezes (an empty) unit table; give
                # it a digest so downstream cache tokens never see None.
                report.stats_digest = snapshot_digest(
                    UnitFallback().snapshot()
                )
                if run is not None and not run.complete:
                    run.record_complete(
                        {**report.counters(), **report.journal_counters()}
                    )
                return estimates
            # Phase 2: merge the chunks' snapshots in chunk order, the
            # journal's replayed ones in their slots, which reproduces
            # the tie-break-exact table whatever the failures.
            merged_fallback = UnitFallback(self._spec.max_grams)
            for i, chunk in enumerate(_chunked(texts, size)):
                if i in replay:
                    wire, snapshot, letters = replay[i]
                    decoded = replay_decode(wire, len(chunk), "collect", i)
                    report.replayed_chunks += 1
                else:
                    decoded, letters, snapshot = settled.pop(i)
                    report.executed_chunks += 1
                merged_fallback.merge(snapshot)
                report.dead_letters.extend(list(letters))
                estimates.update(zip(chunk, decoded))
            # Phase boundary: checkpoint the merged unit tables — or,
            # on a resume that already holds a checkpoint, cross-check
            # it against the tables just merged from replay.  A
            # divergence means the corpus or database changed in a way
            # the manifest's sampled prefix could not see.
            snapshot = merged_fallback.snapshot()
            report.stats_digest = snapshot_digest(snapshot)
            if run is not None:
                if run.checkpoint is None:
                    run.record_checkpoint(snapshot)
                elif run.checkpoint != snapshot:
                    raise RunJournalError(
                        "journaled phase-boundary checkpoint does not "
                        "match the unit tables merged from the replayed "
                        "chunks — the corpus changed since the run was "
                        "started"
                    )
            # Phase 3: re-estimate fallback candidates against the
            # frozen merged table.  The pending list is a pure function
            # of the phase-1 estimates, so a resume recomputes the
            # identical fallback chunking and can address journaled
            # phase-3 frames by chunk index.
            pending = [
                (ordinal, text)
                for ordinal, text in enumerate(texts)
                if estimates[text].status == STATUS_NAME_ONLY
            ]
            fallback_chunks = list(_chunked(pending, size))
            fb_replay = run.fallback if run is not None else {}
            fb_missing = [
                i for i in range(len(fallback_chunks)) if i not in fb_replay
            ]
            self._stats_serial += 1
            stats_token = self._stats_serial
            payloads = [
                (stats_token, snapshot, fallback_chunks[i], quarantine_on)
                for i in fb_missing
            ]
            executed = (
                ensure_pool().run("fallback-chunk", payloads)
                if payloads
                else iter(())
            )
            for i, items in enumerate(fallback_chunks):
                if i in fb_replay:
                    present, wire, letters = fb_replay[i]
                    if present and not (
                        0 <= min(present) and max(present) < len(items)
                    ):
                        raise RunJournalError(
                            f"journaled fallback chunk {i} addresses "
                            f"lines outside the recomputed chunk — the "
                            f"corpus changed since the run was started"
                        )
                    decoded = replay_decode(
                        wire, len(present), "fallback", i
                    )
                    report.replayed_chunks += 1
                else:
                    present, wire, letters = next(executed)
                    decoded = loads_estimates(wire, foods)
                    if run is not None:
                        run.record_fallback(i, present, wire, list(letters))
                    report.executed_chunks += 1
                report.dead_letters.extend(list(letters))
                for p, estimate in zip(present, decoded):
                    estimates[items[p][1]] = estimate
        except BaseException:
            # A failed run leaves workers in an unknown state (mid-
            # chunk, half-installed table); close the pool so the next
            # run starts from fresh workers instead of reusing them.
            self.close()
            raise
        finally:
            if used_pool is not None:
                stats = used_pool.stats
                report.retries = stats.retries - baseline[0]
                report.respawns = stats.respawns - baseline[1]
                report.worker_crashes = stats.crashes - baseline[2]
                report.hung_workers = stats.hung - baseline[3]
        if run is not None and not run.complete:
            run.record_complete(
                {**report.counters(), **report.journal_counters()}
            )
        return estimates
