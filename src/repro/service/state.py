"""Long-lived service state: warm estimator, response cache, metrics.

One :class:`ServiceState` lives for the whole service process.  It
pays the pipeline's cold start exactly once — USDA database load,
description preprocessing, inverted-index build — by constructing a
single shared :class:`NutritionEstimator` from an
:class:`EstimatorSpec` at startup, then serves every request from
that warm instance.

Request semantics are the **two-phase corpus protocol** (see
``docs/architecture.md``): each request is treated as a self-contained
corpus, so responses depend only on the request payload — never on
request ordering or service history.  That determinism is what makes
response caching sound: a :class:`BoundedCache` maps normalized
request payloads to serialized response bodies, and a hit skips the
pipeline entirely.

Below that cache sits the **line-outcome memo**: stripped line text ->
:class:`LineRecord`, the line's pass-1 outcome and rendered fragment.
A pass-1 estimate is computed without corpus statistics, so it is a
pure function of (database, tagger, line text) — both fixed for the
life of the process — and a line that pass 2 does not re-estimate is
final.  A request runs pass 1 only for memo misses, rebuilds its unit
statistics from the records, re-estimates its name-only lines against
them, and splices a memoized fragment only where the final outcome
*is* the pass-1 outcome.  ``/v1/estimate`` bodies are cached as
:class:`~repro.service.codec.SplicedBody` pieces that share those
fragment bytes.

Estimation runs under one lock, :attr:`ServiceState.estimator_lock`.
The pipeline is pure Python and CPU-bound, so the GIL serializes the
work anyway; the lock keeps the line memo and the estimator's memos
(matcher, quantity) coherent between the server's event-loop thread,
which estimates ``/v1/estimate`` cache misses itself, and its pool
threads, which run everything else.  The lock is reentrant: the loop
takes it without waiting *before* it dispatches a request (a held lock
sends the request to the pool instead), and the estimation path takes
it again inside.  None of the memos changes a result: each request's
unit statistics are a value built and read inside that request, and
the estimator holds no table of its own.  Cache hits and
``/healthz``/``/metrics`` never take the lock.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import threading
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from repro import __version__, faults
from repro.core.estimator import (
    STATUS_FULL,
    STATUS_NAME_ONLY,
    IngredientEstimate,
    NutritionEstimator,
)
from repro.core.explain import explain_line
from repro.core.profile import NutritionalProfile
from repro.core.resolution import REASON_ESTIMATOR_ERROR
from repro.deadletter import DeadLetterLog
from repro.pipeline.engine import RunReport, ShardedCorpusEstimator
from repro.pipeline.errors import PipelineError
from repro.pipeline.spec import EstimatorSpec
from repro.service import codec
from repro.service.errors import ServiceNotReadyError
from repro.service.metrics import ConnectionStats, ServiceMetrics
from repro.service.resilience import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
)
from repro.units.fallback import UnitFallback
# The benchmark tracer wraps this name to count digests per request.
from repro.units.fallback import snapshot_digest  # noqa: F401
from repro.usda.schema import FoodItem
from repro.utils import BoundedCache

log = logging.getLogger("repro.service")

#: Default entry cap for the response cache.
DEFAULT_RESPONSE_CACHE_CAP = 4096

#: Bodies larger than this are never cached; the cap applies to the
#: joined length, also for a body kept as
#: :class:`~repro.service.codec.SplicedBody` pieces.  Single-recipe
#: responses are a few KB, but batch responses reach MBs (5000 recipes
#: are allowed per request) — an entry-count cap alone would let the
#: cache grow to gigabytes.  Together the two caps bound cache memory
#: at ``cache_cap * MAX_CACHEABLE_BODY_BYTES`` ≈ 1 GB worst case, and
#: in practice a few MB: a cached ``/v1/estimate`` body holds its own
#: head (under 1 KB) and references fragment bytes shared with the
#: line memo, so a fragment evicted from the memo stays alive only
#: while a cached body still references it.
MAX_CACHEABLE_BODY_BYTES = 256 * 1024

#: Entry cap for the line-outcome memo (FIFO eviction).  Covers
#: RecipeDB's ~23k distinct ingredient phrases.  A realistic record
#: with its key takes 1.2-1.6 KB (mostly its rendered fragment), so a
#: memo full of such lines holds ~45 MB.  The cap alone bounds it
#: higher: a line may have ``codec.MAX_PHRASE_CHARS`` (500)
#: characters, the fragment repeats the text in several fields, and
#: JSON escapes every non-ASCII character, so 500 astral-plane
#: symbols make a ~24 KB record and a memo full of them ~750 MiB.
#: (The per-estimator parse memo, ``DEFAULT_CACHE_CAP`` entries of up
#: to ~52 KB each for the same lines, is bounded an order higher.)
LINE_MEMO_CAP = 1 << 15

#: Below this many distinct ingredient lines a batch request runs on
#: the in-process estimator even when ``workers > 1`` — process-pool
#: start-up costs more than estimating a small table.
ENGINE_MIN_DISTINCT_LINES = 256


class RenderedLine(NamedTuple):
    """One distinct line of a request, final and ready to splice.

    Carries the ``profile`` and ``status`` that
    :meth:`NutritionEstimator.finish_recipe` and the
    :class:`~repro.core.estimator.RecipeEstimate` fractions read, so a
    recipe of rendered lines aggregates exactly as one of estimates.
    """

    fragment: bytes
    status: str
    reason: str
    profile: NutritionalProfile

    @classmethod
    def of(cls, estimate: IngredientEstimate) -> "RenderedLine":
        return cls(
            codec.dumps_ingredient_fragment(estimate),
            estimate.status,
            estimate.reason,
            estimate.profile,
        )


class LineRecord(NamedTuple):
    """A line's pass-1 outcome, slim enough to keep across requests.

    What a later request needs from the line without estimating it
    again: the rendered fragment, the status and reason, the
    (``name``, ``unit``) observation pass 1 contributes to the unit
    statistics, and the ``food`` and ``grams`` its profile is rebuilt
    from.  ``unit`` and ``food`` are ``None`` unless the status is
    ``matched``.
    """

    fragment: bytes
    status: str
    reason: str
    name: str
    unit: str | None
    food: FoodItem | None
    grams: float

    @classmethod
    def of(cls, estimate: IngredientEstimate) -> "LineRecord":
        full = estimate.status == STATUS_FULL
        return cls(
            codec.dumps_ingredient_fragment(estimate),
            estimate.status,
            estimate.reason,
            estimate.parsed.name,
            estimate.resolution.unit if full else None,
            estimate.match.food if full else None,
            estimate.grams,
        )

    def rendered(self) -> RenderedLine:
        """The record as a final line (its pass-1 estimate stands).

        The profile is the expression the estimator itself evaluates
        (``NutritionalProfile.from_food(food, grams)``, or zero), so
        recipe totals are bit-identical to summing the estimates.
        """
        if self.status == STATUS_FULL:
            profile = NutritionalProfile.from_food(self.food, self.grams)
        else:
            profile = NutritionalProfile.zero()
        return RenderedLine(self.fragment, self.status, self.reason, profile)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` needs to stand up a service.

    Attributes
    ----------
    host / port:
        Bind address.  ``port=0`` asks the OS for a free port (the
        integration tests and in-process examples use this).
    workers:
        Worker processes for ``/v1/estimate_batch`` fan-out through
        the sharded corpus engine.  ``1`` (default) runs every request
        on the in-process estimator.
    cache_cap:
        Entry cap for the response cache (FIFO eviction).
    spec:
        The estimator configuration the service builds once at
        startup; the engine's worker processes are forked with that
        estimator (or, under a non-fork start method, build it from
        the pickled spec).  With ``spec.artifact_path`` set
        (``repro serve --artifact``) that build is a snapshot load —
        the service cold-starts in milliseconds.
    max_body_bytes:
        Request bodies above this size are rejected with HTTP 413
        before the body is read (``repro serve --max-body-bytes``).
    request_timeout_s:
        Per-request time budget for the estimation endpoints; a
        request that exceeds it gets HTTP 504 (``deadline_exceeded``)
        at the next cooperative checkpoint.  ``None`` disables
        deadlines.
    max_concurrent / max_queue:
        Admission control for the estimation endpoints:
        ``max_concurrent`` requests estimate at once, ``max_queue``
        more wait, the rest are shed with HTTP 503 + ``Retry-After``.
    breaker_threshold / breaker_cooldown_s:
        Circuit breaker around the sharded batch engine: after
        ``breaker_threshold`` consecutive engine failures, batch
        requests degrade to the in-process estimator (bit-identical
        results) for ``breaker_cooldown_s`` before a probe retries
        the engine.
    procs:
        Pre-fork server processes (``repro serve --procs``).  ``1``
        serves from the single event-loop process; above that the
        parent forks ``procs`` workers that share the port via
        ``SO_REUSEPORT``, each restoring the same artifact.
    worker_id:
        Which pre-fork worker this process is (0-based; ``0`` for a
        single-process service).  Surfaced in ``/healthz`` and
        ``/metrics`` so load harnesses can aggregate per-process
        counters instead of silently reading one worker's share.
    reuse_port:
        Bind the listening socket with ``SO_REUSEPORT`` so sibling
        worker processes can bind the same port (set by the pre-fork
        parent on worker configs; rarely useful directly).
    io_timeout_s:
        Receive budget for one request's bytes: a connection that has
        started a request (or has an unflushed response) but makes no
        progress for this long is closed — the slowloris bound.
    idle_timeout_s:
        How long a keep-alive connection may sit between requests
        before the server closes it.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 1
    cache_cap: int = DEFAULT_RESPONSE_CACHE_CAP
    spec: EstimatorSpec = field(default_factory=EstimatorSpec)
    max_body_bytes: int = 1 << 20
    request_timeout_s: float | None = 30.0
    max_concurrent: int = 8
    max_queue: int = 32
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 30.0
    procs: int = 1
    worker_id: int = 0
    reuse_port: bool = False
    io_timeout_s: float = 10.0
    idle_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1: {self.workers}")
        if self.cache_cap < 1:
            raise ValueError(f"cache_cap must be >= 1: {self.cache_cap}")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")
        if self.max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1: {self.max_body_bytes}"
            )
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError(
                "request_timeout_s must be positive or None: "
                f"{self.request_timeout_s}"
            )
        if self.max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be >= 1: {self.max_concurrent}"
            )
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0: {self.max_queue}")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1: {self.breaker_threshold}"
            )
        if self.breaker_cooldown_s <= 0:
            raise ValueError(
                f"breaker_cooldown_s must be positive: "
                f"{self.breaker_cooldown_s}"
            )
        if self.procs < 1:
            raise ValueError(f"procs must be >= 1: {self.procs}")
        if self.worker_id < 0:
            raise ValueError(f"worker_id must be >= 0: {self.worker_id}")
        if self.io_timeout_s <= 0:
            raise ValueError(
                f"io_timeout_s must be positive: {self.io_timeout_s}"
            )
        if self.idle_timeout_s <= 0:
            raise ValueError(
                f"idle_timeout_s must be positive: {self.idle_timeout_s}"
            )


class ServiceState:
    """Shared state behind every endpoint handler."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.metrics = ServiceMetrics()
        # Connection-level counters, populated by the event-loop
        # server (stay zero for in-process use without a socket).
        self.connections = ConnectionStats()
        # The warm shared estimator — the service's whole reason to
        # exist.  Built eagerly so the first request is already fast.
        self._estimator = config.spec.build()
        # For an artifact-backed spec, pin the engine to the exact
        # database the warm estimator was built from: if the artifact
        # file is replaced under a running service, anything the
        # engine builds from the spec (a spec-built worker under a
        # non-fork start method) must fail with a typed mismatch
        # rather than let /v1/estimate and /v1/estimate_batch silently
        # answer from different databases.  The pin is the fingerprint
        # string, not the food list.
        engine_spec = config.spec
        if engine_spec.artifact_path is not None:
            from repro.artifacts import database_fingerprint

            engine_spec = dataclasses.replace(
                engine_spec,
                expected_fingerprint=database_fingerprint(
                    self._estimator.database
                ),
            )
        self._engine: ShardedCorpusEstimator | None = (
            ShardedCorpusEstimator(
                engine_spec,
                workers=config.workers,
                quarantine=True,
                # Pool workers are forked with the estimator the
                # service already built.
                estimator_supplier=lambda: self._estimator,
            )
            if config.workers > 1
            else None
        )
        if self._engine is not None:
            # The persistent warm pool: spawn the workers now so the
            # first /v1/estimate_batch request fans out to warm
            # processes instead of paying the pool start-up inline.
            # The pool lives until close() and is reused by every
            # batch.
            self._engine.ensure_pool()
        # Resilience machinery (see repro.service.resilience).
        self.admission = AdmissionController(
            config.max_concurrent, config.max_queue
        )
        self.breaker = CircuitBreaker(
            config.breaker_threshold, config.breaker_cooldown_s
        )
        #: Set by the server at the start of graceful shutdown;
        #: flips /readyz to 503 while in-flight requests drain.
        self.draining = False
        self._resilience_lock = threading.Lock()
        self._pipeline_counters: Counter[str] = Counter()
        self._degraded_batches = 0
        self._deadline_exceeded = 0
        self._estimator_lock = threading.RLock()
        # Separate lock for engine fan-out: the pool never touches the
        # shared estimator, so a large batch must not stall concurrent
        # estimate/match/parse traffic behind it.
        self._engine_lock = threading.Lock()
        self._cache_lock = threading.Lock()
        self._response_cache: BoundedCache[
            str, bytes | codec.SplicedBody
        ] = BoundedCache(config.cache_cap)
        # Line text -> pass-1 outcome, probed under _estimator_lock;
        # reported as caches.fragment.
        self._line_memo: BoundedCache[str, LineRecord] = BoundedCache(
            LINE_MEMO_CAP
        )

    @property
    def estimator(self) -> NutritionEstimator:
        """The warm shared estimator (tests and examples peek at it)."""
        return self._estimator

    @property
    def estimator_lock(self) -> threading.RLock:
        """The reentrant lock every use of the warm estimator holds."""
        return self._estimator_lock

    def close(self) -> None:
        """Release the batch engine's persistent pool (idempotent).

        Called by the server at the end of graceful shutdown; also
        safe to call directly in tests that build a state by hand.
        """
        if self._engine is not None:
            self._engine.close()

    # ------------------------------------------------------------------
    # response cache

    def cached_response(self, key: str) -> bytes | None:
        """Look *key* up, counting the probe as a hit or a miss."""
        with self._cache_lock:
            body = self._response_cache.get(key)
        return None if body is None else codec.dumps_body(body)

    def recheck_response(self, key: str) -> bytes | None:
        """Look *key* up again without counting the probe.

        For a request whose miss was already counted: an identical
        request may have stored the body in the meantime.
        """
        with self._cache_lock:
            body = dict.get(self._response_cache, key)
        return None if body is None else codec.dumps_body(body)

    def store_response(
        self, key: str, body: bytes | codec.SplicedBody
    ) -> None:
        if len(body) > MAX_CACHEABLE_BODY_BYTES:
            return
        with self._cache_lock:
            self._response_cache[key] = body

    # ------------------------------------------------------------------
    # resilience accounting

    def absorb_report(self, report: RunReport | None) -> None:
        """Fold one engine :class:`RunReport` into /metrics counters."""
        if report is None:
            return
        with self._resilience_lock:
            self._pipeline_counters.update(report.counters())

    def note_dead_letters(self, count: int) -> None:
        if count:
            with self._resilience_lock:
                self._pipeline_counters["dead_lettered"] += count

    def note_degraded_batch(self) -> None:
        with self._resilience_lock:
            self._degraded_batches += 1

    def note_deadline_exceeded(self) -> None:
        with self._resilience_lock:
            self._deadline_exceeded += 1

    def resilience_snapshot(self) -> dict:
        with self._resilience_lock:
            pipeline = {
                "retries": self._pipeline_counters["retries"],
                "respawns": self._pipeline_counters["respawns"],
                "worker_crashes": self._pipeline_counters["worker_crashes"],
                "hung_workers": self._pipeline_counters["hung_workers"],
                "dead_lettered": self._pipeline_counters["dead_lettered"],
            }
            degraded = self._degraded_batches
            deadline_exceeded = self._deadline_exceeded
        return {
            "pipeline": pipeline,
            "admission": self.admission.snapshot(),
            "breaker": self.breaker.snapshot(),
            "degraded_batches": degraded,
            "deadline_exceeded_total": deadline_exceeded,
        }

    # ------------------------------------------------------------------
    # estimation endpoints

    def _checkpoint(self, deadline: Deadline | None, phase: str) -> None:
        """Fault-injection hook + cooperative deadline check."""
        plan = faults.active_plan()
        if plan is not None:
            plan.fire("service-estimate", 0)
        if deadline is not None:
            deadline.check(phase)

    def _local_table(
        self, counts: dict[str, int], deadline: Deadline | None
    ) -> dict[str, RenderedLine]:
        """Distinct-line table -> final lines on the warm estimator.

        The corpus protocol of
        :meth:`NutritionEstimator.corpus_protocol`, with pass 1 served
        from the line memo where it can be.  While a fault plan is
        active the memo is neither read nor written: a poison
        selector set after a line was memoized must still fire.
        """
        self._checkpoint(deadline, "estimation")
        quarantine = DeadLetterLog()
        memo = self._line_memo if faults.active_plan() is None else None
        with self._estimator_lock:
            lines = self._memo_protocol(counts, memo, quarantine)
        self.note_dead_letters(len(quarantine))
        return lines

    @staticmethod
    def _probe(
        counts: dict[str, int],
        memo: BoundedCache[str, LineRecord] | None,
    ) -> tuple[dict[str, LineRecord], list[tuple[str, int]]]:
        """Split *counts* into memoized records and ``(text, count)``
        misses; with no *memo* every line misses."""
        records: dict[str, LineRecord] = {}
        misses: list[tuple[str, int]] = []
        for text, count in counts.items():
            record = None if memo is None else memo.get(text)
            if record is None:
                misses.append((text, count))
            else:
                records[text] = record
        return records, misses

    def _memo_protocol(
        self,
        counts: dict[str, int],
        memo: BoundedCache[str, LineRecord] | None,
        quarantine: DeadLetterLog,
    ) -> dict[str, RenderedLine]:
        """Both passes of the corpus protocol over memoized pass 1.

        Pass 1 runs only for the lines *memo* misses; a miss is
        memoized unless its pass 1 raised.  The unit statistics are
        rebuilt from every line's record in table order, weighted by
        count — exactly the table :meth:`corpus_collect_estimates`
        builds over the whole request — and only if some line is
        name-only, since pass 2 is their only reader.
        """
        estimator = self._estimator
        records, misses = self._probe(counts, memo)
        if misses:
            fresh, _ = estimator.corpus_collect_estimates(
                misses, quarantine=quarantine
            )
            for text, estimate in fresh.items():
                record = records[text] = LineRecord.of(estimate)
                if (
                    memo is not None
                    and estimate.reason != REASON_ESTIMATOR_ERROR
                ):
                    memo[text] = record
        pending = [
            text
            for text in counts
            if records[text].status == STATUS_NAME_ONLY
        ]
        final: dict[str, IngredientEstimate] = {}
        if pending:
            stats = UnitFallback(estimator.max_grams)
            for text, count in counts.items():
                record = records[text]
                if record.status == STATUS_FULL:
                    stats.observe(record.name, record.unit, count)
            final = estimator.corpus_fallback_estimates(
                pending,
                stats,
                quarantine=quarantine,
                ordinals={text: i for i, text in enumerate(counts)},
            )
        return {
            text: (
                RenderedLine.of(final[text])
                if text in final
                else records[text].rendered()
            )
            for text in counts
        }

    def _context_statistics(
        self,
        context: Sequence[str],
        memo: BoundedCache[str, LineRecord] | None,
    ) -> UnitFallback:
        """The unit statistics ``/v1/explain`` collects from *context*.

        The same table :func:`~repro.core.explain.explain_line` builds
        from the lines, but memoized lines are read from their records.
        Misses run pass 1 strictly (a raising line propagates) and are
        not stored: rendering their fragments would cost more than the
        memo saves an explanation.
        """
        estimator = self._estimator
        counts = Counter(context)
        records, misses = self._probe(counts, memo)
        fresh = (
            estimator.corpus_collect_estimates(misses)[0] if misses else {}
        )
        stats = UnitFallback(estimator.max_grams)
        for text, count in counts.items():
            record = records.get(text)
            if record is not None:
                if record.status == STATUS_FULL:
                    stats.observe(record.name, record.unit, count)
                continue
            estimate = fresh[text]
            if estimate.status == STATUS_FULL:
                stats.observe(
                    estimate.parsed.name, estimate.resolution.unit, count
                )
        return stats

    def _estimate_table(
        self, counts: dict[str, int], deadline: Deadline | None = None
    ) -> dict[str, RenderedLine]:
        """Distinct-line table -> final lines, engine or in-process.

        Both paths run the identical two-phase corpus protocol, so the
        choice is invisible in the response (the engine's exact-parity
        guarantee).  The engine path fans out through the **persistent
        warm pool** spawned at startup (workers forked with the warm
        estimator and reused by every batch); it only engages from
        :data:`ENGINE_MIN_DISTINCT_LINES` distinct lines up (read at
        call time), where fan-out beats the warm estimator, and runs
        under its own lock so a large batch never stalls
        single-recipe traffic.  It renders every line from its own
        table; only the in-process path goes through the line memo.

        The engine path sits behind the circuit breaker: an engine
        failure (chunk retry budget exhausted, pool unusable) records
        a breaker failure and the request **degrades to the
        in-process estimator**, which returns the
        bit-identical table — the client sees a slower response, not
        an error.  With the breaker open, batches skip the failing
        fan-out entirely until the cooldown's half-open probe.
        """
        if (
            self._engine is not None
            and len(counts) >= ENGINE_MIN_DISTINCT_LINES
        ):
            if self.breaker.allow():
                try:
                    self._checkpoint(deadline, "engine estimation")
                    with self._engine_lock:
                        table = self._engine.estimate_table(counts)
                        report = self._engine.last_report
                except PipelineError:
                    # The fan-out *machinery* failed (chunk retry
                    # budget exhausted, pool unusable) — a transient
                    # capacity problem the in-process path does not
                    # share.  Degrade.  Anything else propagates:
                    # per-line estimation failures are quarantined
                    # inside the engine, so a non-PipelineError here is
                    # a deployment/config fault (e.g. a typed artifact
                    # mismatch in a spec-built worker) that degrading
                    # would only hide from the operator.
                    log.exception(
                        "sharded engine failed; degrading to in-process "
                        "estimation"
                    )
                    self.breaker.record_failure()
                    self.note_degraded_batch()
                else:
                    self.breaker.record_success()
                    self.absorb_report(report)
                    return {
                        text: RenderedLine.of(estimate)
                        for text, estimate in table.items()
                    }
            else:
                self.note_degraded_batch()
        return self._local_table(counts, deadline)

    def estimate(
        self,
        request: codec.EstimateRequest,
        deadline: Deadline | None = None,
    ) -> codec.SplicedBody:
        """``/v1/estimate``: one recipe, always on the warm estimator.

        Returns the response body as pieces (``codec.dumps_body``
        joins them); the response cache keeps them unjoined.  The
        joined bytes equal serializing the monolithic dict (pinned by
        ``tests/test_fragment_cache.py``).
        """
        lines = self._local_table(
            dict(Counter(request.ingredients)), deadline
        )
        self.metrics.observe_reasons(
            lines[text].reason for text in request.ingredients
        )
        recipe = [lines[text] for text in request.ingredients]
        shell = codec.assemble_recipe_estimate_bytes(
            NutritionEstimator.finish_recipe(recipe, request.servings), ()
        )
        return codec.SplicedBody(
            shell, tuple(line.fragment for line in recipe)
        )

    def estimate_batch(
        self,
        request: codec.BatchRequest,
        deadline: Deadline | None = None,
    ) -> bytes:
        """``/v1/estimate_batch``: many recipes as one corpus.

        Corpus-level unit statistics (§II-C) are computed over the
        whole batch — exactly ``NutritionEstimator.estimate_corpus``
        over the same recipes.  With ``workers > 1`` and enough
        distinct lines the table fans out through the sharded engine
        (wire codec and all); results are bit-identical either way.
        Returns the serialized response body: each distinct line's
        JSON is rendered once (or taken from the line memo) and
        spliced into every recipe that uses it.
        """
        counts = dict(
            Counter(
                text
                for recipe in request.recipes
                for text in recipe.ingredients
            )
        )
        lines = self._estimate_table(counts, deadline)
        if deadline is not None:
            deadline.check("response assembly")
        self.metrics.observe_reasons(
            lines[text].reason
            for recipe in request.recipes
            for text in recipe.ingredients
        )
        bodies = []
        for recipe in request.recipes:
            rows = [lines[text] for text in recipe.ingredients]
            bodies.append(
                codec.assemble_recipe_estimate_bytes(
                    NutritionEstimator.finish_recipe(rows, recipe.servings),
                    [line.fragment for line in rows],
                )
            )
        return codec.assemble_batch_bytes(bodies)

    def match(self, request: codec.MatchRequest) -> dict:
        """``/v1/match``: closest USDA-SR description for a name."""
        with self._estimator_lock:
            matcher = self._estimator.matcher
            best = matcher.match(
                request.name,
                request.state,
                request.temperature,
                request.dry_fresh,
            )
            candidates = None
            if request.top > 0:
                candidates = matcher.top_matches(
                    request.name,
                    request.state,
                    request.temperature,
                    request.dry_fresh,
                    k=request.top,
                )
        body: dict = {
            "query": {
                "name": request.name,
                "state": request.state,
                "temperature": request.temperature,
                "dry_fresh": request.dry_fresh,
            },
            "match": None if best is None else codec.encode_match(best),
        }
        if candidates is not None:
            body["candidates"] = [codec.encode_match(c) for c in candidates]
        return body

    def parse(self, request: codec.ParseRequest) -> dict:
        """``/v1/parse``: NER entity extraction for one phrase."""
        with self._estimator_lock:
            parsed = self._estimator.parse(request.text)
        return codec.encode_parsed(parsed)

    def explain(self, request: codec.ExplainRequest) -> dict:
        """``/v1/explain``: full pipeline provenance for one phrase.

        Deterministic in the payload: the corpus-frequent-unit stage
        reads statistics collected from the request's ``context``
        lines only, never the warm estimator's live table (see
        :func:`repro.core.explain.explain_line`), which is what keeps
        the endpoint cacheable.  Context lines the line memo holds
        are not estimated again.
        """
        memo = self._line_memo if faults.active_plan() is None else None
        statistics = None
        with self._estimator_lock:
            if request.context:
                statistics = self._context_statistics(request.context, memo)
            explanation = explain_line(
                self._estimator,
                request.text,
                context=request.context,
                k=request.top,
                statistics=statistics,
            )
        self.metrics.observe_reasons((explanation.estimate.reason,))
        return codec.encode_explanation(explanation)

    # ------------------------------------------------------------------
    # introspection endpoints

    def healthz(self) -> dict:
        """Liveness: cheap, always 200 while the process serves.

        Stays 200 even while draining or saturated — liveness answers
        "should the supervisor restart this process?", and the answer
        during a graceful drain is no.  Readiness (routability) is
        :meth:`readyz`.
        """
        return {
            "status": "ok",
            "version": __version__,
            "uptime_s": round(self.metrics.uptime_s, 3),
            "workers": self.config.workers,
            "procs": self.config.procs,
            "worker_id": self.config.worker_id,
            "pid": os.getpid(),
            "artifact": self.config.spec.artifact_path,
            "requests_total": self.metrics.total_requests(),
        }

    def readyz(self) -> dict:
        """Readiness: 200 only while new work should be routed here.

        503 (``not_ready``) while draining for shutdown, or while the
        admission queue is full — a load balancer honoring this stops
        sending traffic *before* requests start getting shed.
        """
        if self.draining:
            raise ServiceNotReadyError("service is draining for shutdown")
        admission = self.admission.snapshot()
        if admission["queued"] >= self.config.max_queue > 0:
            raise ServiceNotReadyError(
                "admission queue is full; new requests would be shed"
            )
        return {
            "status": "ready",
            "version": __version__,
            "admission": admission,
            "breaker": self.breaker.state,
        }

    def caches_snapshot(self) -> dict:
        """Hit/miss/eviction stats for every cache tier.

        ``fragment`` is the line-outcome memo: one probe per distinct
        line of an in-process estimation request or of an explain
        context.  It and the estimator's matcher memo are bumped
        under the estimator lock; their counters are plain ints and
        reading ints/lens is atomic, so the snapshot skips that lock —
        ``/metrics`` must answer even while a big batch holds it.
        ``parse`` always reads zeros: the estimator keeps no parse
        memo, and the key stays because the schema is additive.
        """
        with self._cache_lock:
            response = self._response_cache.stats()
        return {
            "parse": self._estimator.parse_cache_stats(),
            "matcher": self._estimator.matcher.cache_stats(),
            "response": response,
            "fragment": self._line_memo.stats(),
        }

    def metrics_snapshot(self) -> dict:
        body = self.metrics.snapshot()
        body["caches"] = self.caches_snapshot()
        body["workers"] = self.config.workers
        # Which process answered: with --procs N each worker serves
        # its own counters, so scrapers must aggregate by worker_id
        # (the load harness does; see docs/operations.md).
        body["server"] = {
            "worker_id": self.config.worker_id,
            "pid": os.getpid(),
            "procs": self.config.procs,
        }
        body["connections"] = self.connections.snapshot()
        body["resilience"] = self.resilience_snapshot()
        return body
