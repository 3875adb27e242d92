"""In-memory spans around the program's public calls.

The benchmark never edits the program.  A traced run replaces chosen
module attributes and class methods of the checkout's ``repro``
package with wrappers (:func:`install_batch`, :func:`install_service`)
that record one span per call: ``(id, parent id, name, start ns, end
ns)``, parented through a per-thread stack.  Spans stay in memory and
are written out when the run ends (:func:`write_spans`).

A layer's *self time* is its spans' durations minus the parts their
child spans cover (:func:`self_times`), so the self times under one
root sum exactly to the root's duration; what the root keeps for
itself is time no wrapped call claimed.

Pool workers of the batch engine are forked from a process whose
wrappers are already installed, so they inherit them.
:meth:`Tracer.after_fork` empties the inherited span list in the
child, and the wrapped task handlers append each task's spans, plus
the worker's memo-cache counters, to a per-worker file that the
coordinator merges after the run.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Span of the batch coordinator that the analysis splits at the
#: phase-boundary digest into ``pipeline.phase1`` / ``pipeline.phase3``.
RUN_POOL = "pipeline.run_pool"


class Tracer:
    """Span and counter store for one process."""

    def __init__(self, worker_dir: Path | None = None):
        self.spans: list[tuple] = []
        self.counters: Counter[str] = Counter()
        self.worker_dir = worker_dir
        self._local = threading.local()
        self._ids = itertools.count(1)

    def after_fork(self) -> None:
        """Child side of a fork: drop what the parent recorded."""
        self.spans.clear()
        self.counters.clear()
        self._local.stack = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def wrap(self, fn, name: str, count=None):
        """*fn* recording one span per call; ``count(args)`` -> (key, n)."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        counters = self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                key, n = count(args)
                counters[key] += n
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))

        return traced

    def wrap_iter(self, fn, name: str):
        """*fn* returning an iterator whose every ``next`` is a span."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter_ns

        def pull(iterator):
            while True:
                stack = stack_of()
                sid = next(ids)
                parent = stack[-1] if stack else 0
                t0 = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    spans.append((sid, parent, name, t0, clock()))
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return pull(iter(fn(*args, **kwargs)))

        return traced

    def flush_worker(self, caches: dict) -> None:
        """Append this worker's spans since the last flush to its file."""
        record = {
            "pid": os.getpid(),
            "spans": self.spans[:],
            "counters": dict(self.counters),
            "caches": caches,
        }
        self.spans.clear()
        self.counters.clear()
        path = self.worker_dir / f"worker-{os.getpid()}.jsonl"
        with path.open("a") as fh:
            fh.write(json.dumps(record) + "\n")

    def records(self) -> list[dict]:
        """This process's spans as one record (same shape as workers')."""
        return [{
            "pid": os.getpid(),
            "spans": self.spans[:],
            "counters": dict(self.counters),
        }]


def write_spans(path: Path, records: list[dict]) -> None:
    """One JSON line per process record: pid, spans, counters."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def read_worker_records(worker_dir: Path) -> list[dict]:
    records = []
    for path in sorted(worker_dir.glob("worker-*.jsonl")):
        with path.open() as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return records


def global_spans(records: list[dict]) -> list[tuple]:
    """Spans keyed ``(pid, id)`` so ids from many processes never clash."""
    out = []
    for record in records:
        pid = record["pid"]
        for sid, parent, name, t0, t1 in record["spans"]:
            out.append(
                ((pid, sid), (pid, parent) if parent else None, name, t0, t1)
            )
    return out


def self_times(spans: list[tuple]) -> dict[str, list[int]]:
    """name -> [self ns, calls] over globally keyed spans."""
    covered: dict = defaultdict(int)
    for _key, parent, _name, t0, t1 in spans:
        if parent is not None:
            covered[parent] += t1 - t0
    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for key, _parent, name, t0, t1 in spans:
        agg = totals[name]
        agg[0] += (t1 - t0) - covered.get(key, 0)
        agg[1] += 1
    return totals


class Patcher:
    """Replaces attributes and restores the originals."""

    def __init__(self):
        self._undo: list = []

    def attr(self, owner, name: str, make) -> None:
        """Set ``owner.name`` to ``make(original function)``."""
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(
            owner, name
        )
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, name, new)
        self._undo.append(lambda: setattr(owner, name, raw))

    def item(self, mapping: dict, key, make) -> None:
        raw = mapping[key]
        mapping[key] = make(raw)
        self._undo.append(lambda: mapping.__setitem__(key, raw))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _layer_targets():
    """(owner, attribute, span name, count) shared by every workload."""
    from repro.core import columnar, estimator
    from repro.core.estimator import NutritionEstimator
    from repro.matching.matcher import DescriptionMatcher
    from repro.ner.rule_tagger import RuleBasedTagger
    from repro.units.fallback import UnitFallback

    def fallback_lines(args):
        return "core.fallback_lines", len(args[1])

    return [
        (columnar, "tokenize_fast", "text.tokenize", None),
        (estimator, "tokenize", "text.tokenize", None),
        (RuleBasedTagger, "predict", "ner.tag", None),
        (RuleBasedTagger, "predict_batch", "ner.tag", None),
        (DescriptionMatcher, "match", "matching.match", None),
        (DescriptionMatcher, "match_chunk", "matching.match", None),
        (estimator, "run_unit_chain", "units.chain", None),
        (NutritionEstimator, "corpus_collect_estimates", "core.collect", None),
        (NutritionEstimator, "corpus_fallback_estimates", "core.fallback",
         fallback_lines),
        (NutritionEstimator, "finish_recipe", "core.finish_recipe", None),
        (UnitFallback, "merge", "units.merge", None),
    ]


def install_batch(tracer: Tracer) -> Patcher:
    """Wrap the layers the sharded batch engine drives."""
    from repro.pipeline import engine
    from repro.pipeline.engine import ShardedCorpusEstimator
    from repro.pipeline.supervisor import SupervisedWorkerPool

    def wire_bytes(args):
        return "pipeline.wire_bytes", len(args[0])

    patcher = Patcher()
    targets = _layer_targets() + [
        (engine, "snapshot_digest", "units.digest", None),
        (engine, "dumps_estimates", "pipeline.wire_encode", None),
        (engine, "loads_estimates", "pipeline.wire_decode", wire_bytes),
        (ShardedCorpusEstimator, "_line_table", "pipeline.collapse", None),
        (ShardedCorpusEstimator, "ensure_pool", "pipeline.pool_spawn", None),
        (ShardedCorpusEstimator, "_run_pool", RUN_POOL, None),
    ]
    for owner, attr, name, count in targets:
        patcher.attr(
            owner, attr,
            lambda fn, name=name, count=count: tracer.wrap(fn, name, count),
        )
    patcher.attr(
        engine, "iter_recipes_jsonl",
        lambda fn: tracer.wrap_iter(fn, "recipedb.ingest"),
    )
    patcher.attr(
        SupervisedWorkerPool, "run",
        lambda fn: tracer.wrap_iter(fn, "pipeline.wait"),
    )

    def traced_handler(handler):
        def run_task(state, payload, task_id, attempt):
            try:
                with tracer.span("pipeline.worker_task"):
                    return handler(state, payload, task_id, attempt)
            finally:
                estimator = state.estimator
                tracer.flush_worker({
                    "parse": estimator.parse_cache_stats(),
                    "matcher": estimator.matcher.cache_stats(),
                })
        return run_task

    for kind in list(engine._HANDLERS):
        patcher.item(engine._HANDLERS, kind, traced_handler)
    return patcher


def install_service(tracer: Tracer) -> Patcher:
    """Wrap the layers one ``repro serve`` process drives."""
    import dataclasses

    from repro.service import codec, handlers, state
    from repro.service.state import ServiceState

    patcher = Patcher()
    targets = _layer_targets() + [
        (state, "snapshot_digest", "units.digest", None),
        (ServiceState, "estimate", "service.handler", None),
        (codec, "dumps_ingredient_fragment", "service.render", None),
        (codec, "assemble_recipe_estimate_bytes", "service.render", None),
    ]
    for owner, attr, name, count in targets:
        patcher.attr(
            owner, attr,
            lambda fn, name=name, count=count: tracer.wrap(fn, name, count),
        )
    patcher.item(
        handlers.ENDPOINTS, ("POST", "/v1/estimate"),
        lambda endpoint: dataclasses.replace(
            endpoint,
            validate=tracer.wrap(endpoint.validate, "service.validate"),
        ),
    )
    return patcher
