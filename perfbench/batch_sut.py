"""One ``batch-cold`` pass in a fresh process, like a fresh ``repro batch``.

Builds ``ShardedCorpusEstimator(workers=2)`` and spawns its pool (the
set-up), then streams the corpus through it once, noting when each
recipe estimate becomes available.  Writes a JSON result: set-up and
pass timestamps (``time.perf_counter``, the system-wide monotonic
clock, so the parent can difference them with its own), per-recipe
digests, peak RSS of this process and its pool, and with ``--trace``
the per-layer self times of the coordinator and both workers.

    python3 perfbench/batch_sut.py --corpus C.jsonl --result R.json [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import time
from pathlib import Path

from common import (
    OUT, child_pids, peak_rss_mb, recipe_digest, use_program, write_json,
)

WORKERS = 2


def restructure(spans: list[tuple], pid: int) -> list[tuple]:
    """Split the coordinator's pool run into its phases and the fan-out.

    ``pipeline.run_pool`` becomes ``pipeline.phase1`` up to the end of
    the phase-boundary ``units.digest`` and ``pipeline.phase3`` after
    it; the rest of the pass after the estimate table is
    ``pipeline.fanout``.  Spans are re-parented by start time, which is
    exact on the single-threaded coordinator.
    """
    from tracer import RUN_POOL

    root = next(s for s in spans if s[2] == "batch.pass")
    run = next(s for s in spans if s[2] == RUN_POOL)
    digest = next(
        s for s in spans if s[2] == "units.digest" and s[1] == run[0]
    )
    phase3_key = (pid, -1)
    fanout_key = (pid, -2)
    out = []
    for key, parent, name, t0, t1 in spans:
        if key == run[0]:
            out.append((key, parent, "pipeline.phase1", t0, digest[4]))
            continue
        if parent == run[0] and t0 >= digest[4]:
            parent = phase3_key
        elif parent == root[0] and t0 >= run[4]:
            parent = fanout_key
        out.append((key, parent, name, t0, t1))
    out.append((phase3_key, run[1], "pipeline.phase3", digest[4], run[4]))
    out.append((fanout_key, root[0], "pipeline.fanout", run[4], root[4]))
    return out


def layer_metrics(records: list[dict], pid: int) -> dict:
    from tracer import global_spans, self_times

    spans = restructure(global_spans(records), pid)
    totals = self_times(spans)
    layers: dict[str, float] = {}
    for name, (ns, calls) in totals.items():
        layers[f"{name}_s"] = ns / 1e9
        layers[f"{name}_calls"] = calls
    root = next(s for s in spans if s[2] == "batch.pass")
    wall_ns = root[4] - root[3]
    layers["trace.wall_s"] = wall_ns / 1e9
    layers["trace.unattributed_share"] = totals["batch.pass"][0] / wall_ns
    counters: dict[str, int] = {}
    caches: dict[int, dict] = {}
    for record in records:
        for key, value in record["counters"].items():
            counters[key] = counters.get(key, 0) + value
        if "caches" in record:
            caches[record["pid"]] = record["caches"]
    layers["pipeline.wire_bytes"] = counters.get("pipeline.wire_bytes", 0)
    layers["core.fallback_lines"] = counters.get("core.fallback_lines", 0)
    for cache, metric in (
        ("matcher", "matching.cache_hit_ratio"),
        ("parse", "core.parse_cache_hit_ratio"),
    ):
        hits = sum(c[cache]["hits"] for c in caches.values())
        misses = sum(c[cache]["misses"] for c in caches.values())
        layers[metric] = hits / (hits + misses) if hits + misses else 0.0
    return layers


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default="")
    args = parser.parse_args()

    use_program()
    from repro.pipeline.engine import ShardedCorpusEstimator

    tracer = patcher = None
    if args.trace:
        from tracer import Tracer, install_batch

        worker_dir = OUT / f"workers-{os.getpid()}"
        shutil.rmtree(worker_dir, ignore_errors=True)
        worker_dir.mkdir(parents=True)
        tracer = Tracer(worker_dir)
        os.register_at_fork(after_in_child=tracer.after_fork)
        patcher = install_batch(tracer)

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    with span("batch.setup"):
        engine = ShardedCorpusEstimator(workers=WORKERS)
        engine.ensure_pool()
    ready = time.perf_counter()
    estimates = []
    done = []
    start = time.perf_counter()
    with span("batch.pass"):
        for estimate in engine.iter_corpus_estimates(args.corpus):
            estimates.append(estimate)
            done.append(time.perf_counter())
    end = time.perf_counter()
    pool_pids = child_pids(os.getpid())
    rss = peak_rss_mb(os.getpid()) + sum(peak_rss_mb(p) for p in pool_pids)
    report = engine.last_report
    engine.close()
    result = {
        "ready": ready,
        "start": start,
        "end": end,
        "done_ms": [round((t - start) * 1e3, 3) for t in done],
        "digests": [recipe_digest(e) for e in estimates],
        "peak_rss_mb": rss,
        "pool_pids": pool_pids,
        "total_lines": report.total_lines,
        "distinct_lines": report.distinct_lines,
        "retries": report.retries,
    }
    if tracer is not None:
        from tracer import read_worker_records, write_spans

        patcher.restore()
        records = tracer.records() + read_worker_records(tracer.worker_dir)
        layers = layer_metrics(records, os.getpid())
        layers["pipeline.distinct_ratio"] = (
            report.distinct_lines / report.total_lines
        )
        layers["pipeline.retries"] = report.retries
        result["layers"] = layers
        if args.spans:
            write_spans(Path(args.spans), records)
        shutil.rmtree(tracer.worker_dir, ignore_errors=True)
    write_json(Path(args.result), result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
