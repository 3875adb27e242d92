"""``batch-cold``: a corpus through a fresh two-worker engine, pass by pass.

Each pass is a fresh process (:mod:`batch_sut`), so every pass pays
the engine's set-up and starts with cold memos, as a fresh
``repro batch --workers 2`` does.  Passes repeat until the run's time
is used up (at least :data:`MIN_PASSES`).  Before them, the same
corpus runs through an in-process ``workers=1`` engine: every pass's
estimates must equal that reference recipe by recipe, and the
reference's §III calorie error is reported next to the paper's.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import inputs
from common import (
    BENCH_DIR, OUT, PAPER_MAE_KCAL, Outcome, child_env, median, percentile,
    recipe_digest, use_program, wait_gone,
)

MIN_PASSES = 3
#: A pass that takes longer than this is a hang, not a slow pass.
PASS_TIMEOUT_S = 120


def _run_pass(corpus, index: int, traced: bool) -> dict:
    result_path = OUT / f"batch-cold-pass{index}.json"
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(BENCH_DIR / "batch_sut.py"),
        "--corpus", str(corpus), "--result", str(result_path),
    ]
    spans_path = OUT / f"batch-cold-pass{index}.spans.jsonl"
    if traced:
        cmd += ["--trace", "--spans", str(spans_path)]
    launched = time.perf_counter()
    proc = subprocess.run(
        cmd, env=child_env(), cwd=str(BENCH_DIR.parent),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        return {"ok": False}
    result = json.loads(result_path.read_text())
    # The pool's processes outlive the pass process by a moment.
    result["ok"] = wait_gone(result["pool_pids"])
    result["setup_s"] = result["ready"] - launched
    result["wall_s"] = result["end"] - result["start"]
    result["traced"] = traced
    result["spans_path"] = str(spans_path)
    return result


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    use_program()
    from repro.eval.gold import select_evaluation_recipes
    from repro.eval.metrics import calorie_error_report
    from repro.pipeline.engine import ShardedCorpusEstimator
    from repro.recipedb.corpus import save_recipes_jsonl

    OUT.mkdir(parents=True, exist_ok=True)
    corpus = inputs.batch_corpus(seed)
    path = OUT / "batch-cold.jsonl"
    save_recipes_jsonl(corpus.recipes, path)
    with ShardedCorpusEstimator(workers=1) as reference_engine:
        reference = reference_engine.estimate_corpus(path)
    expected = [recipe_digest(e) for e in reference]
    mae, _ = calorie_error_report(
        select_evaluation_recipes(corpus.recipes, reference)
    )
    del reference

    outcome = Outcome()
    passes = []
    deadline = time.perf_counter() + seconds
    attempt = 0
    wanted = MIN_PASSES + trace
    while time.perf_counter() < deadline or (
        len(passes) < wanted and attempt < 2 * wanted
    ):
        # In a traced run, passes alternate untraced / traced.
        result = _run_pass(path, attempt, trace and len(passes) % 2 == 1)
        attempt += 1
        outcome.attempted += len(expected)
        if not result["ok"]:
            outcome.failed += len(expected)
            continue
        mismatched = sum(
            a != b for a, b in zip(result["digests"], expected)
        ) + abs(len(result["digests"]) - len(expected))
        outcome.failed += mismatched
        passes.append(result)
    outcome.checks["passes_completed"] = len(passes) >= MIN_PASSES
    outcome.checks["two_pool_workers"] = all(
        len(p["pool_pids"]) >= 2 for p in passes
    )
    outcome.checks["no_retries"] = all(p["retries"] == 0 for p in passes)

    untraced = [p for p in passes if not p["traced"]]
    lines = corpus.shape["lines"]
    wall = median([p["wall_s"] for p in untraced])

    def per_pass(q):
        return median([percentile(p["done_ms"], q) for p in untraced])

    outcome.metrics = {
        "setup_s": median([p["setup_s"] for p in untraced]),
        "lines_per_s": median([lines / p["wall_s"] for p in untraced]),
        "capacity_rps": median([len(expected) / p["wall_s"] for p in untraced]),
        "p50_ms": per_pass(0.50),
        "p90_ms": per_pass(0.90),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
        "calorie_mae_kcal": mae.mean_abs_error,
    }
    outcome.notes += [
        f"corpus shape: {corpus.shape}",
        f"passes: {len(passes)} ({len(untraced)} untraced), median pass "
        f"{wall:.3f} s; recipe latency = time from pass start until the "
        f"recipe's estimate is yielded, percentiles per pass, median over "
        f"passes ({len(expected)} samples a pass)",
        f"calorie MAE {mae.mean_abs_error:.2f} kcal over {mae.n_recipes} "
        f"fully mapped recipes (paper: {PAPER_MAE_KCAL})",
    ]
    if trace:
        traced = [p for p in passes if p["traced"]]
        layers: dict[str, float] = {}
        for name in traced[0]["layers"]:
            layers[name] = sum(p["layers"][name] for p in traced) / len(traced)
        layers["trace.overhead_ratio"] = (
            median([p["wall_s"] for p in traced]) / wall - 1.0
        )
        outcome.layers = layers
        outcome.notes.append(
            "worker-side spans come from wrappers the pool workers inherit "
            "by fork; each worker appends its spans per task to a file the "
            "pass merges. Spans of the last traced pass: "
            f"{traced[-1]['spans_path']}"
        )
    return outcome
