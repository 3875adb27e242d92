"""Matcher/estimation throughput — the perf tentpole benchmarks.

Measures, on synthetic recipe corpora of 100 / 1,000 / 10,000
ingredient lines (100 only in smoke mode):

* matcher construction time (description preprocessing + index build),
* uncached single-line match throughput through the inverted index
  (PR 1), against a faithful reimplementation of the seed O(|DB|)
  linear scan — the speedup denominator,
* end-to-end batch estimation throughput (the seed's two-pass
  incremental batch loop, :func:`_seed_batch`, shared parse/match
  caches),
* **worker scaling** (PR 2, reshaped by ISSUE 9): the sharded
  two-phase corpus engine at 1 / 2 / 4 workers on a large
  duplication-saturated corpus — pinned chunk size, warm pool,
  ``force_pool=True`` so every count pays the same pool cost.
  Floors: >= 2x the single-process batch path at the top worker
  count, the single-process columnar table >= 1.5x a per-line
  loop over the same two-phase protocol, and a
  monotonic non-regression gate (N workers >= 0.9x the best smaller
  count, up to the host's core count) that also runs in CI smoke
  mode,
* **duplicate collapse**: the two-phase protocol
  (``corpus_estimate_table``) over the collapsed distinct-line table
  vs one ``(text, 1)`` item per occurrence, on the high-reuse Zipf
  corpus (distinct/total ≈ 0.15), outputs asserted equal, floor
  >= 2x — enforced in smoke mode too,
* **perceptron emissions** (PR 2): the vectorized interned-feature
  emission path against the dict-based reference loop.

Emits ``results/BENCH_throughput.json`` so the perf trajectory is
tracked from PR 1 onward.

Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_throughput.py -q
    PYTHONPATH=src python benchmarks/bench_throughput.py   # standalone
    REPRO_BENCH_SMOKE=1 ...                                # CI smoke
    REPRO_BENCH_WORKERS=1,2 ...                            # scaling series
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter

from conftest import (
    BENCH_CHUNK_SIZE,
    BENCH_WORKER_COUNTS,
    high_reuse_corpus,
    write_result,
)

from repro import (
    NutritionEstimator,
    RecipeGenerator,
    ShardedCorpusEstimator,
    load_default_database,
)
from repro.core.estimator import STATUS_FULL, STATUS_NAME_ONLY
from repro.matching.jaccard import modified_jaccard, vanilla_jaccard
from repro.matching.matcher import DescriptionMatcher, MatcherConfig
from repro.matching.preprocess import preprocess_description, preprocess_words
from repro.matching.types import MatchResult
from repro.ner import AveragedPerceptronTagger
from repro.ner.features import extract_features
from repro.recipedb.generator import GeneratorConfig
from repro.text.lemmatizer import WordNetStyleLemmatizer
from repro.units.fallback import UnitFallback

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
SCALES: tuple[int, ...] = (100,) if SMOKE else (100, 1000, 10000)
#: Acceptance floor for indexed vs. linear uncached matching.
MIN_SPEEDUP = 2.0 if SMOKE else 5.0

#: Worker counts for the sharded-engine scaling series — pinned in
#: ``conftest`` (identical in smoke and full mode) so the recorded
#: series stay comparable across revisions.
WORKER_COUNTS: tuple[int, ...] = BENCH_WORKER_COUNTS
#: Corpus shape for the scaling series.  ``line_reuse`` gives the
#: corpus the Zipf-style verbatim-line duplication of scraped corpora
#: (RecipeDB/AllRecipes repeat "1 teaspoon salt" thousands of times) —
#: precisely the workload the two-phase distinct-line protocol exists
#: for; the duplication factor achieved is recorded in the report.
SCALING_RECIPES = 400 if SMOKE else 12000
SCALING_LINE_REUSE = 0.8
#: Acceptance floor: top-worker-count engine vs the single-process
#: batch path.  Only enforced in full mode — the smoke corpus is too
#: small to amortize pool startup and IPC.
MIN_WORKER_SPEEDUP = 2.0
#: Acceptance floor: single-process columnar two-phase table vs a
#: per-line loop (:func:`_per_line_table`) on the same corpus, under the paper's
#: trained-perceptron configuration (full mode only; the smoke
#: corpus is too small for stable stage timings).
MIN_COLUMNAR_SPEEDUP = 1.5
#: Acceptance floor: the two-phase protocol over the collapsed
#: distinct-line table vs one item per occurrence on the
#: high-reuse Zipf corpus (distinct/total ≈ 0.15).  Enforced in smoke
#: mode too — the win is per-line work skipped, which does not need a
#: large corpus to show.
MIN_DEDUP_SPEEDUP = 2.0
#: Worker-scaling non-regression gate: adding workers may never cost
#: more than this fraction of the best smaller-count throughput.
#: Enforced in smoke mode too (the CI job fails on a violation), but
#: only for counts the host can actually run in parallel — entries
#: with ``workers > host_cores`` measure oversubscription, not
#: scaling, and are recorded without being gated.
SCALING_REGRESSION_FLOOR = 0.9


class SeedLinearMatcher:
    """The seed matcher's per-query O(|DB|) scan, cost-faithfully.

    No lemma memoization, a fresh set intersection per description —
    exactly the work profile the inverted index replaced (seed
    baseline: ~0.18 ms/line on the embedded 338-food database).
    """

    def __init__(self, db, config: MatcherConfig | None = None):
        self.config = config or MatcherConfig()
        self.lemmatizer = WordNetStyleLemmatizer(db.vocabulary())
        self.foods = list(db)
        self.descriptions = [
            preprocess_description(f.description, self.lemmatizer)
            for f in db
        ]

    def match(self, name, state="", temperature="", dry_fresh=""):
        parts = " ".join(
            p for p in (name, state, temperature, dry_fresh) if p
        )
        query = frozenset(preprocess_words(parts, self.lemmatizer))
        if not query:
            return None
        raw_pref = self.config.raw_bonus and not state.strip()
        name_words = frozenset(preprocess_words(name, self.lemmatizer))
        best: MatchResult | None = None
        for index, (food, desc) in enumerate(
            zip(self.foods, self.descriptions)
        ):
            matched = query & desc.words
            if not matched:
                continue
            if name_words and not (matched & name_words):
                continue
            if self.config.use_modified_jaccard:
                score = modified_jaccard(query, desc.words)
            else:
                score = vanilla_jaccard(query, desc.words)
            if score < self.config.min_score:
                continue
            candidate = MatchResult(
                food=food,
                score=score,
                priority=sum(desc.term_priority[w] for w in matched)
                / len(matched),
                db_index=index,
                query_words=query,
                matched_words=frozenset(matched),
                raw_added=raw_pref and desc.has_raw,
            )
            if best is None or self._better(candidate, best):
                best = candidate
        return best

    def _better(self, a, b):
        if a.score != b.score:
            return a.score > b.score
        if self.config.priority_tiebreak and a.priority != b.priority:
            return a.priority < b.priority
        if a.raw_added != b.raw_added:
            return a.raw_added
        return a.db_index < b.db_index


def _corpus_lines(n_lines: int):
    """(recipes, parsed query tuples) totalling exactly *n_lines*."""
    generator = RecipeGenerator(config=GeneratorConfig(seed=7))
    recipes = []
    lines: list[str] = []
    while len(lines) < n_lines:
        for recipe in generator.generate(max(8, n_lines // 6)):
            recipes.append(recipe)
            lines.extend(recipe.ingredient_texts)
            if len(lines) >= n_lines:
                break
    lines = lines[:n_lines]
    parser = NutritionEstimator()
    queries = []
    for text in lines:
        parsed = parser.parse(text)
        queries.append(
            (parsed.name, parsed.state, parsed.temperature, parsed.dry_fresh)
        )
    return recipes, queries


def _best_of(repeats: int, fn) -> float:
    """Fastest wall time of *repeats* runs of fn() (seconds)."""
    return min(_timed(fn) for _ in range(repeats))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _line_estimator(estimator):
    """``estimate(text, stats)`` one line at a time, each distinct text
    parsed once (a per-text parse memo, as the seed estimator kept)."""
    parses: dict = {}

    def estimate(text, stats=None):
        parsed = parses.get(text)
        if parsed is None:
            parsed = parses[text] = estimator.parse(text)
        return estimator._estimate_from_parsed(parsed, stats)

    return estimate


def _seed_batch(recipes, passes: int = 2) -> list:
    """The seed's batch path — the throughput baseline.

    Every pass estimates every recipe line by line against one
    most-frequent-unit table that each resolved line updates as it
    goes, so earlier passes populate the table the last pass reads.
    Returns the last pass's recipe estimates.
    """
    estimator = NutritionEstimator()
    estimate = _line_estimator(estimator)
    table = UnitFallback(estimator.max_grams)
    results: list = []
    for _ in range(passes):
        results = []
        for recipe in recipes:
            lines = []
            for text in recipe.ingredient_texts:
                line = estimate(text, table)
                if line.status == STATUS_FULL:
                    table.observe(line.parsed.name, line.resolution.unit)
                lines.append(line)
            results.append(
                estimator.finish_recipe(lines, recipe.servings)
            )
    return results


def _per_line_table(estimator, counts: dict[str, int]) -> dict:
    """The two-phase protocol as a per-line loop — the reference the
    columnar table is timed against."""
    estimate = _line_estimator(estimator)
    stats = UnitFallback(estimator.max_grams)
    table = {}
    for text, count in counts.items():
        table[text] = line = estimate(text)
        if line.status == STATUS_FULL:
            stats.observe(line.parsed.name, line.resolution.unit, count)
    for text, line in list(table.items()):
        if line.status == STATUS_NAME_ONLY:
            table[text] = estimate(text, stats)
    return table


def bench_worker_scaling() -> dict:
    """Sharded corpus engine at several worker counts vs the
    single-process paths on the same corpus.

    Every engine run is shaped identically — pinned chunk size, a
    warm pool (``ensure_pool()`` before the clock starts, and
    ``force_pool=True`` so ``workers=1`` pays the same pool/IPC cost
    as the multi-worker entries instead of taking the in-process
    shortcut) — so the series measures *scaling*, not pool startup."""
    generator = RecipeGenerator(
        config=GeneratorConfig(seed=7, line_reuse=SCALING_LINE_REUSE)
    )
    recipes = generator.generate(SCALING_RECIPES)
    n_lines = sum(len(r.ingredient_texts) for r in recipes)
    counts: dict[str, int] = {}
    for recipe in recipes:
        for text in recipe.ingredient_texts:
            counts[text] = counts.get(text, 0) + 1

    batch_s = _timed(lambda: _seed_batch(recipes))
    batch_rate = n_lines / batch_s

    # Single-process two-phase table: per-line loop vs columnar,
    # under both taggers.  The trained perceptron is the paper's
    # configuration and carries the acceptance floor — its batched
    # Viterbi path is where the columnar restructure pays most; the
    # rule-tagger pair is recorded as the lower-bound trajectory.
    n_train, epochs = (150, 2) if SMOKE else (600, 4)
    phrases = [
        i.tagged
        for i in RecipeGenerator(
            config=GeneratorConfig(seed=3)
        ).generate_phrases(n_train)
    ]
    perceptron = AveragedPerceptronTagger()
    perceptron.train(phrases, epochs=epochs)

    def table_pair(tagger) -> dict:
        per_line_s = _best_of(
            2,
            lambda: _per_line_table(NutritionEstimator(tagger=tagger), counts),
        )
        columnar_s = _best_of(
            2,
            lambda: NutritionEstimator(tagger=tagger).corpus_estimate_table(
                counts
            ),
        )
        return {
            "per_line_lines_per_sec": round(n_lines / per_line_s),
            "columnar_lines_per_sec": round(n_lines / columnar_s),
            "columnar_speedup": round(per_line_s / columnar_s, 2),
        }

    series = []
    for workers in WORKER_COUNTS:
        with ShardedCorpusEstimator(
            workers=workers,
            chunk_size=BENCH_CHUNK_SIZE,
            force_pool=True,
        ) as engine:
            engine.ensure_pool()
            elapsed = _timed(lambda: engine.estimate_corpus(recipes))
        rate = n_lines / elapsed
        series.append({
            "workers": workers,
            "corpus_lines_per_sec": round(rate),
            "speedup_vs_single_process_batch": round(rate / batch_rate, 2),
        })

    return {
        "recipes": len(recipes),
        "lines": n_lines,
        "distinct_lines": len(counts),
        "line_reuse": SCALING_LINE_REUSE,
        "duplication_factor": round(n_lines / len(counts), 2),
        "chunk_size": BENCH_CHUNK_SIZE,
        "host_cores": os.cpu_count() or 1,
        "single_process_batch_lines_per_sec": round(batch_rate),
        "single_process_table": {
            "rule_tagger": table_pair(None),
            "perceptron": table_pair(perceptron),
        },
        "series_columnar": series,
    }


def assert_scaling_non_regression(series: list[dict], cores: int) -> None:
    """N workers must hold >= ``SCALING_REGRESSION_FLOOR`` x the best
    smaller-count throughput, for every count the host can schedule
    in parallel (oversubscribed counts are recorded, not gated)."""
    best_so_far = 0.0
    for entry in series:
        rate = entry["corpus_lines_per_sec"]
        if entry["workers"] <= cores and best_so_far:
            assert rate >= SCALING_REGRESSION_FLOOR * best_so_far, (
                f"workers={entry['workers']} regressed: {rate} < "
                f"{SCALING_REGRESSION_FLOOR} x best {best_so_far}",
                series,
            )
        best_so_far = max(best_so_far, rate)


def bench_dedup_collapse() -> dict:
    """Duplicate collapse vs one item per occurrence.

    Both runs are the identical single-process two-phase protocol
    (``corpus_estimate_table``) on the high-reuse Zipf corpus; only
    the line table differs — the collapsed distinct-line counts, or
    one ``(text, 1)`` item per occurrence.  The estimator is warmed
    with one untimed pass first so the series measures collapse, not
    estimator cold start — the memo caches are equally warm for both
    tables.  The outputs are asserted equal — the speedup is pure
    skipped work, never changed results."""
    recipes = high_reuse_corpus()
    occurrences = [(t, 1) for r in recipes for t in r.ingredient_texts]
    n_lines = len(occurrences)
    tables = {
        "dedup": list(Counter(t for t, _ in occurrences).items()),
        "no_dedup": occurrences,
    }
    distinct = len(tables["dedup"])

    estimator = NutritionEstimator()
    elapsed: dict[str, float] = {}
    estimates: dict[str, dict] = {}
    for label, items in tables.items():
        estimates[label] = estimator.corpus_estimate_table(items)
        elapsed[label] = _best_of(
            2, lambda: estimator.corpus_estimate_table(items)
        )
    # Bit-identical output is part of the measurement's contract.
    assert estimates["dedup"] == estimates["no_dedup"]
    return {
        "recipes": len(recipes),
        "lines": n_lines,
        "distinct_lines": distinct,
        "distinct_ratio": round(distinct / n_lines, 3),
        "dedup_lines_per_sec": round(n_lines / elapsed["dedup"]),
        "no_dedup_lines_per_sec": round(n_lines / elapsed["no_dedup"]),
        "dedup_speedup": round(elapsed["no_dedup"] / elapsed["dedup"], 2),
    }


def bench_perceptron_emissions() -> dict:
    """Vectorized interned-feature emissions vs the dict reference."""
    n_train, epochs, n_test = (150, 2, 60) if SMOKE else (600, 4, 300)
    generator = RecipeGenerator(config=GeneratorConfig(seed=3))
    phrases = [i.tagged for i in generator.generate_phrases(n_train)]
    tagger = AveragedPerceptronTagger()
    tagger.train(phrases, epochs=epochs)
    test = [
        i.tagged
        for i in RecipeGenerator(
            config=GeneratorConfig(seed=4)
        ).generate_phrases(n_test)
    ]
    features = [extract_features(p.tokens) for p in test]

    def run(emit):
        for feats in features:
            emit(feats)

    vec_s = _best_of(3, lambda: run(tagger._emissions))
    ref_s = _best_of(3, lambda: run(tagger._emissions_reference))
    return {
        "trained_features": len(tagger._feature_ids),
        "phrases": len(test),
        "dict_us_per_phrase": round(ref_s / len(test) * 1e6, 2),
        "vectorized_us_per_phrase": round(vec_s / len(test) * 1e6, 2),
        "speedup": round(ref_s / vec_s, 2),
    }


def run_benchmark() -> dict:
    db = load_default_database()

    build_times = [
        _timed(lambda: DescriptionMatcher(db)) for _ in range(5)
    ]
    matcher = DescriptionMatcher(db)
    linear = SeedLinearMatcher(db)

    # Dict-backed exact-description lookup roundtrip (sanity anchor).
    anchor = matcher.match("butter")
    assert db.by_description(anchor.description) is anchor.food

    report: dict = {
        "benchmark": "bench_throughput",
        "smoke": SMOKE,
        "db_foods": len(db),
        "index_vocabulary": matcher.index.vocabulary_size,
        "matcher_build_ms_median": round(
            statistics.median(build_times) * 1000, 3
        ),
        "scales": [],
    }

    for n_lines in SCALES:
        recipes, queries = _corpus_lines(n_lines)
        unique = list(dict.fromkeys(queries))

        def indexed_pass():
            matcher.clear_cache()
            for q in unique:
                matcher.match(*q)

        def linear_pass():
            for q in unique:
                linear.match(*q)

        indexed_s = _best_of(3, indexed_pass)
        linear_s = _best_of(3 if n_lines <= 1000 else 1, linear_pass)

        def batch_pass():
            _seed_batch(recipes)

        batch_s = _timed(batch_pass)
        n_batch_lines = 2 * sum(len(r.ingredient_texts) for r in recipes)

        indexed_ms = indexed_s / len(unique) * 1000
        linear_ms = linear_s / len(unique) * 1000
        report["scales"].append({
            "lines": n_lines,
            "unique_queries": len(unique),
            "indexed_uncached_ms_per_line": round(indexed_ms, 5),
            "linear_uncached_ms_per_line": round(linear_ms, 5),
            "speedup": round(linear_ms / indexed_ms, 2),
            "batch_two_pass_lines_per_sec": round(
                n_batch_lines / max(batch_s, 1e-9)
            ),
        })

    # Parity spot check at the largest scale: the index must agree
    # with the seed scan on every benchmarked query (the exhaustive
    # version lives in tests/test_matching_index.py).
    matcher.clear_cache()
    for q in list(dict.fromkeys(queries))[:200]:
        fast, slow = matcher.match(*q), linear.match(*q)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert fast == slow, q

    report["worker_scaling"] = bench_worker_scaling()
    report["dedup_collapse"] = bench_dedup_collapse()
    report["perceptron_emissions"] = bench_perceptron_emissions()
    return report


def test_throughput():
    report = run_benchmark()
    write_result("BENCH_throughput.json", json.dumps(report, indent=2))
    for scale in report["scales"]:
        assert scale["speedup"] >= MIN_SPEEDUP, scale
        assert scale["batch_two_pass_lines_per_sec"] > 0
    scaling = report["worker_scaling"]
    cores = scaling["host_cores"]
    series = scaling["series_columnar"]
    assert len(series) == len(WORKER_COUNTS)
    assert all(s["corpus_lines_per_sec"] > 0 for s in series)
    # The regression gate runs in smoke mode too: the CI smoke job
    # fails the build on a scaling violation.
    assert_scaling_non_regression(series, cores)
    assert report["perceptron_emissions"]["speedup"] > 1.0
    # Duplicate-collapse floor: enforced in smoke mode too (the CI
    # smoke job fails the build if collapse stops paying).
    dedup = report["dedup_collapse"]
    assert dedup["distinct_ratio"] <= 0.25, dedup
    assert dedup["dedup_speedup"] >= MIN_DEDUP_SPEEDUP, dedup
    if not SMOKE:
        columnar = scaling["series_columnar"]
        top = max(columnar, key=lambda s: s["workers"])
        assert (
            top["speedup_vs_single_process_batch"] >= MIN_WORKER_SPEEDUP
        ), scaling
        assert (
            scaling["single_process_table"]["perceptron"]["columnar_speedup"]
            >= MIN_COLUMNAR_SPEEDUP
        ), scaling
        if cores >= top["workers"]:
            single = next(s for s in columnar if s["workers"] == 1)
            assert (
                top["corpus_lines_per_sec"]
                >= single["corpus_lines_per_sec"]
            ), scaling


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        default=None,
        help="comma-separated worker counts for the scaling series "
             "(overrides REPRO_BENCH_WORKERS)",
    )
    cli_args = parser.parse_args()
    if cli_args.workers:
        WORKER_COUNTS = tuple(
            int(w) for w in cli_args.workers.split(",") if w.strip()
        )
    result = run_benchmark()
    path = write_result("BENCH_throughput.json", json.dumps(result, indent=2))
    print(json.dumps(result, indent=2))
    print(f"wrote {path}")
