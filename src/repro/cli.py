"""Command-line interface.

Subcommands::

    python -m repro estimate --servings 4 "2 cups flour" "1 tsp salt"
    python -m repro parse "1 small onion , finely chopped"
    python -m repro match "red lentils" --state rinsed --explain
    python -m repro explain "1 garlic" --context "2 cloves garlic , minced"
    python -m repro generate --recipes 5 --out corpus.jsonl
    python -m repro batch corpus.jsonl --workers 4 --jsonl --reasons
    python -m repro batch corpus.jsonl --workers 4 --run-dir runs/
    python -m repro batch --resume runs/run-20260807-.../
    python -m repro runs list runs/
    python -m repro build-artifact pipeline.artifact
    python -m repro serve --port 8080 --workers 2 --artifact pipeline.artifact
    python -m repro tables

``explain`` renders one line's full pipeline provenance — NER tags,
description candidates, every §II-C resolution strategy with its
reason code.  ``batch`` runs the two-phase corpus protocol;
``--workers N`` (N > 1) fans it out through the sharded multiprocess
engine, ``--jsonl`` streams the corpus with bounded memory and
``--reasons`` appends the corpus reason-code breakdown (Figure 2's
name-vs-full gap by cause).  ``serve`` stands up the
long-lived HTTP JSON API (``/v1/estimate``, ``/v1/estimate_batch``,
``/v1/match``, ``/v1/parse``, ``/healthz``, ``/metrics`` — see
``docs/api.md``) on a warm shared estimator.  ``build-artifact``
captures everything expensive to construct into one checksummed
snapshot file; ``batch``/``serve`` ``--artifact`` then start every
process — coordinator and sharded workers alike — from that snapshot
instead of rebuilding (see ``docs/operations.md``).

``batch --run-dir ROOT`` makes the run **durable** (:mod:`repro.runs`):
a fresh ``ROOT/<run-id>/`` directory gets a manifest binding corpus,
database and config, a crash-safe chunk journal, and the run's
dead-letter report.  ``batch --resume RUN_DIR`` continues a killed run
from its journal — replaying finished chunks, executing only the
missing ones — with output bit-identical to an uninterrupted run.
SIGINT/SIGTERM exit with code :data:`EXIT_INTERRUPTED` after flushing
the report (the journal is always already on disk); ``repro runs
list``/``show`` inspect run directories.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

from repro.core.coverage import ReasonTally
from repro.core.estimator import STATUS_FULL, NutritionEstimator
from repro.core.explain import explain_line
from repro.matching.explain import explain_match
from repro.pipeline import EstimatorSpec, ShardedCorpusEstimator
from repro.pipeline.engine import (
    DEFAULT_CHUNK_DEADLINE_S,
    DEFAULT_MAX_CHUNK_RETRIES,
)
from repro.recipedb.corpus import (
    iter_recipes_jsonl,
    load_recipes_jsonl,
    recipe_fields_from_line,
    save_recipes_jsonl,
)
from repro.deadletter import REPORT_NAME, write_report_jsonl
from repro.recipedb.generator import GeneratorConfig, RecipeGenerator
from repro.runs import (
    RunError,
    RunManifest,
    iter_run_dirs,
    mark_interrupted,
    new_run_id,
    run_summary,
)
from repro.service import ServiceConfig, serve
from repro.service.state import DEFAULT_RESPONSE_CACHE_CAP
from repro.eval.tables import (
    render_table_i,
    render_table_ii,
    render_table_iii,
    render_table_iv,
)


def _cmd_estimate(args: argparse.Namespace) -> int:
    estimator = NutritionEstimator()
    recipe = estimator.estimate_recipe(args.phrases, servings=args.servings)
    for item in recipe.ingredients:
        description = item.match.description if item.match else "(unmatched)"
        print(f"{item.parsed.text[:46]:48} {item.grams:8.1f} g "
              f"{item.calories:8.1f} kcal  {description[:44]}")
    print()
    for key, value in recipe.per_serving.rounded().items():
        print(f"{key:18} {value:10.2f} per serving")
    return 0


def _cmd_parse(args: argparse.Namespace) -> int:
    estimator = NutritionEstimator()
    for phrase in args.phrases:
        parsed = estimator.parse(phrase)
        print(phrase)
        for token, tag in zip(parsed.tokens, parsed.tags):
            print(f"  {token:20} {tag}")
        print(f"  -> name={parsed.name!r} state={parsed.state!r} "
              f"qty={parsed.quantity!r} unit={parsed.unit!r} "
              f"temp={parsed.temperature!r} df={parsed.dry_fresh!r} "
              f"size={parsed.size!r}")
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    estimator = NutritionEstimator()
    if args.explain:
        explanation = explain_match(
            estimator.matcher, args.name, args.state, k=args.top)
        print(explanation.render())
        return 0 if explanation.winner else 1
    result = estimator.matcher.match(args.name, args.state)
    if result is None:
        print("UNMATCHED")
        return 1
    print(f"{result.description}  (score {result.score:.3f}, "
          f"NDB {result.food.ndb_no})")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Render one line's full pipeline provenance."""
    if args.top < 0:
        print(f"error: --top must be >= 0, got {args.top}")
        return 2
    estimator = NutritionEstimator()
    explanation = explain_line(
        estimator, args.phrase, context=args.context, k=args.top
    )
    print(explanation.render())
    return 0 if explanation.estimate.status == STATUS_FULL else 1


def _spec_from_args(args: argparse.Namespace) -> EstimatorSpec:
    """Estimator spec for commands that accept ``--artifact``."""
    artifact = getattr(args, "artifact", None)
    return EstimatorSpec(artifact_path=artifact or None)


#: Exit code for a batch run stopped by SIGINT/SIGTERM after flushing
#: its journal and dead-letter report.  Distinct from crashes (which
#: the fault harness exits with 70, EX_SOFTWARE): 75 is EX_TEMPFAIL —
#: "try again", which for a durable run means ``batch --resume``.
EXIT_INTERRUPTED = 75


class _Interrupted(Exception):
    """SIGINT/SIGTERM arrived; carries the signal number."""

    def __init__(self, signum: int):
        super().__init__(signum)
        self.signum = signum


def _raise_interrupted(signum, frame):  # noqa: ARG001
    raise _Interrupted(signum)


def _cmd_batch(args: argparse.Namespace) -> int:
    """Estimate a whole JSONL corpus through the batch pipeline."""
    if args.passes < 1:
        print(f"error: --passes must be >= 1, got {args.passes}")
        return 2
    if args.chunk_deadline < 0:
        print(
            "error: --chunk-deadline must be >= 0 (0 disables), got "
            f"{args.chunk_deadline}"
        )
        return 2
    if args.chunk_deadline == 0:
        args.chunk_deadline = None
    if args.max_chunk_retries < 0:
        print(
            f"error: --max-chunk-retries must be >= 0, got "
            f"{args.max_chunk_retries}"
        )
        return 2

    # Durable-run plumbing: --run-dir starts a fresh run in its own
    # ROOT/<run-id>/ directory; --resume continues an existing one,
    # defaulting corpus path and config from the run's manifest so
    # `repro batch --resume RUN_DIR` alone is a complete invocation.
    run_dir: Path | None = None
    resume = False
    if args.resume:
        run_dir = Path(args.resume)
        resume = True
        manifest = RunManifest.load(run_dir)
        if args.path is None:
            args.path = manifest.corpus["path"]
        if args.workers is None:
            args.workers = manifest.config.get("workers", 1)
        if args.chunk_size is None:
            args.chunk_size = manifest.config.get("chunk_size", 512)
        if not args.artifact:
            args.artifact = manifest.database.get("artifact_path") or ""
        if not args.strict and not manifest.config.get("quarantine", True):
            args.strict = True
    elif args.run_dir:
        run_dir = Path(args.run_dir) / new_run_id()
    if args.path is None:
        print("error: a corpus path is required (or --resume RUN_DIR)")
        return 2
    if args.workers is None:
        args.workers = 1
    if args.chunk_size is None:
        args.chunk_size = 512
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}")
        return 2
    if args.chunk_size < 1:
        print(f"error: --chunk-size must be >= 1, got {args.chunk_size}")
        return 2

    spec = _spec_from_args(args)
    use_engine = args.workers > 1 or args.jsonl or run_dir is not None
    if use_engine and args.passes != 2:
        print(
            "note: the sharded corpus engine always runs the two-phase "
            f"corpus protocol; --passes {args.passes} is ignored"
        )

    def show(title, est) -> None:
        print(
            f"{title[:40]:42} {est.per_serving.calories:9.1f} "
            f"kcal/serving  {100 * est.fraction_fully_mapped:5.1f}% mapped"
        )

    n_recipes = 0
    lines = 0
    # Incremental fold, not a buffer: --reasons must not defeat the
    # bounded memory of the streaming engine path.
    reason_tally = ReasonTally() if args.reasons else None
    report = None
    if use_engine:
        # Sharded/streaming path: the engine traverses the file itself
        # (once, bounded memory); the CLI reads it once more for the
        # titles, streaming alongside, and results print as they
        # arrive.  Estimation is lazy here,
        # so the timer necessarily spans the consuming loop.
        quarantine = not args.strict
        engine = ShardedCorpusEstimator(
            spec,
            workers=args.workers,
            chunk_size=args.chunk_size,
            quarantine=quarantine,
            chunk_deadline_s=args.chunk_deadline,
            max_chunk_retries=args.max_chunk_retries,
            run_dir=run_dir,
            resume=resume,
        )
        # The engine's own lean parse: it skips exactly the lines the
        # engine's traversal skips, so the two streams stay aligned.
        title_stream = (
            fields[0]
            for fields in iter_recipes_jsonl(
                args.path,
                on_error="skip" if quarantine else "raise",
                parse=recipe_fields_from_line,
            )
        )
        if run_dir is not None:
            print(f"durable run directory: {run_dir}")
        # SIGINT/SIGTERM stop the run *resumably*: every journal frame
        # is already fsync'd, so the handlers only need to get the
        # dead-letter report out and stamp the manifest before exiting
        # with EXIT_INTERRUPTED.
        previous_handlers = {
            signum: signal.signal(signum, _raise_interrupted)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }
        start = time.perf_counter()
        try:
            for title, est in zip(
                title_stream,
                engine.iter_corpus_estimates(args.path),
            ):
                n_recipes += 1
                lines += len(est.ingredients)
                if reason_tally is not None:
                    reason_tally.add_recipe(est)
                show(title, est)
        except _Interrupted as exc:
            name = signal.Signals(exc.signum).name
            report = engine.last_report
            if run_dir is not None:
                if report is not None:
                    write_report_jsonl(
                        run_dir / REPORT_NAME,
                        report.dead_letters,
                        report.run_id or run_dir.name,
                    )
                try:
                    mark_interrupted(run_dir)
                except RunError:
                    pass  # stopped before the manifest existed
                print(
                    f"\ninterrupted ({name}); the journal is on disk — "
                    f"resume with:\n  repro batch --resume {run_dir}"
                )
            else:
                print(f"\ninterrupted ({name})")
            return EXIT_INTERRUPTED
        finally:
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
            # Release the persistent worker pool and its shared-memory
            # artifact segment before the process reports results.
            engine.close()
        elapsed = time.perf_counter() - start
        mode = f"{args.workers} worker(s), two-phase corpus protocol"
        report = engine.last_report
        if run_dir is not None and report is not None:
            # The report lands on every completion — an empty file is
            # still a statement ("this run quarantined nothing") and
            # keeps clean-vs-resumed runs byte-diffable.
            write_report_jsonl(
                run_dir / REPORT_NAME,
                report.dead_letters,
                report.run_id or run_dir.name,
            )
    else:
        # In-memory path: the same two-phase corpus protocol as the
        # engine (identical results at any --workers), timed without
        # the printing.  --passes 1 keeps the incremental single-pass
        # behaviour.
        recipes = load_recipes_jsonl(args.path)
        estimator = spec.build()
        start = time.perf_counter()
        estimates = estimator.estimate_corpus(recipes, passes=args.passes)
        elapsed = time.perf_counter() - start
        for recipe, est in zip(recipes, estimates):
            n_recipes += 1
            lines += len(est.ingredients)
            if reason_tally is not None:
                reason_tally.add_recipe(est)
            show(recipe.title, est)
        mode = (
            "1 pass(es)" if args.passes == 1
            else "in-process, two-phase corpus protocol"
        )

    if n_recipes == 0:
        print("empty corpus")
        return 1
    rate = lines / elapsed if elapsed > 0 else float("inf")
    print(
        f"\n{n_recipes} recipes / {lines} ingredient lines "
        f"in {elapsed:.2f}s ({rate:.0f} lines/s, {mode})"
    )
    if report is not None and report.total_lines:
        print(
            f"duplicate collapse: {report.total_lines} occurrences -> "
            f"{report.distinct_lines} distinct lines "
            f"({report.dedup_ratio:.2f}x)"
        )
    if reason_tally is not None:
        print("\nreason-code breakdown:")
        print(reason_tally.breakdown().render())
    if report is not None:
        supervision = {
            k: v for k, v in report.counters().items()
            if k != "dead_lettered" and v
        }
        if supervision:
            summary = ", ".join(
                f"{name.replace('_', ' ')}: {value}"
                for name, value in supervision.items()
            )
            print(f"\nsupervision: {summary}")
        if report.run_dir is not None:
            print(
                f"\ndurable run {report.run_id}: "
                f"{report.executed_chunks} chunk(s) executed, "
                f"{report.replayed_chunks} replayed from journal "
                f"({report.run_dir})"
            )
        if report.dead_letters:
            print("\ndead-letter report:")
            print(report.dead_letters.render())
    return 0


def _cmd_runs_list(args: argparse.Namespace) -> int:
    """One line per run directory under the given root."""
    run_dirs = iter_run_dirs(args.root)
    if not run_dirs:
        print(f"no run directories under {args.root}")
        return 1
    for path in run_dirs:
        info = run_summary(path)
        journal = info["journal"]
        planned = journal["planned_chunks"]
        frames = journal["records"]
        progress = f"collect {frames['collect']}"
        if planned is not None:
            progress += f"/{planned}"
        progress += f", fallback {frames['fallback']}"
        torn = ", torn tail" if journal["torn_bytes"] else ""
        print(f"{info['run_id']:44} {info['status']:12} {progress}{torn}")
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    """Full manifest + journal summary of one run, as JSON."""
    print(json.dumps(run_summary(args.run_dir), indent=2, sort_keys=True))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    generator = RecipeGenerator(config=GeneratorConfig(seed=args.seed))
    recipes = generator.generate(args.recipes)
    if args.out:
        save_recipes_jsonl(recipes, args.out)
        print(f"wrote {len(recipes)} recipes to {args.out}")
    else:
        for recipe in recipes:
            print(f"# {recipe.title} (serves {recipe.servings})")
            for item in recipe.ingredients:
                print(f"  {item.text}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived HTTP service (blocking; Ctrl-C to stop)."""
    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            cache_cap=args.cache_cap,
            spec=_spec_from_args(args),
            max_body_bytes=args.max_body_bytes,
            request_timeout_s=(
                args.request_timeout if args.request_timeout > 0 else None
            ),
            max_concurrent=args.max_concurrent,
            max_queue=args.max_queue,
            procs=args.procs,
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    return serve(config, ready_file=args.ready_file or None)


def _cmd_build_artifact(args: argparse.Namespace) -> int:
    """Capture a ready estimator into a build-once artifact file."""
    from repro.artifacts import load_artifact, save_artifact

    tagger = None
    if args.tagger == "perceptron":
        if args.train_phrases < 1:
            print(f"error: --train-phrases must be >= 1, "
                  f"got {args.train_phrases}")
            return 2
        if args.epochs < 1:
            print(f"error: --epochs must be >= 1, got {args.epochs}")
            return 2
        from repro.ner.perceptron import AveragedPerceptronTagger
        from repro.recipedb.generator import RecipeGenerator as _Gen

        print(
            f"training averaged perceptron "
            f"({args.train_phrases} phrases, {args.epochs} epochs, "
            f"seed {args.seed}) ...",
            flush=True,
        )
        start = time.perf_counter()
        generator = _Gen(config=GeneratorConfig(seed=args.seed))
        phrases = [
            item.tagged
            for item in generator.generate_phrases(args.train_phrases)
        ]
        tagger = AveragedPerceptronTagger(seed=args.seed)
        tagger.train(phrases, epochs=args.epochs)
        print(f"trained in {time.perf_counter() - start:.1f}s")

    start = time.perf_counter()
    estimator = NutritionEstimator(tagger=tagger)
    built_s = time.perf_counter() - start
    n_bytes = save_artifact(args.out, estimator)
    meta = load_artifact(args.out).meta
    print(
        f"wrote {args.out}: {n_bytes} bytes, format v{meta['format']}, "
        f"{meta['foods']} foods, {meta['vocabulary_words']} vocabulary "
        f"words, tagger={meta['tagger']} "
        f"(estimator built in {built_s * 1000:.0f} ms)"
    )
    print(f"serve from it:  repro serve --artifact {args.out}")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    for title, render in (
        ("Table I — NER tag extraction", render_table_i),
        ("Table II — USDA-SR description examples", render_table_ii),
        ("Table III — modified vs vanilla Jaccard", render_table_iii),
        ("Table IV — ingredient and unit relations", render_table_iv),
    ):
        print(f"== {title} ==")
        print(render())
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nutritional profile estimation in cooking recipes "
                    "(Kalra et al., ICDE 2020 reproduction)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            '  repro estimate --servings 4 "2 cups flour" "1 tsp salt"\n'
            '  repro explain "1 garlic" --context "2 cloves garlic , minced"\n'
            "  repro generate --recipes 200 --out corpus.jsonl\n"
            "  repro batch corpus.jsonl --workers 4 --jsonl --reasons\n"
            "  repro batch corpus.jsonl --workers 4 --run-dir runs/\n"
            "  repro batch --resume runs/run-20260807-120000-00042-abc123\n"
            "  repro runs list runs/\n"
            "  repro build-artifact pipeline.artifact\n"
            "  repro serve --port 8080 --workers 2 --artifact pipeline.artifact\n"
            "\n"
            "see README.md for a tour and docs/api.md for the HTTP API"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    estimate = sub.add_parser("estimate", help="estimate a recipe's profile")
    estimate.add_argument("phrases", nargs="+", help="ingredient phrases")
    estimate.add_argument("--servings", type=int, default=1)
    estimate.set_defaults(func=_cmd_estimate)

    parse = sub.add_parser("parse", help="show NER extraction for phrases")
    parse.add_argument("phrases", nargs="+")
    parse.set_defaults(func=_cmd_parse)

    match = sub.add_parser("match", help="match a name to a description")
    match.add_argument("name")
    match.add_argument("--state", default="")
    match.add_argument("--explain", action="store_true")
    match.add_argument("--top", type=int, default=5)
    match.set_defaults(func=_cmd_match)

    explain = sub.add_parser(
        "explain",
        help="show one line's full pipeline provenance (tags, match "
             "candidates, every resolution strategy, reason code)")
    explain.add_argument("phrase", help="ingredient phrase to explain")
    explain.add_argument(
        "--context", action="append", default=[], metavar="LINE",
        help="corpus line feeding the most-frequent-unit statistics "
             "(repeatable; default: no corpus statistics)")
    explain.add_argument("--top", type=int, default=5,
                         help="description candidates to show (default 5)")
    explain.set_defaults(func=_cmd_explain)

    batch = sub.add_parser(
        "batch", help="estimate a JSONL corpus via the batch pipeline")
    batch.add_argument("path", nargs="?", default=None,
                       help="corpus written by `generate --out` "
                            "(optional with --resume: defaults to the "
                            "manifest's corpus path)")
    batch.add_argument("--passes", type=int, default=2,
                       help=">=2 runs the two-phase corpus protocol "
                            "(default); 1 runs the incremental single "
                            "pass (in-process path only)")
    batch.add_argument("--workers", type=int, default=None,
                       help="worker processes for the sharded corpus "
                            "engine (>1 enables it; default 1, or the "
                            "manifest's count with --resume)")
    batch.add_argument("--chunk-size", type=int, default=None, metavar="N",
                       help="distinct ingredient lines per pool chunk "
                            "(default 512, or the manifest's size with "
                            "--resume — resume requires a matching size)")
    durability = batch.add_mutually_exclusive_group()
    durability.add_argument("--run-dir", default="", metavar="ROOT",
                            help="make the run durable: create "
                                 "ROOT/<run-id>/ holding a manifest, a "
                                 "crash-safe chunk journal and the "
                                 "dead-letter report (implies the "
                                 "engine path)")
    durability.add_argument("--resume", default="", metavar="RUN_DIR",
                            help="resume the durable run in RUN_DIR: "
                                 "verify its manifest, replay journaled "
                                 "chunks, execute only missing ones — "
                                 "output is bit-identical to an "
                                 "uninterrupted run")
    batch.add_argument("--jsonl", action="store_true",
                       help="stream the corpus (bounded memory) through "
                            "the corpus engine instead of loading it")
    batch.add_argument("--artifact", default="",
                       help="start coordinator and workers from a "
                            "build-artifact snapshot instead of "
                            "rebuilding the pipeline per process")
    batch.add_argument("--strict", action="store_true",
                       help="abort on malformed corpus lines or "
                            "estimator errors instead of quarantining "
                            "them to a dead-letter report (engine path "
                            "only; the default quarantines)")
    batch.add_argument("--chunk-deadline", type=float,
                       default=DEFAULT_CHUNK_DEADLINE_S, metavar="SECONDS",
                       help="per-chunk budget before a worker is "
                            "presumed hung and replaced (0 disables; "
                            f"default {DEFAULT_CHUNK_DEADLINE_S:.0f}s)")
    batch.add_argument("--max-chunk-retries", type=int,
                       default=DEFAULT_MAX_CHUNK_RETRIES, metavar="N",
                       help="re-dispatches allowed per chunk lost to a "
                            "crashed or hung worker (default "
                            f"{DEFAULT_MAX_CHUNK_RETRIES})")
    batch.add_argument("--reasons", action="store_true",
                       help="append the corpus reason-code breakdown "
                            "(Figure 2's name-vs-full gap by cause)")
    batch.set_defaults(func=_cmd_batch)

    serve_cmd = sub.add_parser(
        "serve", help="run the long-lived HTTP estimation service")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default 127.0.0.1)")
    serve_cmd.add_argument("--port", type=int, default=8080,
                           help="bind port; 0 picks a free one "
                                "(default 8080)")
    serve_cmd.add_argument("--workers", type=int, default=1,
                           help="worker processes for estimate_batch "
                                "fan-out through the sharded engine "
                                "(default 1: in-process)")
    serve_cmd.add_argument("--cache-cap", type=int,
                           default=DEFAULT_RESPONSE_CACHE_CAP,
                           help="response cache entry cap (default "
                                f"{DEFAULT_RESPONSE_CACHE_CAP})")
    serve_cmd.add_argument("--request-timeout", type=float, default=30.0,
                           metavar="SECONDS",
                           help="per-request estimation deadline; "
                                "exceeding it returns HTTP 504 "
                                "(0 disables; default 30)")
    serve_cmd.add_argument("--max-body-bytes", type=int, default=1 << 20,
                           metavar="BYTES",
                           help="reject request bodies larger than this "
                                "with HTTP 413 before reading them "
                                "(default 1 MiB)")
    serve_cmd.add_argument("--max-concurrent", type=int, default=8,
                           metavar="N",
                           help="estimation requests running at once; "
                                "more wait in the admission queue "
                                "(default 8)")
    serve_cmd.add_argument("--max-queue", type=int, default=32, metavar="N",
                           help="waiting requests beyond --max-concurrent "
                                "before new ones are shed with HTTP 503 "
                                "+ Retry-After (default 32)")
    serve_cmd.add_argument("--artifact", default="",
                           help="start the service (and any workers) "
                                "from a build-artifact snapshot for an "
                                "instant cold start")
    serve_cmd.add_argument("--procs", type=int, default=1, metavar="N",
                           help="pre-fork server processes sharing the "
                                "port via SO_REUSEPORT, each with its "
                                "own event loop and warm estimator "
                                "(default 1: single process)")
    serve_cmd.add_argument("--ready-file", default="", metavar="PATH",
                           help="write 'host port' to PATH once the "
                                "service is accepting (how scripts "
                                "discover a --port 0 bind)")
    serve_cmd.set_defaults(func=_cmd_serve)

    build_artifact = sub.add_parser(
        "build-artifact",
        help="capture the pipeline into a build-once artifact file")
    build_artifact.add_argument(
        "out", help="output path (convention: *.artifact)")
    build_artifact.add_argument(
        "--tagger", choices=("rule", "perceptron"), default="rule",
        help="NER tagger to capture: the deterministic rule tagger "
             "(default) or an averaged perceptron trained on a "
             "generated corpus")
    build_artifact.add_argument(
        "--train-phrases", type=int, default=3000,
        help="training phrases for --tagger perceptron (default 3000)")
    build_artifact.add_argument(
        "--epochs", type=int, default=5,
        help="training epochs for --tagger perceptron (default 5)")
    build_artifact.add_argument(
        "--seed", type=int, default=13,
        help="corpus + shuffle seed for --tagger perceptron "
             "(default 13)")
    build_artifact.set_defaults(func=_cmd_build_artifact)

    generate = sub.add_parser("generate", help="generate a synthetic corpus")
    generate.add_argument("--recipes", type=int, default=10)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--out", default="")
    generate.set_defaults(func=_cmd_generate)

    runs = sub.add_parser(
        "runs", help="inspect durable batch run directories")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser(
        "list", help="one status line per run directory under ROOT")
    runs_list.add_argument(
        "root", help="directory holding run directories (a run "
                     "directory itself also works)")
    runs_list.set_defaults(func=_cmd_runs_list)
    runs_show = runs_sub.add_parser(
        "show", help="full manifest + journal summary of one run (JSON)")
    runs_show.add_argument("run_dir", help="the run directory to inspect")
    runs_show.set_defaults(func=_cmd_runs_show)

    tables = sub.add_parser("tables", help="print the paper's tables")
    tables.set_defaults(func=_cmd_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    from repro.artifacts import ArtifactError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArtifactError, FileNotFoundError, RunError) as exc:
        print(f"error: {exc}")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
