"""The default entry points import only the modules they run.

numpy, scipy and the corpus generator are reachable from package
exports (``repro.RecipeGenerator``, ``repro.ner.AveragedPerceptronTagger``,
``repro.text.pos_tags``, ...) but no default path calls them, so none
of them may load in a batch, serve or CLI process that does not ask
for them.  Each check runs in a fresh interpreter: this process
already holds numpy.  The children run under ``-X importtime``, whose
log also covers pool workers, which inherit stderr by fork.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.recipedb.corpus import save_recipes_jsonl
from repro.recipedb.generator import GeneratorConfig, RecipeGenerator

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: Modules no default entry point may import.
FORBIDDEN = ("numpy", "scipy", "repro.recipedb.generator")

#: One ``-X importtime`` line per module: ``import time: self | cum | name``.
_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+\d+ \|\s+(\S+)$", re.M)

#: Appended to every child script: the forbidden modules it holds at exit.
_REPORT = textwrap.dedent(f"""
    import json as _json
    import sys as _sys
    print(_json.dumps(sorted(
        name for name in _sys.modules
        if name in {FORBIDDEN!r} or name.startswith(("numpy.", "scipy."))
    )))
""")


def run_fresh(script: str, *args: str) -> tuple[list[str], list[str]]:
    """Run *script* in a fresh interpreter under ``-X importtime``.

    Returns the forbidden modules the interpreter held at exit and
    every module name in the import log (coordinator and workers).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", script + _REPORT, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    held = json.loads(proc.stdout.strip().splitlines()[-1])
    return held, _IMPORT_LINE.findall(proc.stderr)


def forbidden_imports(imported: list[str]) -> list[str]:
    return [
        name for name in imported
        if name in FORBIDDEN or name.startswith(("numpy.", "scipy."))
    ]


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("budget") / "corpus.jsonl"
    recipes = RecipeGenerator(config=GeneratorConfig(seed=5)).generate(12)
    save_recipes_jsonl(recipes, path)
    return path


def test_two_worker_engine_pass(corpus_path):
    held, imported = run_fresh(
        textwrap.dedent("""
            import sys
            from repro.pipeline.engine import ShardedCorpusEstimator

            with ShardedCorpusEstimator(workers=2, chunk_size=16) as engine:
                engine.ensure_pool()
                estimates = engine.estimate_corpus(sys.argv[1])
            assert len(estimates) == 12, len(estimates)
            assert engine.last_report.workers == 2, engine.last_report
        """),
        str(corpus_path),
    )
    assert "repro.pipeline.engine" in imported
    assert held == []
    assert forbidden_imports(imported) == []


def test_service_state_answers_one_estimate():
    held, imported = run_fresh(textwrap.dedent("""
        from repro.service.handlers import dispatch
        from repro.service.state import ServiceConfig, ServiceState

        state = ServiceState(ServiceConfig())
        response = dispatch(state, "POST", "/v1/estimate", {
            "ingredients": ["2 cups flour", "1 tsp salt"], "servings": 4,
        })
        assert response.status == 200, response.body
    """))
    assert "repro.service.state" in imported
    assert held == []
    assert forbidden_imports(imported) == []


def test_cli_estimate():
    held, imported = run_fresh(textwrap.dedent("""
        import runpy
        import sys

        sys.argv = ["repro", "estimate", "1 cup sugar"]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as exit:
            assert exit.code == 0, exit.code
    """))
    assert "repro.cli" in imported
    assert held == []
    assert forbidden_imports(imported) == []


@pytest.fixture(scope="module")
def perceptron(tmp_path_factory):
    """A small trained perceptron, also captured in an artifact."""
    from repro.artifacts import save_artifact
    from repro.core.estimator import NutritionEstimator
    from repro.ner.perceptron import AveragedPerceptronTagger

    generator = RecipeGenerator(config=GeneratorConfig(seed=5))
    tagger = AveragedPerceptronTagger(seed=3)
    tagger.train([item.tagged for item in generator.generate_phrases(40)],
                 epochs=1)
    artifact = tmp_path_factory.mktemp("perceptron") / "t.artifact"
    save_artifact(artifact, NutritionEstimator(tagger=tagger))
    return tagger, artifact


@pytest.mark.parametrize("source", ["tagger", "artifact"])
def test_perceptron_pool_loads_numpy_once_before_the_fork(
    tmp_path, corpus_path, perceptron, source
):
    """A pool whose spec carries a trained perceptron, itself or in an
    artifact, needs numpy; the coordinator imports it before forking,
    so workers inherit it instead of each importing it again."""
    tagger, artifact = perceptron
    if source == "tagger":
        argument = tmp_path / "tagger.pickle"
        argument.write_bytes(pickle.dumps(tagger))
    else:
        argument = artifact
    held, imported = run_fresh(
        textwrap.dedent("""
            import pickle
            import sys
            from pathlib import Path
            from repro.pipeline import EstimatorSpec, ShardedCorpusEstimator

            if sys.argv[1] == "tagger":
                tagger = pickle.loads(Path(sys.argv[2]).read_bytes())
                spec = EstimatorSpec(tagger=tagger)
            else:
                spec = EstimatorSpec(artifact_path=sys.argv[2])
            with ShardedCorpusEstimator(
                spec, workers=2, chunk_size=16
            ) as engine:
                estimates = engine.estimate_corpus(sys.argv[3])
            assert len(estimates) == 12, len(estimates)
            assert engine.last_report.workers == 2, engine.last_report
        """),
        source,
        str(argument),
        str(corpus_path),
    )
    assert "numpy" in held
    assert imported.count("numpy") == 1
    assert "repro.recipedb.generator" not in imported
