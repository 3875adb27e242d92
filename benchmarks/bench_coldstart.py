"""Cold start: artifact load vs full build — the PR 4 tentpole benchmark.

Measures, in **fresh subprocesses** (so module caches, the lru-cached
default database and the artifact payload cache cannot leak between
modes), the wall time from process start to a ready estimator that
has answered one request:

* **default configuration** (embedded USDA-SR, rule tagger): the full
  build path — ``repro.usda.data`` import, description lemmatization,
  inverted-index build — against loading the same state from a
  build-once artifact (:mod:`repro.artifacts`),
* **paper configuration** (trained averaged perceptron): the build
  path additionally trains the tagger from generated phrases — the
  cost every worker and every service restart would pay without the
  artifact — against loading the captured weight matrix.

Two spans are recorded per run: ``import_s`` (interpreter imports,
including the numpy-backed perceptron module in the paper
configuration) and ``ready_s`` (build-or-load plus one warm-up
estimate); speedups are reported for both the ready span and the
whole process.  The ≥ 5x
acceptance floor applies to the **paper configuration** — its build
path constructs the perceptron weight matrix from sources, which is
precisely the state the artifact exists to capture (measured ≥ 100x
on the ready span, ≥ 15x whole-process).  The default rule-tagger
build is only ~20 ms and shares ~10 ms of one-time process costs
(regex compilation, unit tables, the warm-up estimate itself) with
the load path, so its ratio is structurally modest; it carries a
no-regression floor instead.

Emits ``results/BENCH_coldstart.json`` (``results/smoke/`` in smoke
mode — see ``benchmarks/conftest.py``).

Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_coldstart.py -q
    PYTHONPATH=src python benchmarks/bench_coldstart.py   # standalone
    REPRO_BENCH_SMOKE=1 ...                               # CI smoke
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from conftest import write_result

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

#: Subprocess repetitions per mode (best-of, to shed scheduler noise).
REPEATS = 2 if SMOKE else 4
#: Perceptron training scale for the paper configuration.
TRAIN_PHRASES = 800 if SMOKE else 3000
TRAIN_EPOCHS = 2 if SMOKE else 5
#: Acceptance floor (ISSUE 4): artifact load ≥ 5x faster than the
#: full paper-configuration build, on both spans.
MIN_PERCEPTRON_SPEEDUP = 5.0
#: The rule-tagger build is ~20 ms; the artifact must simply never be
#: slower than the build it replaces (0.9 absorbs scheduler noise).
MIN_DEFAULT_SPEEDUP = 0.9

_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: The measured child: stamps perf_counter at entry, after imports,
#: and after the estimator has produced one estimate.  ``MODE`` is
#: "build" / "load"; "build" with TRAIN > 0 trains the perceptron —
#: exactly what a worker process without an artifact would do.
_CHILD = """
import time
T0 = time.perf_counter()
import json, os, sys
from repro.pipeline.spec import EstimatorSpec
if os.environ["REPRO_COLDSTART_TAGGER"] == "perceptron":
    # numpy-backed and a lazy package export, so no repro import above
    # loads it; both modes of the paper configuration need it.
    import repro.ner.perceptron
T_IMPORT = time.perf_counter()

mode = os.environ["REPRO_COLDSTART_MODE"]
train = int(os.environ.get("REPRO_COLDSTART_TRAIN", "0"))
artifact = os.environ.get("REPRO_COLDSTART_ARTIFACT", "")

if mode == "load":
    spec = EstimatorSpec(artifact_path=artifact)
    estimator = spec.build()
else:
    tagger = None
    if train:
        from repro.ner.perceptron import AveragedPerceptronTagger
        from repro.recipedb.generator import GeneratorConfig, RecipeGenerator
        generator = RecipeGenerator(config=GeneratorConfig(seed=13))
        phrases = [i.tagged for i in generator.generate_phrases(train)]
        tagger = AveragedPerceptronTagger()
        tagger.train(phrases, epochs=int(os.environ["REPRO_COLDSTART_EPOCHS"]))
    spec = EstimatorSpec(tagger=tagger)
    estimator = spec.build()

estimate = estimator.estimate_ingredient("2 cups all-purpose flour")
assert estimate.grams > 0, estimate
T_READY = time.perf_counter()
print(json.dumps({
    "import_s": T_IMPORT - T0,
    "ready_s": T_READY - T_IMPORT,
    "total_s": T_READY - T0,
}))
"""


def _run_child(
    mode: str, tagger: str, artifact: str = "", train: int = 0
) -> dict:
    """Best-of-REPEATS timing of one cold-start mode."""
    env = {
        **os.environ,
        "PYTHONPATH": _SRC,
        "REPRO_COLDSTART_MODE": mode,
        "REPRO_COLDSTART_TAGGER": tagger,
        "REPRO_COLDSTART_ARTIFACT": artifact,
        "REPRO_COLDSTART_TRAIN": str(train),
        "REPRO_COLDSTART_EPOCHS": str(TRAIN_EPOCHS),
    }
    best: dict | None = None
    for _ in range(REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _CHILD],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        sample = json.loads(out.splitlines()[-1])
        if best is None or sample["total_s"] < best["total_s"]:
            best = sample
    return {key: round(value, 4) for key, value in best.items()}


def _build_artifacts(directory: Path) -> tuple[str, str]:
    """Write default- and paper-configuration artifacts; return paths."""
    from repro import NutritionEstimator
    from repro.artifacts import save_artifact
    from repro.ner.perceptron import AveragedPerceptronTagger
    from repro.recipedb.generator import GeneratorConfig, RecipeGenerator

    default_path = directory / "default.artifact"
    save_artifact(default_path, NutritionEstimator())

    generator = RecipeGenerator(config=GeneratorConfig(seed=13))
    phrases = [i.tagged for i in generator.generate_phrases(TRAIN_PHRASES)]
    tagger = AveragedPerceptronTagger()
    tagger.train(phrases, epochs=TRAIN_EPOCHS)
    perceptron_path = directory / "perceptron.artifact"
    save_artifact(perceptron_path, NutritionEstimator(tagger=tagger))
    return str(default_path), str(perceptron_path)


def _series(name: str, build: dict, load: dict, artifact: str) -> dict:
    return {
        "configuration": name,
        "artifact_bytes": os.path.getsize(artifact),
        "build": build,
        "load": load,
        "ready_speedup": round(build["ready_s"] / load["ready_s"], 2),
        "total_speedup": round(build["total_s"] / load["total_s"], 2),
    }


def run_benchmark() -> dict:
    with tempfile.TemporaryDirectory(prefix="repro-coldstart-") as tmp:
        default_artifact, perceptron_artifact = _build_artifacts(Path(tmp))
        default = _series(
            "default (rule tagger)",
            _run_child("build", "rule"),
            _run_child("load", "rule", artifact=default_artifact),
            default_artifact,
        )
        perceptron = _series(
            "paper (trained perceptron)",
            _run_child("build", "perceptron", train=TRAIN_PHRASES),
            _run_child("load", "perceptron", artifact=perceptron_artifact),
            perceptron_artifact,
        )
    return {
        "benchmark": "bench_coldstart",
        "smoke": SMOKE,
        "repeats_best_of": REPEATS,
        "train_phrases": TRAIN_PHRASES,
        "train_epochs": TRAIN_EPOCHS,
        "floors": {
            "default_ready_speedup": MIN_DEFAULT_SPEEDUP,
            "perceptron_ready_speedup": MIN_PERCEPTRON_SPEEDUP,
        },
        "series": [default, perceptron],
    }


def test_coldstart():
    report = run_benchmark()
    write_result("BENCH_coldstart.json", json.dumps(report, indent=2))
    default, perceptron = report["series"]
    if not SMOKE:
        # Two ~20 ms spans at best-of-2 are scheduler-noise territory;
        # the no-regression floor only means something at full repeats.
        assert default["ready_speedup"] >= MIN_DEFAULT_SPEEDUP, default
    assert perceptron["ready_speedup"] >= MIN_PERCEPTRON_SPEEDUP, perceptron
    if not SMOKE:
        # Smoke trains a deliberately tiny perceptron, so only the
        # full-scale run can hold the whole-process floor too.
        assert perceptron["total_speedup"] >= MIN_PERCEPTRON_SPEEDUP, (
            perceptron
        )
    # The artifact's point: a loaded process is ready in well under
    # the time the paper-configuration build spends training alone.
    assert perceptron["load"]["ready_s"] < perceptron["build"]["ready_s"]


if __name__ == "__main__":
    result = run_benchmark()
    path = write_result("BENCH_coldstart.json", json.dumps(result, indent=2))
    print(json.dumps(result, indent=2))
    print(f"wrote {path}")
