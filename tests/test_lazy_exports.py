"""The package export contract, eager and lazy names alike.

``repro``, ``repro.text``, ``repro.ner`` and ``repro.recipedb`` keep
some of their public names lazy (:mod:`repro._lazy`).  Every name in
each package's ``__all__`` must still resolve by attribute access,
through ``from package import name`` and in ``dir(package)``, and be
the object its defining submodule holds.  The checks run in a fresh
interpreter, where no lazy name has been looked up yet.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: Package -> every name in its ``__all__`` -> the module defining it.
SOURCES = {
    "repro": {
        "IngredientEstimate": "repro.core.estimator",
        "NutritionEstimator": "repro.core.estimator",
        "ParsedIngredient": "repro.core.estimator",
        "RecipeEstimate": "repro.core.estimator",
        "NutritionalProfile": "repro.core.profile",
        "DescriptionMatcher": "repro.matching.matcher",
        "MatcherConfig": "repro.matching.matcher",
        "EstimatorSpec": "repro.pipeline.spec",
        "ShardedCorpusEstimator": "repro.pipeline.engine",
        "GeneratorConfig": "repro.recipedb.generator",
        "RecipeGenerator": "repro.recipedb.generator",
        "NutrientDatabase": "repro.usda.database",
        "load_default_database": "repro.usda.database",
        "__version__": "repro",
    },
    "repro.text": {
        "WordNetStyleLemmatizer": "repro.text.lemmatizer",
        "lemmatize": "repro.text.lemmatizer",
        "rewrite_negations": "repro.text.negation",
        "CoarsePOSTagger": "repro.text.pos",
        "pos_tags": "repro.text.pos",
        "tag_frequency_vector": "repro.text.pos",
        "parse_quantity": "repro.text.quantity",
        "QuantityParseError": "repro.text.quantity",
        "STOP_WORDS": "repro.text.stopwords",
        "remove_stop_words": "repro.text.stopwords",
        "tokenize": "repro.text.tokenize",
        "word_tokens": "repro.text.tokenize",
    },
    "repro.ner": {
        "TAGS": "repro.ner.corpus",
        "TaggedPhrase": "repro.ner.corpus",
        "read_tsv": "repro.ner.corpus",
        "write_tsv": "repro.ner.corpus",
        "LinearChainCRF": "repro.ner.crf",
        "extract_features": "repro.ner.features",
        "EvaluationReport": "repro.ner.metrics",
        "entity_f1": "repro.ner.metrics",
        "evaluate": "repro.ner.metrics",
        "k_fold_cross_validation": "repro.ner.metrics",
        "AveragedPerceptronTagger": "repro.ner.perceptron",
        "RuleBasedTagger": "repro.ner.rule_tagger",
        "cluster_phrases": "repro.ner.clustering",
        "select_diverse_corpus": "repro.ner.clustering",
    },
    "repro.recipedb": {
        "load_recipes_jsonl": "repro.recipedb.corpus",
        "save_recipes_jsonl": "repro.recipedb.corpus",
        "GeneratorConfig": "repro.recipedb.generator",
        "RecipeGenerator": "repro.recipedb.generator",
        "INGREDIENTS": "repro.recipedb.ingredients",
        "IngredientSpec": "repro.recipedb.ingredients",
        "spec_by_key": "repro.recipedb.ingredients",
        "CUISINES": "repro.recipedb.cuisines",
        "GroundTruth": "repro.recipedb.model",
        "Ingredient": "repro.recipedb.model",
        "Recipe": "repro.recipedb.model",
        "PIROSZHKI_PHRASES": "repro.recipedb.phrases",
        "PIROSZHKI_TABLE_I": "repro.recipedb.phrases",
    },
}

#: Run in a fresh interpreter as ``-c CHECK package how sources-json``;
#: prints the names that failed the check.
CHECK = textwrap.dedent("""
    import importlib
    import json
    import sys

    package, how, sources = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    module = importlib.import_module(package)
    failed = []
    for name in module.__all__:
        if how == "attribute":
            value = getattr(module, name)
        elif how == "from-import":
            scope = {}
            exec(f"from {package} import {name} as value", scope)
            value = scope["value"]
        else:
            if name not in dir(module):
                failed.append(name)
            continue
        source = importlib.import_module(sources[name])
        if value is not getattr(source, name):
            failed.append(name)
    print(json.dumps(failed))
""")


def run_check(package: str, how: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    proc = subprocess.run(
        [sys.executable, "-c", CHECK, package, how,
         json.dumps(SOURCES[package])],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


@pytest.mark.parametrize("package", sorted(SOURCES))
def test_all_lists_exactly_the_tabled_names(package):
    module = importlib.import_module(package)
    assert sorted(module.__all__) == sorted(SOURCES[package])


@pytest.mark.parametrize("how", ["attribute", "from-import", "dir"])
@pytest.mark.parametrize("package", sorted(SOURCES))
def test_every_exported_name_resolves(package, how):
    assert run_check(package, how) == []


@pytest.mark.parametrize("package", sorted(SOURCES))
def test_unknown_name_raises_attribute_error_naming_the_module(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"module '{package}' has no "
                       "attribute 'no_such_export'"):
        getattr(module, "no_such_export")
