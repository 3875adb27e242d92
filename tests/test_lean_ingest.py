"""The lean corpus parse and the servings contract it shares.

The estimation paths (the sharded engine's one traversal and
``repro batch``'s title stream) read JSONL through
:func:`recipe_fields_from_line`, which returns ``(title, texts,
servings)`` without building ``Recipe`` objects.  The promise is
that it accepts exactly the lines :func:`_recipe_from_line` accepts,
returns the projection of the recipe that parse builds, and rejects
every other line with the same exception (type *and* ``repr``), so
quarantine dead letters stay byte-identical.  The Hypothesis property
below mutates valid lines at every level of the schema to pin that.

Non-finite servings: ``json.loads`` accepts ``NaN`` and
``Infinity``, and both parses reject them, so a corpus line with one
is a strict-mode error and a quarantined ``invalid-recipe`` letter
rather than a recipe estimated per NaN (or infinite) servings.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.deadletter import REASON_INVALID_RECIPE, DeadLetterLog
from repro.ner.corpus import TAGS
from repro.pipeline import ShardedCorpusEstimator
from repro.recipedb.corpus import (
    _recipe_from_line,
    iter_recipes_jsonl,
    recipe_fields_from_line,
    save_recipes_jsonl,
)
from repro.recipedb.generator import GeneratorConfig, RecipeGenerator
from repro.recipedb.model import Recipe

RECIPE_KEYS = (
    "recipe_id", "title", "cuisine", "source", "servings", "ingredients",
    "gold_calories_per_serving",
)
INGREDIENT_KEYS = ("text", "tokens", "tags", "truth")
TRUTH_KEYS = ("spec_key", "ndb_no", "grams", "kcal")

_short = st.text(max_size=8)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _ingredient(draw) -> dict:
    n = draw(st.integers(0, 4))
    return {
        "text": draw(_short),
        "tokens": draw(st.lists(_short, min_size=n, max_size=n)),
        "tags": draw(
            st.lists(st.sampled_from(TAGS), min_size=n, max_size=n)
        ),
        "truth": {
            "spec_key": draw(_short),
            "ndb_no": draw(st.none() | _short),
            "grams": draw(_finite),
            "kcal": draw(_finite),
        },
    }


_recipes = st.fixed_dictionaries({
    "recipe_id": _short,
    "title": _short,
    "cuisine": _short,
    "source": _short,
    "servings": st.integers(1, 12) | st.floats(0.25, 24.0),
    "ingredients": st.lists(_ingredient(), max_size=4),
    "gold_calories_per_serving": _finite,
})

#: Values of the wrong JSON type for a list or object field.
_wrong_values = st.sampled_from([
    None, 0, 1.5, True, "", "OO", "NAME", {}, {"text": "x"}, [["O"]],
])


def _mutate(data, recipe: dict) -> None:
    """Apply one schema mutation, drawn by *data*, to *recipe*."""
    ingredients = recipe.get("ingredients")
    if not isinstance(ingredients, list):
        ingredients = []
    ingredients = [i for i in ingredients if isinstance(i, dict)]
    kinds = ["drop-recipe-key", "servings", "wrong-ingredients"]
    if ingredients:
        kinds += [
            "drop-ingredient-key", "drop-truth-key", "wrong-field",
            "count-mismatch", "unknown-tag",
        ]
    kind = data.draw(st.sampled_from(kinds), label="mutation")
    if kind == "drop-recipe-key":
        recipe.pop(data.draw(st.sampled_from(RECIPE_KEYS)), None)
    elif kind == "servings":
        recipe["servings"] = data.draw(st.sampled_from(
            [0, -1, 2.5, True, False, "2", None, [2], math.nan, math.inf,
             -math.inf]
        ))
    elif kind == "wrong-ingredients":
        recipe["ingredients"] = data.draw(_wrong_values)
    else:
        ingredient = data.draw(st.sampled_from(ingredients))
        tokens = ingredient.get("tokens")
        tags = ingredient.get("tags")
        truth = ingredient.get("truth")
        if kind == "drop-ingredient-key":
            ingredient.pop(data.draw(st.sampled_from(INGREDIENT_KEYS)), None)
        elif kind == "drop-truth-key" and isinstance(truth, dict):
            truth.pop(data.draw(st.sampled_from(TRUTH_KEYS)), None)
        elif kind == "wrong-field":
            field = data.draw(st.sampled_from(("tokens", "tags", "truth")))
            ingredient[field] = data.draw(_wrong_values)
        elif kind == "count-mismatch" and isinstance(tokens, list):
            tokens.append("extra")
        elif kind == "unknown-tag" and isinstance(tags, list):
            bad = data.draw(st.sampled_from(["BOGUS", "name", 3, None, []]))
            if tags:
                tags[data.draw(st.integers(0, len(tags) - 1))] = bad
            elif isinstance(tokens, list):
                tokens.append("extra")
                tags.append(bad)


def _outcome(parse, line: str):
    try:
        title, texts, servings = parse(line)
    except Exception as exc:  # noqa: BLE001 — the outcome under test
        return "raised", type(exc), repr(exc)
    return "parsed", title, texts, servings, type(servings)


def _full_fields(line: str):
    recipe = _recipe_from_line(line)
    return recipe.title, recipe.ingredient_texts, recipe.servings


class TestLeanParseEqualsFullParse:
    @settings(max_examples=300, deadline=None)
    @given(recipe=_recipes, data=st.data())
    def test_mutated_lines(self, recipe, data):
        for _ in range(data.draw(st.integers(0, 2), label="mutations")):
            _mutate(data, recipe)
        line = json.dumps(recipe)
        assert _outcome(recipe_fields_from_line, line) == _outcome(
            _full_fields, line
        )

    @pytest.mark.parametrize(
        "line",
        ["[]", "3", '"recipe"', "null", "{not json", '{"title": "x"}'],
    )
    def test_non_recipe_lines(self, line):
        assert _outcome(recipe_fields_from_line, line) == _outcome(
            _full_fields, line
        )

    def test_generated_corpus(self, tmp_path):
        recipes = RecipeGenerator(config=GeneratorConfig(seed=5)).generate(40)
        path = tmp_path / "corpus.jsonl"
        save_recipes_jsonl(recipes, path)
        lean = list(iter_recipes_jsonl(path, parse=recipe_fields_from_line))
        assert lean == [
            (r.title, r.ingredient_texts, r.servings) for r in recipes
        ]


class TestNonFiniteServings:
    @pytest.mark.parametrize("servings", [math.nan, math.inf])
    def test_recipe_rejects(self, servings):
        with pytest.raises(ValueError, match="finite"):
            Recipe("r", "t", "c", "s", servings)

    def test_negative_infinity_is_not_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Recipe("r", "t", "c", "s", -math.inf)

    @pytest.fixture(scope="class")
    def recipes(self):
        return RecipeGenerator(config=GeneratorConfig(seed=9)).generate(12)

    @pytest.fixture(params=["NaN", "Infinity"])
    def corpus_path(self, request, tmp_path, recipes):
        """The corpus with line 4's servings replaced by *param*."""
        path = tmp_path / "corpus.jsonl"
        save_recipes_jsonl(recipes, path)
        lines = path.read_text().splitlines(keepends=True)
        data = json.loads(lines[3])
        data["servings"] = float(request.param.replace("Infinity", "inf"))
        lines[3] = json.dumps(data) + "\n"
        assert f'"servings": {request.param}' in lines[3]
        path.write_text("".join(lines))
        return path

    @pytest.mark.parametrize(
        "parse", [_recipe_from_line, recipe_fields_from_line]
    )
    def test_strict_read_raises(self, corpus_path, parse):
        with pytest.raises(ValueError, match="servings must be finite"):
            list(iter_recipes_jsonl(corpus_path, parse=parse))

    @pytest.mark.parametrize(
        "parse", [_recipe_from_line, recipe_fields_from_line]
    )
    def test_quarantine_dead_letters_the_line(self, corpus_path, parse):
        log = DeadLetterLog()
        read = list(
            iter_recipes_jsonl(
                corpus_path, on_error="skip", dead_letters=log, parse=parse
            )
        )
        assert len(read) == 11
        (letter,) = log.records
        assert (letter.line_no, letter.reason) == (4, REASON_INVALID_RECIPE)
        assert letter.detail.startswith(
            "ValueError('servings must be finite: "
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_skips_the_line(self, corpus_path, recipes, workers):
        survivors = recipes[:3] + recipes[4:]
        with ShardedCorpusEstimator(workers=workers) as reference:
            expected = reference.estimate_corpus(survivors)
        with ShardedCorpusEstimator(
            workers=workers, quarantine=True
        ) as engine:
            estimates = engine.estimate_corpus(str(corpus_path))
            letters = engine.last_report.dead_letters.records
        assert estimates == expected
        assert [letter.line_no for letter in letters] == [4]
        assert all(
            math.isfinite(e.per_serving.calories) for e in estimates
        )
