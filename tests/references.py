"""Slow reference implementations of the two-phase corpus protocol.

Production runs one path: duplicate collapse into a distinct-line
table, then the columnar chunk pipeline (:mod:`repro.core.columnar`).
The differential suites compare that path against these references,
which compute the same tables the obvious way:

* **per occurrence** — every corpus occurrence goes through
  :meth:`NutritionEstimator.corpus_estimate_table` as its own
  ``(text, 1)`` item, so nothing is collapsed;
* **per line** — both passes loop over :func:`per_line_estimate`
  (:meth:`NutritionEstimator.parse`, then the shared tail
  :meth:`NutritionEstimator._estimate_from_parsed`), one line at a
  time, with the same fault-injection and dead-letter behaviour as
  the chunked pipeline.

It also holds the monolithic ``/v1/estimate`` body builder
(:func:`encode_recipe_estimate`) that the service's fragment splicing
must reproduce byte for byte, and the memo-free service oracle
(:func:`render_estimate_body`, :func:`render_batch_body`): a request's
body straight from a fresh :meth:`NutritionEstimator.corpus_protocol`
call, with no line memo, fragment splicing or response cache.

Last, :func:`rjl1_journal` rewrites a run journal in the first frame
format, whose digest covers the payload only, so resume can be tested
against journals written before the kind byte was checksummed.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

from repro import faults
from repro.deadletter import DeadLetterLog
from repro.core.estimator import (
    STATUS_FULL,
    STATUS_NAME_ONLY,
    NutritionEstimator,
    quarantined_estimate,
)
from repro.core.resolution import REASON_ESTIMATOR_ERROR
from repro.runs.journal import FRAME_HEADER_SIZE, MAGIC_V1, RunJournal
from repro.service.codec import encode_ingredient_estimate
from repro.units.fallback import UnitFallback


def _assemble(table, recipes):
    return [
        NutritionEstimator.finish_recipe(
            [table[text] for text in recipe.ingredient_texts],
            recipe.servings,
        )
        for recipe in recipes
    ]


# ----------------------------------------------------------------------
# per occurrence


def per_occurrence_items(recipes) -> list[tuple[str, int]]:
    """One ``(text, 1)`` item per ingredient-line occurrence."""
    return [
        (text, 1) for recipe in recipes for text in recipe.ingredient_texts
    ]


def per_occurrence_protocol(recipes, *, quarantine=None):
    """``(table, frozen snapshot)`` with nothing collapsed.

    With *quarantine*, dead-letter ordinals are item positions, which
    here are the per-occurrence corpus positions.
    """
    return NutritionEstimator().corpus_protocol(
        per_occurrence_items(recipes), quarantine=quarantine
    )


def per_occurrence_corpus(recipes, *, quarantine=None):
    """Recipe estimates from :func:`per_occurrence_protocol`."""
    table, _ = per_occurrence_protocol(recipes, quarantine=quarantine)
    return _assemble(table, recipes)


# ----------------------------------------------------------------------
# per line


def per_line_estimate(estimator, text, stats=None):
    """One line through the estimator, unbatched: parse, then the tail.

    The columnar pipeline's oracle: *stats* is the frozen corpus
    table (``None``: no corpus-frequent-unit strategy).
    """
    return estimator._estimate_from_parsed(estimator.parse(text), stats)


def _estimate_or_raise(estimator, text, stats=None):
    plan = faults.active_plan()
    if plan is not None:
        plan.poison(text)
    return per_line_estimate(estimator, text, stats)


def per_line_collect(estimator, items, *, quarantine=None, ordinal_base=0):
    """Pass 1, one :func:`per_line_estimate` call per item."""
    observations = UnitFallback(estimator.max_grams)
    estimates = {}
    for i, (text, count) in enumerate(items):
        try:
            estimate = _estimate_or_raise(estimator, text)
        except Exception as exc:
            if quarantine is None:
                raise
            estimate = quarantined_estimate(text, exc)
            quarantine.add(
                "estimate", ordinal_base + i, text,
                REASON_ESTIMATOR_ERROR, repr(exc),
            )
        estimates[text] = estimate
        if estimate.status == STATUS_FULL:
            observations.observe(
                estimate.parsed.name, estimate.resolution.unit, count
            )
    return estimates, observations.snapshot()


def per_line_table(estimator, counts, *, quarantine=None):
    """Both passes, one :func:`per_line_estimate` call per line."""
    items = list(counts.items()) if isinstance(counts, dict) else list(counts)
    estimates, snapshot = per_line_collect(
        estimator, items, quarantine=quarantine
    )
    stats = UnitFallback(estimator.max_grams)
    stats.merge(snapshot)
    ordinals: dict[str, int] = {}
    for i, (text, _) in enumerate(items):
        ordinals.setdefault(text, i)
    for text, estimate in list(estimates.items()):
        if estimate.status != STATUS_NAME_ONLY:
            continue
        try:
            estimates[text] = _estimate_or_raise(estimator, text, stats)
        except Exception as exc:
            if quarantine is None:
                raise
            quarantine.add(
                "estimate", ordinals[text], text,
                REASON_ESTIMATOR_ERROR, repr(exc),
            )
    return estimates


def per_line_corpus(recipes):
    """Recipe estimates from :func:`per_line_table` over the corpus."""
    counts = Counter(
        text for recipe in recipes for text in recipe.ingredient_texts
    )
    return _assemble(per_line_table(NutritionEstimator(), counts), recipes)


def encode_recipe_estimate(estimate) -> dict:
    """A recipe estimate as the ``/v1/estimate`` body dict, built whole.

    ``json.dumps(..., separators=(",", ":"))`` of this dict is what
    ``codec.assemble_recipe_estimate_bytes`` splices from fragments.
    """
    return {
        "servings": estimate.servings,
        "total": dict(estimate.total.values),
        "per_serving": dict(estimate.per_serving.values),
        "fraction_fully_mapped": estimate.fraction_fully_mapped,
        "fraction_name_mapped": estimate.fraction_name_mapped,
        "ingredients": [
            encode_ingredient_estimate(item) for item in estimate.ingredients
        ],
    }


def _render_recipes(estimator, recipes):
    """``(texts, servings)`` recipes as one corpus -> body dicts."""
    counts = Counter(text for texts, _ in recipes for text in texts)
    table, _ = estimator.corpus_protocol(
        dict(counts), quarantine=DeadLetterLog()
    )
    return [
        encode_recipe_estimate(
            NutritionEstimator.finish_recipe(
                [table[text] for text in texts], servings
            )
        )
        for texts, servings in recipes
    ]


def _dumps(body) -> bytes:
    return json.dumps(body, separators=(",", ":")).encode("utf-8")


def render_estimate_body(estimator, texts, servings) -> bytes:
    """The ``/v1/estimate`` body for one recipe, memo-free."""
    (body,) = _render_recipes(estimator, [(texts, servings)])
    return _dumps(body)


def render_batch_body(estimator, recipes) -> bytes:
    """The ``/v1/estimate_batch`` body for ``(texts, servings)`` recipes."""
    bodies = _render_recipes(estimator, recipes)
    return _dumps({"count": len(bodies), "recipes": bodies})


# ----------------------------------------------------------------------
# the first journal frame format


def rjl1_journal(path) -> None:
    """Rewrite the valid frames of the journal at *path* as ``RJL1``.

    Same header layout, magic ``b"RJL1"``, SHA-256 of the payload
    alone; any torn tail is dropped.
    """
    blob = path.read_bytes()
    scanned = RunJournal(path).scan()
    ends = [r.offset for r in scanned.records[1:]] + [scanned.valid_bytes]
    frames = []
    for record, end in zip(scanned.records, ends):
        payload = blob[record.offset + FRAME_HEADER_SIZE : end]
        frames.append(
            MAGIC_V1
            + bytes([record.kind])
            + len(payload).to_bytes(8, "big")
            + hashlib.sha256(payload).digest()
            + payload
        )
    path.write_bytes(b"".join(frames))
