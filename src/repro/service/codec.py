"""Request validation, normalization and response encoding.

The service boundary in one module:

* **Validation** — each ``validate_*`` function turns an untrusted
  decoded-JSON payload into a frozen request dataclass or raises
  :class:`~repro.service.errors.ValidationError` naming the offending
  field (``recipes[3].servings``).  Limits bound what a single request
  can cost; they are module constants so tests and docs cite one
  source of truth.
* **Normalization** — ingredient phrases are whitespace-stripped and
  request dataclasses are canonical, so two payloads that differ only
  in JSON key order, float-vs-int servings spelling or surrounding
  whitespace produce the same :func:`cache_key` and hit the same
  cached response.
* **Encoding** — ``encode_*`` functions render the pipeline's result
  dataclasses (:class:`RecipeEstimate`, :class:`MatchResult`, ...) as
  JSON-ready dicts.  Profile floats are emitted untouched —
  ``json.dumps`` uses ``repr`` round-tripping, so a client reading
  ``per_serving`` recovers bit-identical values to the in-process
  estimator (the service parity guarantee).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.estimator import IngredientEstimate, ParsedIngredient, RecipeEstimate
from repro.core.explain import LineExplanation
from repro.matching.types import MatchResult
from repro.service.errors import ValidationError

#: Hard caps on what one request may ask for.  Generous for real
#: recipes (RecipeDB's largest have < 100 lines) while bounding the
#: work a single malicious payload can demand.
MAX_INGREDIENTS_PER_RECIPE = 300
MAX_RECIPES_PER_BATCH = 5000
MAX_PHRASE_CHARS = 500
MAX_SERVINGS = 1000
MAX_TOP = 50
#: Context lines one ``/v1/explain`` request may feed the
#: most-frequent-unit statistics.
MAX_EXPLAIN_CONTEXT = 300
#: Default candidate-list depth for ``/v1/explain``.
DEFAULT_EXPLAIN_TOP = 5


@dataclass(frozen=True, slots=True)
class EstimateRequest:
    """Validated ``/v1/estimate`` payload (also one batch entry)."""

    ingredients: tuple[str, ...]
    servings: int


@dataclass(frozen=True, slots=True)
class BatchRequest:
    """Validated ``/v1/estimate_batch`` payload."""

    recipes: tuple[EstimateRequest, ...]


@dataclass(frozen=True, slots=True)
class MatchRequest:
    """Validated ``/v1/match`` payload."""

    name: str
    state: str
    temperature: str
    dry_fresh: str
    top: int  # 0 = single best match; >0 = ranked candidate list


@dataclass(frozen=True, slots=True)
class ParseRequest:
    """Validated ``/v1/parse`` payload."""

    text: str


@dataclass(frozen=True, slots=True)
class ExplainRequest:
    """Validated ``/v1/explain`` payload."""

    text: str
    context: tuple[str, ...]
    top: int


# ----------------------------------------------------------------------
# validation


def _require_object(payload, where: str) -> dict:
    if not isinstance(payload, dict):
        raise ValidationError(
            f"expected a JSON object, got {type(payload).__name__}",
            field=where,
        )
    return payload


def _reject_unknown_keys(payload: dict, known: frozenset[str], where: str) -> None:
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ValidationError(
            f"unknown key(s): {', '.join(unknown)}", field=where
        )


def _string(value, where: str, *, max_chars: int = MAX_PHRASE_CHARS) -> str:
    if not isinstance(value, str):
        raise ValidationError(
            f"expected a string, got {type(value).__name__}", field=where
        )
    if len(value) > max_chars:
        raise ValidationError(
            f"string too long ({len(value)} > {max_chars} chars)", field=where
        )
    return value


def _int(value, where: str, *, lo: int, hi: int) -> int:
    # bool is an int subclass; JSON true/false must not pass as 1/0.
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value.is_integer():
            value = int(value)  # tolerate "servings": 4.0
        else:
            raise ValidationError(
                f"expected an integer, got {value!r}", field=where
            )
    if not lo <= value <= hi:
        raise ValidationError(
            f"must be between {lo} and {hi}, got {value}", field=where
        )
    return value


def validate_estimate(payload, where: str = "") -> EstimateRequest:
    """``{"ingredients": [str, ...], "servings": int?}`` -> request."""
    prefix = f"{where}." if where else ""
    payload = _require_object(payload, where or "(body)")
    _reject_unknown_keys(
        payload, frozenset({"ingredients", "servings"}), where or "(body)"
    )
    if "ingredients" not in payload:
        raise ValidationError(
            "missing required key 'ingredients'", field=where or "(body)"
        )
    raw = payload["ingredients"]
    if not isinstance(raw, list):
        raise ValidationError(
            f"expected a list, got {type(raw).__name__}",
            field=f"{prefix}ingredients",
        )
    if not raw:
        raise ValidationError(
            "must contain at least one ingredient phrase",
            field=f"{prefix}ingredients",
        )
    if len(raw) > MAX_INGREDIENTS_PER_RECIPE:
        raise ValidationError(
            f"too many ingredients ({len(raw)} > "
            f"{MAX_INGREDIENTS_PER_RECIPE})",
            field=f"{prefix}ingredients",
        )
    ingredients = tuple(
        _string(text, f"{prefix}ingredients[{i}]").strip()
        for i, text in enumerate(raw)
    )
    servings = _int(
        payload.get("servings", 1),
        f"{prefix}servings",
        lo=1,
        hi=MAX_SERVINGS,
    )
    return EstimateRequest(ingredients=ingredients, servings=servings)


def validate_batch(payload) -> BatchRequest:
    """``{"recipes": [estimate payload, ...]}`` -> request."""
    payload = _require_object(payload, "(body)")
    _reject_unknown_keys(payload, frozenset({"recipes"}), "(body)")
    if "recipes" not in payload:
        raise ValidationError("missing required key 'recipes'", field="(body)")
    raw = payload["recipes"]
    if not isinstance(raw, list):
        raise ValidationError(
            f"expected a list, got {type(raw).__name__}", field="recipes"
        )
    if not raw:
        raise ValidationError(
            "must contain at least one recipe", field="recipes"
        )
    if len(raw) > MAX_RECIPES_PER_BATCH:
        raise ValidationError(
            f"too many recipes ({len(raw)} > {MAX_RECIPES_PER_BATCH})",
            field="recipes",
        )
    return BatchRequest(
        recipes=tuple(
            validate_estimate(entry, f"recipes[{i}]")
            for i, entry in enumerate(raw)
        )
    )


def validate_match(payload) -> MatchRequest:
    """``{"name": str, "state"?, "temperature"?, "dry_fresh"?, "top"?}``."""
    payload = _require_object(payload, "(body)")
    _reject_unknown_keys(
        payload,
        frozenset({"name", "state", "temperature", "dry_fresh", "top"}),
        "(body)",
    )
    if "name" not in payload:
        raise ValidationError("missing required key 'name'", field="(body)")
    name = _string(payload["name"], "name").strip()
    if not name:
        raise ValidationError("must be a non-empty string", field="name")
    return MatchRequest(
        name=name,
        state=_string(payload.get("state", ""), "state").strip(),
        temperature=_string(
            payload.get("temperature", ""), "temperature"
        ).strip(),
        dry_fresh=_string(payload.get("dry_fresh", ""), "dry_fresh").strip(),
        top=_int(payload.get("top", 0), "top", lo=0, hi=MAX_TOP),
    )


def validate_parse(payload) -> ParseRequest:
    """``{"text": str}`` -> request."""
    payload = _require_object(payload, "(body)")
    _reject_unknown_keys(payload, frozenset({"text"}), "(body)")
    if "text" not in payload:
        raise ValidationError("missing required key 'text'", field="(body)")
    text = _string(payload["text"], "text").strip()
    if not text:
        raise ValidationError("must be a non-empty string", field="text")
    return ParseRequest(text=text)


def validate_explain(payload) -> ExplainRequest:
    """``{"text": str, "context"?: [str, ...], "top"?: int}`` -> request."""
    payload = _require_object(payload, "(body)")
    _reject_unknown_keys(
        payload, frozenset({"text", "context", "top"}), "(body)"
    )
    if "text" not in payload:
        raise ValidationError("missing required key 'text'", field="(body)")
    text = _string(payload["text"], "text").strip()
    if not text:
        raise ValidationError("must be a non-empty string", field="text")
    raw_context = payload.get("context", [])
    if not isinstance(raw_context, list):
        raise ValidationError(
            f"expected a list, got {type(raw_context).__name__}",
            field="context",
        )
    if len(raw_context) > MAX_EXPLAIN_CONTEXT:
        raise ValidationError(
            f"too many context lines ({len(raw_context)} > "
            f"{MAX_EXPLAIN_CONTEXT})",
            field="context",
        )
    context = tuple(
        _string(line, f"context[{i}]").strip()
        for i, line in enumerate(raw_context)
    )
    top = _int(
        payload.get("top", DEFAULT_EXPLAIN_TOP), "top", lo=0, hi=MAX_TOP
    )
    return ExplainRequest(text=text, context=context, top=top)


# ----------------------------------------------------------------------
# cache keys


def cache_key(endpoint: str, request) -> str:
    """Canonical string key for a validated, normalized request.

    Built from the frozen request dataclass (already normalized), not
    the raw payload, so JSON spelling differences cannot split cache
    entries.
    """

    def plain(obj):
        if isinstance(obj, tuple):
            return [plain(item) for item in obj]
        if hasattr(obj, "__dataclass_fields__"):
            return {
                name: plain(getattr(obj, name))
                for name in obj.__dataclass_fields__
            }
        return obj

    return endpoint + "\x00" + json.dumps(
        plain(request), sort_keys=True, separators=(",", ":")
    )


# ----------------------------------------------------------------------
# response encoding


def encode_parsed(parsed: ParsedIngredient) -> dict:
    """Entity view of one tagged phrase."""
    return {
        "text": parsed.text,
        "tokens": list(parsed.tokens),
        "tags": list(parsed.tags),
        "name": parsed.name,
        "state": parsed.state,
        "unit": parsed.unit,
        "quantity": parsed.quantity,
        "temperature": parsed.temperature,
        "dry_fresh": parsed.dry_fresh,
        "size": parsed.size,
    }


def encode_match(match: MatchResult) -> dict:
    """A description match, without the bulky food record."""
    return {
        "ndb_no": match.food.ndb_no,
        "description": match.food.description,
        "score": match.score,
        "priority": match.priority,
        "db_index": match.db_index,
        "matched_words": sorted(match.matched_words),
        "raw_added": match.raw_added,
    }


def encode_ingredient_estimate(estimate: IngredientEstimate) -> dict:
    """One line's estimation outcome with provenance."""
    resolution = None
    if estimate.resolution is not None:
        resolution = {
            "unit": estimate.resolution.unit,
            "grams_per_unit": estimate.resolution.grams_per_unit,
            "method": estimate.resolution.method,
        }
    return {
        "text": estimate.parsed.text,
        "status": estimate.status,
        "match": None if estimate.match is None else encode_match(estimate.match),
        "resolution": resolution,
        "quantity": estimate.quantity,
        "grams": estimate.grams,
        "calories": estimate.calories,
        "used_fallback_unit": estimate.used_fallback_unit,
        "reason": estimate.reason,
        "trace": list(estimate.trace),
        "profile": dict(estimate.profile.values),
        "parsed": encode_parsed(estimate.parsed),
    }


# ----------------------------------------------------------------------
# fragment assembly


@dataclass(frozen=True, slots=True)
class SplicedBody:
    """A response body kept as a shell plus shared fragment bytes.

    ``shell`` is a rendered JSON object whose last member is an empty
    array (it ends ``[]}``); ``fragments`` are that array's items,
    already serialized.  :meth:`join` writes them into the array,
    which by the concatenation argument of
    :func:`assemble_recipe_estimate_bytes` equals rendering the whole
    object at once.  The response cache keeps ``/v1/estimate`` bodies
    in this form, so an entry references the fragment bytes the
    service's line memo holds instead of a joined copy of them.
    """

    shell: bytes
    fragments: tuple[bytes, ...]

    def __len__(self) -> int:
        """Length of the joined body."""
        commas = max(len(self.fragments) - 1, 0)
        return len(self.shell) + sum(map(len, self.fragments)) + commas

    def join(self) -> bytes:
        return b"".join(
            (self.shell[:-2], b",".join(self.fragments), self.shell[-2:])
        )


def dumps_ingredient_fragment(estimate: IngredientEstimate) -> bytes:
    """One ingredient estimate as compact JSON bytes.

    The unit the service splices into every recipe that uses the
    line, instead of re-running ``json.dumps`` per occurrence.  A
    pass-1 fragment is rendered once per process and kept in the line
    memo; a line that pass 2 re-estimates is rendered per request.
    """
    return json.dumps(
        encode_ingredient_estimate(estimate), separators=(",", ":")
    ).encode("utf-8")


def assemble_recipe_estimate_bytes(
    estimate: RecipeEstimate, fragments: Sequence[bytes]
) -> bytes:
    """Splice pre-serialized ingredient fragments into a recipe body.

    The ``/v1/estimate`` response body: the recipe-level fields in
    response key order, then ``ingredients``.  With
    ``separators=(",", ":")`` the dump of a composite object is exactly
    the concatenation of the dumps of its parts, so dropping the head's
    closing brace and appending the ``ingredients`` array from the
    rendered fragments equals a monolithic dump of the whole dict
    (``tests/test_fragment_cache.py`` pins the equality against the
    dict built by ``tests/references.py::encode_recipe_estimate``).
    *fragments* must be the recipe's ingredients in order.
    """
    head = json.dumps(
        {
            "servings": estimate.servings,
            "total": dict(estimate.total.values),
            "per_serving": dict(estimate.per_serving.values),
            "fraction_fully_mapped": estimate.fraction_fully_mapped,
            "fraction_name_mapped": estimate.fraction_name_mapped,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    return b"".join(
        (head[:-1], b',"ingredients":[', b",".join(fragments), b"]}")
    )


def assemble_batch_bytes(recipes: Sequence[bytes]) -> bytes:
    """Splice per-recipe bodies into an ``/v1/estimate_batch`` body.

    Byte-identical to ``dumps_body`` over the dict the endpoint used
    to build (``{"count": N, "recipes": [...]}``), for the same
    concatenation argument as
    :func:`assemble_recipe_estimate_bytes`.
    """
    return b"".join(
        (
            b'{"count":',
            str(len(recipes)).encode("ascii"),
            b',"recipes":[',
            b",".join(recipes),
            b"]}",
        )
    )


def encode_explanation(explanation: LineExplanation) -> dict:
    """A full line explanation (the ``/v1/explain`` response body)."""
    match_explanation = explanation.match_explanation
    candidates = []
    query_words: list[str] = []
    if match_explanation is not None:
        candidates = [encode_match(c) for c in match_explanation.candidates]
        query_words = sorted(match_explanation.query_words)
    return {
        "text": explanation.text,
        "status": explanation.estimate.status,
        "reason": explanation.estimate.reason,
        "trace": list(explanation.estimate.trace),
        "estimate": encode_ingredient_estimate(explanation.estimate),
        "match_query_words": query_words,
        "candidates": candidates,
        "stages": [
            {
                "stage": report.stage,
                "outcome": report.outcome,
                "detail": report.detail,
                "unit": report.unit,
                "grams_per_unit": report.grams_per_unit,
            }
            for report in explanation.stages
        ],
        "context_lines": explanation.context_lines,
    }


def dumps_body(body: dict | bytes | SplicedBody) -> bytes:
    """Serialize a response body exactly as the server ships it.

    Bodies that were already assembled from rendered fragments (the
    estimation endpoints return bytes or a :class:`SplicedBody`) pass
    through untouched or joined, so the dispatch path is agnostic to
    which render path produced them.
    """
    if isinstance(body, bytes):
        return body
    if isinstance(body, SplicedBody):
        return body.join()
    return json.dumps(body, separators=(",", ":")).encode("utf-8")
