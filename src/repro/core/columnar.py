"""Columnar per-chunk estimation: batch the parse, keep the bits.

The per-line reference — :meth:`NutritionEstimator.parse` followed by
:meth:`NutritionEstimator._estimate_from_parsed`, the oracle in
``tests/references.py`` — walks every stage (tokenize, NER tag, entity
grouping, description match, unit chain) once per line.  This module,
the estimator's only estimation path, reorganizes the parse
*chunk-at-a-time*:

1. **Parse stage** — the chunk's distinct lines are tokenized
   together (ASCII fast path), tagged with the tagger's
   ``predict_batch`` when it has one (the perceptron runs one
   chunk-wide emission gather, the rule tagger memoizes its pure
   per-token rules), and grouped through the same
   :func:`repro.core.estimator.group_entities`.
2. **Tail stage** — every line then runs the unmodified
   :meth:`NutritionEstimator._estimate_from_parsed` (description
   match, quantity parse, unit chain, profile) on its parse from
   stage 1.  Matching stays per line: the matcher's memo is filled in
   first-occurrence order, as in the per-line loop.

Stage 1 keeps no parse memo across chunks.  Callers hand this module
distinct lines — the engine collapses duplicates into a line table,
and the service answers repeat lines from its line-outcome memo — so
a cross-chunk parse memo would hit almost never while holding every
parse it saw.

**Parity contract.**  Stage 1 computes the same parse the per-line
path computes (tokenizing is pure, tagging and grouping are the same
code), and stage 2 is literally the per-line code — so estimates,
reason codes, traces and per-line exception surfacing are
bit-identical to the reference.
``tests/test_columnar_parity.py`` sweeps this differentially across
all matcher configs and chunk sizes.

Failures stay per-line: any line whose stage raises (poisoned input,
fault injection, hostile text) is captured as a :class:`LineOutcome`
error and re-raised by the caller at that line's position, exactly
where the per-line loop would have raised it.
"""

from __future__ import annotations

from repro import faults
from repro.core.estimator import (
    IngredientEstimate,
    NutritionEstimator,
    ParsedIngredient,
    group_entities,
)
from repro.text.tokenize import tokenize_fast
from repro.units.fallback import UnitFallback
from repro.utils import DEFAULT_CACHE_CAP, BoundedCache


class LineOutcome:
    """One line's result: an estimate, or the exception its stage raised."""

    __slots__ = ("estimate", "error")

    def __init__(
        self,
        estimate: IngredientEstimate | None = None,
        error: BaseException | None = None,
    ):
        self.estimate = estimate
        self.error = error

    def unwrap(self) -> IngredientEstimate:
        """The estimate, or re-raise the captured per-line exception."""
        if self.error is not None:
            raise self.error
        return self.estimate


class ColumnarPipeline:
    """Chunk-batched front end over one :class:`NutritionEstimator`."""

    def __init__(self, estimator: NutritionEstimator):
        self._estimator = estimator
        # quantity string -> parsed float (or None): pure function,
        # heavily repeated ("1", "1/2", "2") across any real chunk.
        self._quantity_memo: dict[str, float | None] = BoundedCache(
            DEFAULT_CACHE_CAP
        )

    def estimate_lines(
        self, texts: list[str], *, stats: UnitFallback | None = None
    ) -> list[LineOutcome]:
        """Estimate a chunk of lines; one :class:`LineOutcome` each.

        Drop-in chunk equivalent of calling
        ``_estimate_from_parsed(parse(text), stats)`` per line after
        the fault plan's poison check: the caller loops the outcomes
        in order and ``unwrap()``s, getting identical estimates and
        identical exceptions at identical positions.
        """
        estimator = self._estimator
        outcomes: list[LineOutcome | None] = [None] * len(texts)

        plan = faults.active_plan()
        if plan is not None:
            for i, text in enumerate(texts):
                try:
                    plan.poison(text)
                except Exception as exc:
                    outcomes[i] = LineOutcome(error=exc)

        # Stage 1: batched parse of the chunk's distinct lines.
        parsed: dict[str, ParsedIngredient | LineOutcome] = {}
        pending: list[str] = []
        for i, text in enumerate(texts):
            if outcomes[i] is not None or text in parsed:
                continue
            parsed[text] = None  # placeholder keeps order/dedup
            pending.append(text)
        if pending:
            self._parse_batch(pending, parsed)

        # Stage 2: the per-line tail (match, unit chain, profile).
        memo = self._quantity_memo
        for i, text in enumerate(texts):
            if outcomes[i] is not None:
                continue
            item = parsed[text]
            if isinstance(item, LineOutcome):
                outcomes[i] = item
                continue
            try:
                outcomes[i] = LineOutcome(
                    estimate=estimator._estimate_from_parsed(
                        item, stats, quantity_memo=memo
                    )
                )
            except Exception as exc:
                outcomes[i] = LineOutcome(error=exc)
        return outcomes

    def _parse_batch(
        self,
        pending: list[str],
        parsed: dict[str, ParsedIngredient | LineOutcome],
    ) -> None:
        """Tokenize + tag + group *pending* texts, chunk-at-a-time.

        Results (or per-line failures) land in *parsed*.
        """
        estimator = self._estimator
        token_lists: list[list[str] | None] = []
        for text in pending:
            try:
                token_lists.append(tokenize_fast(text))
            except Exception as exc:
                parsed[text] = LineOutcome(error=exc)
                token_lists.append(None)
        ok = [
            (text, tokens)
            for text, tokens in zip(pending, token_lists)
            if tokens is not None
        ]
        if not ok:
            return

        tagger = estimator.tagger
        batch = getattr(tagger, "predict_batch", None)
        tags_lists: list[list[str] | LineOutcome] | None = None
        if batch is not None:
            try:
                tags_lists = batch([list(tokens) for _, tokens in ok])
            except Exception:
                tags_lists = None  # per-line fallback surfaces errors
        if tags_lists is None:
            tags_lists = []
            for _, tokens in ok:
                try:
                    tags_lists.append(tagger.predict(list(tokens)))
                except Exception as exc:
                    tags_lists.append(LineOutcome(error=exc))

        for (text, tokens), tags in zip(ok, tags_lists):
            if isinstance(tags, LineOutcome):
                parsed[text] = tags
                continue
            try:
                result = group_entities(text, tuple(tokens), tuple(tags))
            except Exception as exc:
                parsed[text] = LineOutcome(error=exc)
                continue
            parsed[text] = result
