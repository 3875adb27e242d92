"""End-to-end explanations of one ingredient line (explain surface).

Parses the line, ranks descriptions with
:func:`repro.matching.explain.explain_match`, then runs the
estimator's own per-line tail
(:meth:`NutritionEstimator._estimate_from_parsed`) with a recorder
attached, which collects a verbose :class:`StageReport` for every
chain stage (including skipped ones).  So ``repro explain`` and
``/v1/explain`` show exactly the decisions the estimator made, from
NER tags down to the reason code.

Determinism: the corpus-frequent-unit strategy consults **only**
statistics collected from the optional *context* lines (never the
estimator's live table), so an explanation is a pure function of
``(text, context)`` — which also makes the HTTP endpoint cacheable.
With an empty context the result matches a single-line
``/v1/estimate`` request; with context lines it demonstrates the
paper's garlic → clove rescue end to end.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.estimator import (
    STATUS_FULL,
    IngredientEstimate,
    NutritionEstimator,
)
from repro.matching.explain import MatchExplanation, explain_match
from repro.units.fallback import UnitFallback
from repro.units.gram_weights import UnitResolution


@dataclass(frozen=True, slots=True)
class StageReport:
    """Verbose record of one resolution-chain stage."""

    stage: str
    outcome: str
    detail: str = ""
    unit: str | None = None
    grams_per_unit: float | None = None


class _StageRecorder:
    """Collects :class:`StageReport` rows from the chain driver."""

    __slots__ = ("reports",)

    def __init__(self) -> None:
        self.reports: list[StageReport] = []

    def record(
        self,
        stage: str,
        outcome: str,
        detail: str = "",
        resolution: UnitResolution | None = None,
    ) -> None:
        self.reports.append(
            StageReport(
                stage=stage,
                outcome=outcome,
                detail=detail,
                unit=None if resolution is None else resolution.unit,
                grams_per_unit=(
                    None if resolution is None else resolution.grams_per_unit
                ),
            )
        )


@dataclass(frozen=True, slots=True)
class LineExplanation:
    """Everything the pipeline decided about one ingredient line."""

    estimate: IngredientEstimate
    match_explanation: MatchExplanation | None
    stages: tuple[StageReport, ...]
    context_lines: int = 0

    @property
    def text(self) -> str:
        return self.estimate.parsed.text

    def render(self) -> str:
        """Multi-section human-readable report."""
        parsed = self.estimate.parsed
        lines = [f"phrase: {parsed.text!r}"]
        lines.append(
            "tags:   "
            + "  ".join(f"{t}/{g}" for t, g in zip(parsed.tokens, parsed.tags))
        )
        lines.append(
            f"parsed: name={parsed.name!r} qty={parsed.quantity!r} "
            f"unit={parsed.unit!r} size={parsed.size!r} "
            f"state={parsed.state!r}"
        )
        if self.match_explanation is not None:
            lines.append("")
            lines.append("description match:")
            for row in self.match_explanation.render().splitlines():
                lines.append(f"  {row}")
        if self.stages:
            lines.append("")
            source = (
                f"statistics from {self.context_lines} context line(s)"
                if self.context_lines
                else "no context lines (corpus statistics empty)"
            )
            lines.append(f"unit resolution chain ({source}):")
            for report in self.stages:
                gram = (
                    f"  [{report.unit} = {report.grams_per_unit:g} g]"
                    if report.unit is not None
                    else ""
                )
                lines.append(
                    f"  {report.stage:22} {report.outcome:14} "
                    f"{report.detail}{gram}"
                )
        lines.append("")
        estimate = self.estimate
        verdict = f"verdict: status={estimate.status} reason={estimate.reason}"
        if estimate.status == STATUS_FULL:
            verdict += (
                f" grams={estimate.grams:g} "
                f"calories={estimate.calories:g}"
            )
        lines.append(verdict)
        lines.append(f"trace: {' -> '.join(estimate.trace)}")
        return "\n".join(lines)


def explain_line(
    estimator: NutritionEstimator,
    text: str,
    *,
    context: Iterable[str] = (),
    k: int = 5,
    statistics: UnitFallback | None = None,
) -> LineExplanation:
    """Explain one ingredient line end to end.

    *context* lines feed the corpus-frequent-unit statistics exactly
    as the collect pass of the two-phase protocol would (weighted by
    multiplicity), into a table of their own, so explaining cannot
    perturb — or be perturbed by — other estimation on the same
    estimator.  A caller that already holds the context's pass-1
    outcomes passes the table they make as *statistics*, and the
    context is then only counted.
    """
    context = tuple(context)
    parsed = estimator.parse(text)
    match_explanation = None
    if parsed.name:
        match_explanation = explain_match(
            estimator.matcher,
            parsed.name,
            parsed.state,
            parsed.temperature,
            parsed.dry_fresh,
            k=k,
        )

    if statistics is None:
        statistics = UnitFallback(estimator.max_grams)
        if context:
            _, snapshot = estimator.corpus_collect_estimates(
                Counter(context).items()
            )
            statistics.merge(snapshot)

    recorder = _StageRecorder()
    estimate = estimator._estimate_from_parsed(
        parsed, statistics, recorder=recorder
    )
    return LineExplanation(
        estimate=estimate,
        match_explanation=match_explanation,
        stages=tuple(recorder.reports),
        context_lines=len(context),
    )
