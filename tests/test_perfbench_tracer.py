"""The benchmark tracer can still wrap every layer it names.

``perfbench/tracer.py`` measures per-layer time by replacing named
module attributes and class methods of the program with span-recording
wrappers.  It looks each name up directly, so installing the batch and
service wrappers raises as soon as one of those names is renamed or
deleted.  This test installs both and restores them, so such a change
fails here instead of silently dropping a layer from the benchmark.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def _layers():
    """(owner, attribute) pairs every workload's ledger depends on."""
    from repro.core import columnar, estimator
    from repro.matching.matcher import DescriptionMatcher
    from repro.ner.rule_tagger import RuleBasedTagger

    return [
        (estimator, "run_unit_chain"),
        (DescriptionMatcher, "match"),
        (DescriptionMatcher, "match_chunk"),
        (RuleBasedTagger, "predict_batch"),
        (columnar, "tokenize_fast"),
    ]


def _service_layers():
    from repro.service import codec, state
    from repro.service.state import ServiceState

    return [
        (state, "snapshot_digest"),
        (ServiceState, "estimate"),
        (codec, "dumps_ingredient_fragment"),
        (codec, "assemble_recipe_estimate_bytes"),
    ]


@pytest.mark.parametrize(
    "install, extra",
    [("install_batch", lambda: []), ("install_service", _service_layers)],
    ids=["batch", "service"],
)
def test_tracer_wraps_named_layers_and_restores(tracer, install, extra):
    targets = _layers() + extra()
    originals = [getattr(owner, name) for owner, name in targets]
    patcher = getattr(tracer, install)(tracer.Tracer())
    try:
        for (owner, name), original in zip(targets, originals):
            wrapped = getattr(owner, name)
            assert wrapped is not original, name
            assert getattr(wrapped, "__wrapped__", None) is original, name
    finally:
        patcher.restore()
    for (owner, name), original in zip(targets, originals):
        assert getattr(owner, name) is original, name
