"""Fault tolerance of the supervised sharded engine (ISSUE 6).

Every recovery path is driven deterministically through
``repro.faults`` (the ``REPRO_FAULTS`` environment variable crosses
the fork boundary to pool workers for free):

* a worker **crash** mid-chunk is detected, the worker respawned, the
  chunk retried — and the final result is **bit-identical** to the
  clean run (the two-phase protocol's chunk-order merge survives);
* a **hung** worker trips the chunk deadline, is killed and replaced;
* a fault that persists across the retry budget surfaces as a typed
  :class:`ChunkRetriesExhaustedError`;
* a **poison line** (estimator raises on it every attempt) is
  quarantined to a dead-letter record, and the surviving lines match
  a clean run over the corpus *minus* that line — the quarantine
  contract: a dead-lettered line behaves exactly as if absent;
* a **corrupt JSONL line** is skipped-and-counted by ingestion when
  asked, strict-raised by default;
* a coordinator that **dies hard** leaves no pool worker behind.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import (
    NutritionEstimator,
    RecipeGenerator,
    ShardedCorpusEstimator,
)
from repro.core.resolution import REASON_ESTIMATOR_ERROR
from repro.deadletter import REASON_MALFORMED_JSON, DeadLetterLog
from repro.faults import (
    CRASH_EXIT_CODE,
    FaultPlan,
    FaultSpecError,
    InjectedFault,
)
from repro.pipeline.errors import ChunkRetriesExhaustedError, PipelineError
from repro.recipedb.corpus import iter_recipes_jsonl, save_recipes_jsonl
from repro.recipedb.generator import GeneratorConfig


@pytest.fixture(scope="module")
def corpus():
    return RecipeGenerator(config=GeneratorConfig(seed=23)).generate(120)


@pytest.fixture(scope="module")
def counts(corpus):
    from collections import Counter

    return dict(
        Counter(t for recipe in corpus for t in recipe.ingredient_texts)
    )


@pytest.fixture(scope="module")
def clean_table(counts):
    return NutritionEstimator().corpus_estimate_table(dict(counts))


class TestFaultPlanParsing:
    def test_rules_parse(self):
        plan = FaultPlan.parse(
            "crash@collect-chunk:1;sleep@collect-chunk:0:2.5;"
            "raise@estimate-line:caviar;corrupt@ingest-line:7"
        )
        assert len(plan.rules) == 4
        actions = [rule.action for rule in plan.rules]
        assert actions == ["crash", "sleep", "raise", "corrupt"]

    def test_unknown_action_rejected(self):
        with pytest.raises(FaultSpecError, match="bad fault rule"):
            FaultPlan.parse("explode@collect-chunk:1")

    def test_missing_site_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse("crash")

    def test_sleep_needs_numeric_arg(self):
        with pytest.raises(FaultSpecError, match="numeric"):
            FaultPlan.parse("sleep@collect-chunk:0:soon")

    def test_crash_fires_first_attempt_only(self):
        rule = FaultPlan.parse("crash@collect-chunk:1").rules[0]
        assert not rule.every_attempt

    def test_always_suffix_fires_every_attempt(self):
        rule = FaultPlan.parse("crash@collect-chunk:1:always").rules[0]
        assert rule.every_attempt

    def test_raise_always_fires(self):
        plan = FaultPlan.parse("raise@estimate-line:caviar")
        assert plan.rules[0].every_attempt
        with pytest.raises(InjectedFault):
            plan.poison("1 oz caviar, chilled")
        plan.poison("2 cups flour")  # no match, no raise

    def test_corrupt_line_replaces_matching_line_only(self):
        plan = FaultPlan.parse("corrupt@ingest-line:3")
        assert plan.corrupt_line(2, '{"ok": 1}') == '{"ok": 1}'
        corrupted = plan.corrupt_line(3, '{"ok": 1}')
        with pytest.raises(Exception):
            import json

            json.loads(corrupted)

    def test_empty_spec_is_no_plan(self, monkeypatch):
        from repro import faults

        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        assert faults.active_plan() is None

    def test_crash_exit_code_is_distinctive(self):
        assert CRASH_EXIT_CODE == 70


class TestCrashRecovery:
    def test_crash_run_is_bit_identical_to_clean_run(
        self, monkeypatch, corpus
    ):
        """The acceptance criterion: one injected worker crash, two
        workers, result identical to the no-fault run."""
        clean = ShardedCorpusEstimator(
            workers=2, chunk_size=29
        ).estimate_corpus(corpus)
        monkeypatch.setenv("REPRO_FAULTS", "crash@collect-chunk:1")
        engine = ShardedCorpusEstimator(workers=2, chunk_size=29)
        assert engine.estimate_corpus(corpus) == clean
        report = engine.last_report
        assert report.worker_crashes >= 1
        assert report.respawns >= 1
        assert report.retries >= 1
        assert len(report.dead_letters) == 0

    def test_crash_in_fallback_phase_recovers(self, monkeypatch, corpus):
        clean = ShardedCorpusEstimator(
            workers=2, chunk_size=29
        ).estimate_corpus(corpus)
        monkeypatch.setenv("REPRO_FAULTS", "crash@fallback-chunk:0")
        engine = ShardedCorpusEstimator(workers=2, chunk_size=29)
        assert engine.estimate_corpus(corpus) == clean
        assert engine.last_report.worker_crashes >= 1

    def test_report_counters_shape(self, monkeypatch, corpus):
        monkeypatch.setenv("REPRO_FAULTS", "crash@collect-chunk:0")
        engine = ShardedCorpusEstimator(workers=2, chunk_size=29)
        engine.estimate_corpus(corpus)
        counters = engine.last_report.counters()
        assert set(counters) == {
            "retries", "respawns", "worker_crashes", "hung_workers",
            "dead_lettered",
        }


class TestHungWorkerRecovery:
    def test_hung_worker_is_killed_and_chunk_retried(
        self, monkeypatch, corpus
    ):
        clean = ShardedCorpusEstimator(
            workers=2, chunk_size=29
        ).estimate_corpus(corpus)
        # Sleep far beyond the deadline: only the kill path can finish
        # this test quickly, which is itself the assertion.
        monkeypatch.setenv("REPRO_FAULTS", "sleep@collect-chunk:0:60")
        engine = ShardedCorpusEstimator(
            workers=2, chunk_size=29, chunk_deadline_s=0.5
        )
        assert engine.estimate_corpus(corpus) == clean
        report = engine.last_report
        assert report.hung_workers >= 1
        assert report.respawns >= 1


class TestRetryExhaustion:
    def test_persistent_crash_exhausts_budget_with_typed_error(
        self, monkeypatch, counts
    ):
        monkeypatch.setenv("REPRO_FAULTS", "crash@collect-chunk:0:always")
        engine = ShardedCorpusEstimator(
            workers=2, chunk_size=29, max_chunk_retries=1
        )
        with pytest.raises(ChunkRetriesExhaustedError) as excinfo:
            engine.estimate_table(dict(counts))
        assert excinfo.value.chunk_id == 0
        assert excinfo.value.attempts == 2  # first try + 1 retry
        assert isinstance(excinfo.value, PipelineError)
        assert str(CRASH_EXIT_CODE) in str(excinfo.value)


class TestPoisonLineQuarantine:
    """A dead-lettered line behaves exactly as if absent."""

    @pytest.fixture(scope="class")
    def poisoned_text(self, counts):
        # Pick a line that is unique enough to select by substring:
        # the longest distinct line (its full text is its selector).
        return max(counts, key=len)

    def test_strict_default_propagates(self, monkeypatch, counts,
                                       poisoned_text):
        monkeypatch.setenv(
            "REPRO_FAULTS", f"raise@estimate-line:{poisoned_text}"
        )
        engine = ShardedCorpusEstimator(workers=1)
        with pytest.raises(InjectedFault):
            engine.estimate_table(dict(counts))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_quarantine_matches_corpus_minus_line(
        self, monkeypatch, counts, poisoned_text, workers
    ):
        reduced = {
            text: n for text, n in counts.items() if text != poisoned_text
        }
        clean_minus = ShardedCorpusEstimator(
            workers=workers, chunk_size=29
        ).estimate_table(reduced)
        monkeypatch.setenv(
            "REPRO_FAULTS", f"raise@estimate-line:{poisoned_text}"
        )
        engine = ShardedCorpusEstimator(
            workers=workers, chunk_size=29, quarantine=True
        )
        table = engine.estimate_table(dict(counts))
        # Every surviving line is bit-identical to the run without the
        # poisoned line...
        for text in reduced:
            assert table[text] == clean_minus[text]
        # ...and the poisoned line carries a typed placeholder.
        assert table[poisoned_text].reason == REASON_ESTIMATOR_ERROR
        assert table[poisoned_text].status == "unmatched"
        report = engine.last_report
        assert len(report.dead_letters) == 1
        letter = report.dead_letters.records[0]
        assert letter.source == "estimate"
        assert letter.reason == REASON_ESTIMATOR_ERROR
        assert poisoned_text.startswith(letter.input) or (
            letter.input == poisoned_text
        )
        assert "InjectedFault" in letter.detail

    def test_quarantine_without_fault_changes_nothing(
        self, counts, clean_table
    ):
        table = ShardedCorpusEstimator(
            workers=2, chunk_size=29, quarantine=True
        ).estimate_table(dict(counts))
        assert table == clean_table


class TestIngestQuarantine:
    @pytest.fixture()
    def corpus_path(self, tmp_path, corpus):
        path = tmp_path / "corpus.jsonl"
        save_recipes_jsonl(list(corpus), path)
        return path

    def test_strict_default_raises_on_corruption(
        self, monkeypatch, corpus_path
    ):
        import json

        monkeypatch.setenv("REPRO_FAULTS", "corrupt@ingest-line:3")
        with pytest.raises(json.JSONDecodeError):
            list(iter_recipes_jsonl(corpus_path))

    def test_skip_mode_counts_and_continues(
        self, monkeypatch, corpus_path, corpus
    ):
        monkeypatch.setenv("REPRO_FAULTS", "corrupt@ingest-line:3")
        letters = DeadLetterLog()
        recipes = list(
            iter_recipes_jsonl(
                corpus_path, on_error="skip", dead_letters=letters
            )
        )
        assert len(recipes) == len(corpus) - 1
        assert len(letters) == 1
        letter = letters.records[0]
        assert letter.source == "ingest"
        assert letter.line_no == 3
        assert letter.reason == REASON_MALFORMED_JSON

    def test_invalid_on_error_value_rejected(self, corpus_path):
        with pytest.raises(ValueError, match="on_error"):
            list(iter_recipes_jsonl(corpus_path, on_error="ignore"))

    def test_engine_quarantines_corrupt_line_end_to_end(
        self, monkeypatch, corpus_path, corpus
    ):
        """Engine over a corpus with line 3 corrupted == clean engine
        over the corpus without recipe 3, and the dead-letter report
        names the line."""
        reduced = [r for i, r in enumerate(corpus, start=1) if i != 3]
        clean = ShardedCorpusEstimator(
            workers=2, chunk_size=29
        ).estimate_corpus(reduced)
        monkeypatch.setenv("REPRO_FAULTS", "corrupt@ingest-line:3")
        engine = ShardedCorpusEstimator(
            workers=2, chunk_size=29, quarantine=True
        )
        assert engine.estimate_corpus(corpus_path) == clean
        report = engine.last_report
        assert len(report.dead_letters) == 1
        assert report.dead_letters.records[0].line_no == 3
        rendered = report.dead_letters.render()
        assert "line 3" in rendered
        assert REASON_MALFORMED_JSON in rendered

    def test_strict_engine_propagates_corruption(
        self, monkeypatch, corpus_path
    ):
        import json

        monkeypatch.setenv("REPRO_FAULTS", "corrupt@ingest-line:3")
        engine = ShardedCorpusEstimator(workers=1)
        with pytest.raises(json.JSONDecodeError):
            engine.estimate_corpus(corpus_path)


class TestEngineValidation:
    def test_bad_retry_budget_rejected(self):
        with pytest.raises(ValueError, match="max_chunk_retries"):
            ShardedCorpusEstimator(max_chunk_retries=-1)

    def test_supervisor_validates_deadline(self):
        from repro.pipeline.supervisor import SupervisedWorkerPool

        with pytest.raises(ValueError, match="deadline_s"):
            SupervisedWorkerPool(None, {}, 1, deadline_s=0)


_ORPHANING_COORDINATOR = """
import os, sys, time
from repro.pipeline import EstimatorSpec, ShardedCorpusEstimator
from repro.pipeline.supervisor import SupervisedWorkerPool


def big_result(state, seconds, task_id, attempt):
    time.sleep(seconds)
    return bytes(1 << 20)  # far more than a pipe buffer holds


if sys.argv[2] == "idle":
    engine = ShardedCorpusEstimator(EstimatorSpec(), workers=2)
    engine.ensure_pool()
    pool = engine._pool
else:  # one worker is still busy, and its result will find no reader
    pool = SupervisedWorkerPool(EstimatorSpec(), {"big": big_result}, 2)
    next(pool.run("big", [0.0, 1.0]))
with open(sys.argv[1], "w") as fh:
    fh.write(" ".join(str(w.process.pid) for w in pool._workers.values()))
os._exit(0)
"""


def _running(pid: int) -> bool:
    """True while *pid* exists and is not a zombie (an orphan's reaper
    need not reap it)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            return not any(
                line.startswith("State:") and "Z" in line for line in fh
            )
    except FileNotFoundError:
        return False


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc"
)
class TestOrphanedWorkers:
    @pytest.mark.parametrize("state", ["idle", "busy"])
    def test_workers_exit_when_coordinator_dies_hard(self, tmp_path, state):
        """A coordinator that hard-exits leaves no worker behind: right
        after spawning its pool (idle workers), or while a worker
        computes a result too large to flush into a pipe nobody reads
        (busy)."""
        import repro

        pid_file = tmp_path / "pids.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        subprocess.run(
            [
                sys.executable, "-c", _ORPHANING_COORDINATOR,
                str(pid_file), state,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=60,
            check=True,
        )
        pids = [int(pid) for pid in pid_file.read_text().split()]
        assert len(pids) == 2
        try:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and any(map(_running, pids)):
                time.sleep(0.05)
            assert not any(map(_running, pids))
        finally:
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)
