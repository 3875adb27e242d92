"""Durable batch runs: crash-safe journaling and bit-identical resume.

The contract under test (ISSUE 7): a durable run killed at **any**
chunk boundary — or mid-journal-append, leaving a torn tail — resumes
with ``--resume`` to output bit-identical to an uninterrupted run,
re-executing only the chunks the journal does not hold.

Three layers:

* in-process engine tests truncate the journal at every frame
  boundary and resume (fast, exhaustive);
* CLI tests drive ``batch --run-dir`` / ``--resume`` / ``runs``
  in-process;
* subprocess chaos tests kill a real ``repro batch`` driver through
  the fault plan (``crash@journal-append`` / ``corrupt@journal-append``
  / SIGINT) and byte-compare the resumed output against a clean run.

Subprocess hygiene: a driver that hard-exits leaves its daemon pool
workers briefly alive, so child stdout goes to a file (never a pipe,
which inherited worker fds would hold open) and each child gets its
own session, killed wholesale in cleanup.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import EXIT_INTERRUPTED, main
from repro.faults import CRASH_EXIT_CODE
from repro.pipeline import ShardedCorpusEstimator
from repro.recipedb.corpus import save_recipes_jsonl
from repro.recipedb.generator import GeneratorConfig, RecipeGenerator
from repro.runs import (
    RunError,
    RunJournal,
    RunManifest,
    RunMismatchError,
    STATUS_INTERRUPTED,
    STATUS_RUNNING,
)
from repro.runs.journal import MAGIC, MAGIC_V1

from references import rjl1_journal

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: Small enough that exhaustive every-boundary resume stays fast,
#: large enough for a multi-chunk plan (several collect frames plus a
#: fallback frame).
N_RECIPES = 20
CHUNK_SIZE = 24
WORKERS = 2


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("durable") / "corpus.jsonl"
    recipes = RecipeGenerator(config=GeneratorConfig(seed=11)).generate(
        N_RECIPES
    )
    save_recipes_jsonl(recipes, path)
    return path


@pytest.fixture(scope="module")
def clean_estimates(corpus_path):
    return ShardedCorpusEstimator(
        workers=WORKERS, chunk_size=CHUNK_SIZE
    ).estimate_corpus(str(corpus_path))


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory, corpus_path, clean_estimates):
    """A finished durable run directory plus its engine report."""
    run_dir = tmp_path_factory.mktemp("completed") / "run-seed"
    engine = ShardedCorpusEstimator(
        workers=WORKERS, chunk_size=CHUNK_SIZE, run_dir=run_dir
    )
    estimates = engine.estimate_corpus(str(corpus_path))
    assert estimates == clean_estimates
    return run_dir, engine.last_report


def reopenable_copy(completed_dir: Path, target: Path) -> Path:
    """Copy a finished run and stamp it back to ``running``."""
    shutil.copytree(completed_dir, target)
    manifest = RunManifest.load(target)
    manifest.status = STATUS_RUNNING
    manifest.save(target)
    return target


class TestDurableEngine:
    def test_durable_run_matches_plain_run(self, completed_run):
        run_dir, report = completed_run
        assert report.run_id == run_dir.name == "run-seed"
        assert not report.resumed
        assert report.replayed_chunks == 0
        assert report.executed_chunks > 0
        assert RunManifest.load(run_dir).status == "completed"

    def test_resume_of_completed_run_is_pure_replay(
        self, corpus_path, clean_estimates, completed_run
    ):
        run_dir, _ = completed_run
        engine = ShardedCorpusEstimator(
            workers=WORKERS,
            chunk_size=CHUNK_SIZE,
            run_dir=run_dir,
            resume=True,
        )
        assert engine.estimate_corpus(str(corpus_path)) == clean_estimates
        report = engine.last_report
        assert report.resumed
        assert report.executed_chunks == 0
        assert report.replayed_chunks > 0

    def test_resume_after_kill_at_every_chunk_boundary(
        self, tmp_path, corpus_path, clean_estimates, completed_run
    ):
        """Truncate the journal at each frame boundary (= the on-disk
        state a SIGKILL between appends leaves) and resume: output must
        equal the uninterrupted run at every single cut."""
        run_dir, full_report = completed_run
        boundaries = [
            r.offset for r in RunJournal(run_dir / "journal.bin").scan().records
        ]
        assert len(boundaries) >= 5  # plan + collects + checkpoint + ...
        total = full_report.executed_chunks
        for k, offset in enumerate(boundaries):
            cut = reopenable_copy(run_dir, tmp_path / f"cut{k}")
            with (cut / "journal.bin").open("r+b") as handle:
                handle.truncate(offset)
            engine = ShardedCorpusEstimator(
                workers=WORKERS,
                chunk_size=CHUNK_SIZE,
                run_dir=cut,
                resume=True,
            )
            estimates = engine.estimate_corpus(str(corpus_path))
            assert estimates == clean_estimates, f"cut at frame {k}"
            report = engine.last_report
            assert report.resumed, f"cut at frame {k}"
            assert (
                report.replayed_chunks + report.executed_chunks == total
            ), f"cut at frame {k}"
            assert RunManifest.load(cut).status == "completed"

    def test_resume_with_torn_tail_garbage(
        self, tmp_path, corpus_path, clean_estimates, completed_run
    ):
        run_dir, _ = completed_run
        torn = reopenable_copy(run_dir, tmp_path / "torn")
        journal = torn / "journal.bin"
        keep = RunJournal(journal).scan().records[4].offset
        with journal.open("r+b") as handle:
            handle.truncate(keep)
        with journal.open("ab") as handle:
            handle.write(b"\x00\xffhalf-a-frame-of-garbage")
        engine = ShardedCorpusEstimator(
            workers=WORKERS, chunk_size=CHUNK_SIZE, run_dir=torn, resume=True
        )
        assert engine.estimate_corpus(str(corpus_path)) == clean_estimates
        assert engine.last_report.executed_chunks > 0

    def test_resume_of_an_rjl1_journal_cut_mid_run(
        self, tmp_path, corpus_path, clean_estimates, completed_run
    ):
        """A journal in the first frame format (payload-only digests)
        resumes; the frames appended after it are ``RJL2`` and, up to
        the completion frame's run report, say exactly what the
        uninterrupted run's frames say."""
        run_dir, _ = completed_run
        full = RunJournal(run_dir / "journal.bin").scan().records
        cut = reopenable_copy(run_dir, tmp_path / "rjl1")
        journal = cut / "journal.bin"
        with journal.open("r+b") as handle:
            handle.truncate(full[3].offset)
        rjl1_journal(journal)
        engine = ShardedCorpusEstimator(
            workers=WORKERS, chunk_size=CHUNK_SIZE, run_dir=cut, resume=True
        )
        assert engine.estimate_corpus(str(corpus_path)) == clean_estimates
        assert engine.last_report.replayed_chunks > 0
        assert engine.last_report.executed_chunks > 0
        resumed = RunJournal(journal).scan()
        blob = journal.read_bytes()
        assert resumed.valid_bytes == len(blob)
        assert [blob[r.offset : r.offset + 4] for r in resumed.records] == (
            [MAGIC_V1] * 3 + [MAGIC] * (len(full) - 3)
        )
        assert [(r.kind, r.payload) for r in resumed.records[:-1]] == [
            (r.kind, r.payload) for r in full[:-1]
        ]
        assert resumed.records[-1].kind == full[-1].kind

    def test_resume_across_different_worker_count(
        self, tmp_path, corpus_path, clean_estimates, completed_run
    ):
        """workers is recorded but not binding: chunk results are pure
        functions of chunk content."""
        run_dir, _ = completed_run
        cut = reopenable_copy(run_dir, tmp_path / "w3")
        offset = RunJournal(cut / "journal.bin").scan().records[3].offset
        with (cut / "journal.bin").open("r+b") as handle:
            handle.truncate(offset)
        engine = ShardedCorpusEstimator(
            workers=3, chunk_size=CHUNK_SIZE, run_dir=cut, resume=True
        )
        assert engine.estimate_corpus(str(corpus_path)) == clean_estimates

    def test_resume_refuses_changed_chunk_size(
        self, tmp_path, corpus_path, completed_run
    ):
        run_dir, _ = completed_run
        cut = reopenable_copy(run_dir, tmp_path / "badchunk")
        engine = ShardedCorpusEstimator(
            workers=WORKERS,
            chunk_size=CHUNK_SIZE + 1,
            run_dir=cut,
            resume=True,
        )
        with pytest.raises(RunMismatchError, match="chunk_size"):
            engine.estimate_corpus(str(corpus_path))

    def test_resume_refuses_changed_corpus(
        self, tmp_path, corpus_path, completed_run
    ):
        run_dir, _ = completed_run
        cut = reopenable_copy(run_dir, tmp_path / "badcorpus")
        drifted = tmp_path / "drifted.jsonl"
        drifted.write_bytes(corpus_path.read_bytes() + b"\n")
        engine = ShardedCorpusEstimator(
            workers=WORKERS, chunk_size=CHUNK_SIZE, run_dir=cut, resume=True
        )
        with pytest.raises(RunMismatchError, match="corpus"):
            engine.estimate_corpus(str(drifted))

    def test_durable_run_requires_path_source(self, tmp_path):
        recipes = RecipeGenerator(config=GeneratorConfig(seed=3)).generate(2)
        engine = ShardedCorpusEstimator(
            workers=1, chunk_size=8, run_dir=tmp_path / "r"
        )
        with pytest.raises(RunError, match="JSONL corpus path"):
            engine.estimate_corpus(recipes)

    def test_resume_requires_run_dir(self):
        with pytest.raises(ValueError, match="requires run_dir"):
            ShardedCorpusEstimator(resume=True)

    def test_journal_counters_shape(self, completed_run):
        _, report = completed_run
        assert set(report.journal_counters()) == {
            "replayed_chunks", "executed_chunks", "resumed",
        }


class TestDurableCli:
    def test_run_dir_creates_run_and_report(
        self, tmp_path, corpus_path, capsys
    ):
        root = tmp_path / "runs"
        code = main([
            "batch", str(corpus_path), "--workers", "2",
            "--chunk-size", str(CHUNK_SIZE), "--run-dir", str(root),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "durable run directory:" in out
        assert "replayed from journal" in out
        (run_dir,) = list(root.iterdir())
        assert run_dir.name.startswith("run-")
        assert (run_dir / "manifest.json").is_file()
        assert (run_dir / "journal.bin").is_file()
        assert (run_dir / "dead_letters.jsonl").is_file()
        # clean corpus: the report exists but is empty (diffable)
        assert (run_dir / "dead_letters.jsonl").read_bytes() == b""

    def test_resume_cli_defaults_from_manifest(
        self, tmp_path, corpus_path, completed_run, capsys, monkeypatch
    ):
        run_dir, _ = completed_run
        cut = reopenable_copy(run_dir, tmp_path / "cli-resume")
        offset = RunJournal(cut / "journal.bin").scan().records[2].offset
        with (cut / "journal.bin").open("r+b") as handle:
            handle.truncate(offset)
        # no corpus positional, no --chunk-size: both from the manifest
        monkeypatch.chdir(corpus_path.parent)
        code = main(["batch", "--resume", str(cut)])
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed from journal" in out
        assert RunManifest.load(cut).status == "completed"

    def test_resume_mismatch_is_a_clean_cli_error(
        self, tmp_path, corpus_path, completed_run, capsys
    ):
        run_dir, _ = completed_run
        cut = reopenable_copy(run_dir, tmp_path / "cli-mismatch")
        code = main([
            "batch", str(corpus_path), "--resume", str(cut),
            "--chunk-size", str(CHUNK_SIZE + 7),
        ])
        assert code == 2
        assert "cannot resume" in capsys.readouterr().out

    def test_run_dir_and_resume_are_mutually_exclusive(
        self, corpus_path, capsys
    ):
        with pytest.raises(SystemExit):
            main([
                "batch", str(corpus_path),
                "--run-dir", "a", "--resume", "b",
            ])

    def test_batch_without_corpus_or_resume_errors(self, capsys):
        assert main(["batch"]) == 2
        assert "corpus path is required" in capsys.readouterr().out

    def test_runs_list_and_show(self, completed_run, capsys):
        run_dir, _ = completed_run
        assert main(["runs", "list", str(run_dir.parent)]) == 0
        listing = capsys.readouterr().out
        assert "run-seed" in listing
        assert "completed" in listing
        assert main(["runs", "show", str(run_dir)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["run_id"] == "run-seed"
        assert summary["journal"]["complete"] is True

    def test_runs_list_empty_root(self, tmp_path, capsys):
        assert main(["runs", "list", str(tmp_path)]) == 1
        assert "no run directories" in capsys.readouterr().out

    def test_runs_show_non_run_is_a_clean_error(self, tmp_path, capsys):
        assert main(["runs", "show", str(tmp_path)]) == 2
        assert "not a run directory" in capsys.readouterr().out


# ----------------------------------------------------------------------
# subprocess chaos: kill a real driver, resume it, byte-compare


def batch_argv(corpus_path, *extra: str) -> list[str]:
    return [
        sys.executable, "-m", "repro", "batch", str(corpus_path),
        "--workers", str(WORKERS), "--chunk-size", str(CHUNK_SIZE),
        *extra,
    ]


def spawn_batch(argv, out_path: Path, faults: str | None = None):
    """Start a driver in its own session, stdout/stderr to a file."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env.pop("REPRO_FAULTS", None)
    if faults is not None:
        env["REPRO_FAULTS"] = faults
    with out_path.open("wb") as handle:
        return subprocess.Popen(
            argv,
            stdout=handle,
            stderr=subprocess.STDOUT,
            start_new_session=True,
            env=env,
        )


def wait_and_reap(proc: subprocess.Popen, timeout: float = 180.0) -> int:
    """Wait for the driver, then kill anything left in its session."""
    try:
        return proc.wait(timeout=timeout)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def estimate_lines(out_path: Path) -> list[str]:
    return [
        line
        for line in out_path.read_text().splitlines()
        if "kcal/serving" in line
    ]


@pytest.fixture(scope="module")
def clean_cli_output(tmp_path_factory, corpus_path):
    """A clean (fault-free) durable CLI run: reference bytes."""
    root = tmp_path_factory.mktemp("chaos") / "clean"
    out = root.parent / "clean.out"
    proc = spawn_batch(
        batch_argv(corpus_path, "--run-dir", str(root)), out
    )
    assert wait_and_reap(proc) == 0
    (run_dir,) = list(root.iterdir())
    return estimate_lines(out), run_dir


@pytest.mark.parametrize(
    "faults",
    [
        # hard exit at a chunk boundary: frame N never starts
        "crash@journal-append:3",
        # mid-append power cut: half of frame N is fsync'd to disk
        "corrupt@journal-append:3",
    ],
)
def test_killed_driver_resumes_byte_identical(
    tmp_path, corpus_path, clean_cli_output, faults
):
    clean_lines, clean_run_dir = clean_cli_output
    root = tmp_path / "runs"
    crash_out = tmp_path / "crash.out"
    proc = spawn_batch(
        batch_argv(corpus_path, "--run-dir", str(root)),
        crash_out,
        faults=faults,
    )
    assert wait_and_reap(proc) == CRASH_EXIT_CODE, crash_out.read_text()
    (run_dir,) = list(root.iterdir())
    assert RunManifest.load(run_dir).status == STATUS_RUNNING

    resume_out = tmp_path / "resume.out"
    proc = spawn_batch(
        [
            sys.executable, "-m", "repro", "batch",
            "--resume", str(run_dir),
        ],
        resume_out,
    )
    assert wait_and_reap(proc) == 0, resume_out.read_text()
    assert estimate_lines(resume_out) == clean_lines
    text = resume_out.read_text()
    assert "replayed from journal" in text
    assert RunManifest.load(run_dir).status == "completed"
    # the persisted dead-letter report byte-matches the clean run's
    assert (run_dir / "dead_letters.jsonl").read_bytes() == (
        clean_run_dir / "dead_letters.jsonl"
    ).read_bytes()


def test_sigint_exits_resumable_and_resume_is_identical(
    tmp_path, corpus_path, clean_cli_output
):
    clean_lines, _ = clean_cli_output
    root = tmp_path / "runs"
    int_out = tmp_path / "int.out"
    # A worker sleeps on a mid-plan chunk so the driver is reliably
    # mid-run when the signal lands.
    proc = spawn_batch(
        batch_argv(corpus_path, "--run-dir", str(root)),
        int_out,
        faults="sleep@collect-chunk:4:60",
    )
    try:
        deadline = time.monotonic() + 60
        journal = None
        while time.monotonic() < deadline:
            run_dirs = list(root.iterdir()) if root.is_dir() else []
            if run_dirs:
                journal = run_dirs[0] / "journal.bin"
                if journal.is_file() and journal.stat().st_size > 0:
                    break
            time.sleep(0.1)
        assert journal is not None and journal.is_file()
        time.sleep(0.5)  # let a few frames land
        os.kill(proc.pid, signal.SIGINT)
        code = proc.wait(timeout=60)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    assert code == EXIT_INTERRUPTED, int_out.read_text()
    (run_dir,) = list(root.iterdir())
    assert RunManifest.load(run_dir).status == STATUS_INTERRUPTED
    assert "resume with" in int_out.read_text()
    assert (run_dir / "dead_letters.jsonl").is_file()

    resume_out = tmp_path / "resume.out"
    proc = spawn_batch(
        [
            sys.executable, "-m", "repro", "batch",
            "--resume", str(run_dir),
        ],
        resume_out,
    )
    assert wait_and_reap(proc) == 0, resume_out.read_text()
    assert estimate_lines(resume_out) == clean_lines
    assert RunManifest.load(run_dir).status == "completed"
