"""The durable-run substrate: manifests, journal, run store (repro.runs).

These are the unit-level pins under ``tests/test_durable_resume.py``'s
end-to-end crash/resume suite: frame format round-trips, torn-tail
scanning stops exactly at the first invalid byte, manifests bind and
refuse with typed errors, and the dead-letter report is stable and
self-identifying.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.deadletter import DeadLetterLog, report_lines, write_report_jsonl
from repro.runs import (
    DurableRun,
    RunDirectoryError,
    RunJournal,
    RunJournalError,
    RunManifest,
    RunManifestError,
    RunMismatchError,
    corpus_identity,
    is_run_dir,
    iter_run_dirs,
    mark_interrupted,
    new_run_id,
    run_summary,
)
from repro.runs.journal import (
    FRAME_HEADER_SIZE,
    KIND_CHECKPOINT,
    KIND_COLLECT,
    KIND_PLAN,
    MAGIC,
    MAGIC_V1,
)
from repro.runs.manifest import PREFIX_SAMPLE_BYTES, STATUS_INTERRUPTED


def make_manifest(**overrides) -> RunManifest:
    base = dict(
        run_id="run-test-0001",
        created_at="2026-08-07T00:00:00Z",
        repro_version="1.1.0",
        corpus={
            "path": "corpus.jsonl",
            "bytes": 100,
            "prefix_bytes": 100,
            "prefix_sha256": "ab" * 32,
        },
        config={
            "chunk_size": 64,
            "quarantine": True,
            "max_grams": 5000.0,
            "workers": 2,
        },
        database={"fingerprint": "cd" * 32, "artifact_path": None},
    )
    base.update(overrides)
    return RunManifest(**base)


class TestRunId:
    def test_ids_are_unique_and_prefixed(self):
        ids = {new_run_id() for _ in range(50)}
        assert len(ids) == 50
        assert all(i.startswith("run-") for i in ids)


class TestCorpusIdentity:
    def test_identity_fields(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"x" * 1000)
        ident = corpus_identity(path)
        assert ident["bytes"] == 1000
        assert ident["prefix_bytes"] == 1000
        assert ident["path"] == str(path)
        assert len(ident["prefix_sha256"]) == 64

    def test_prefix_sampling_caps_large_files(self, tmp_path):
        path = tmp_path / "big.jsonl"
        path.write_bytes(b"y" * (PREFIX_SAMPLE_BYTES + 4096))
        ident = corpus_identity(path)
        assert ident["bytes"] == PREFIX_SAMPLE_BYTES + 4096
        assert ident["prefix_bytes"] == PREFIX_SAMPLE_BYTES

    def test_content_change_changes_hash(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_bytes(b"same length AAA")
        b.write_bytes(b"same length BBB")
        assert (
            corpus_identity(a)["prefix_sha256"]
            != corpus_identity(b)["prefix_sha256"]
        )


class TestManifest:
    def test_save_load_round_trip(self, tmp_path):
        manifest = make_manifest()
        manifest.save(tmp_path)
        loaded = RunManifest.load(tmp_path)
        assert loaded.to_dict() == manifest.to_dict()

    def test_load_missing_is_typed(self, tmp_path):
        with pytest.raises(RunManifestError, match="not a run directory"):
            RunManifest.load(tmp_path)

    def test_load_unparsable_is_typed(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{nope")
        with pytest.raises(RunManifestError, match="does not parse"):
            RunManifest.load(tmp_path)

    def test_load_missing_fields_is_typed(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"run_id": "run-x"}')
        with pytest.raises(RunManifestError, match="missing required"):
            RunManifest.load(tmp_path)

    def test_verify_corpus_accepts_moved_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"corpus content here")
        manifest = make_manifest(corpus=corpus_identity(path))
        moved = tmp_path / "renamed.jsonl"
        path.rename(moved)
        manifest.verify_corpus(moved)  # path is advisory, not binding

    def test_verify_corpus_refuses_changed_content(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"original")
        manifest = make_manifest(corpus=corpus_identity(path))
        path.write_bytes(b"changed!")
        with pytest.raises(RunMismatchError, match="cannot resume"):
            manifest.verify_corpus(path)

    @pytest.mark.parametrize(
        ("kwargs", "field"),
        [
            (dict(chunk_size=65), "chunk_size"),
            (dict(quarantine=False), "quarantine"),
            (dict(max_grams=100.0), "max_grams"),
            (
                dict(database_fingerprint="ee" * 32),
                "database fingerprint",
            ),
        ],
    )
    def test_verify_config_refuses_each_field(self, kwargs, field):
        manifest = make_manifest()
        good = dict(
            chunk_size=64,
            quarantine=True,
            max_grams=5000.0,
            database_fingerprint="cd" * 32,
        )
        manifest.verify_config(**good)  # baseline passes
        with pytest.raises(RunMismatchError, match=field):
            manifest.verify_config(**{**good, **kwargs})


class TestJournal:
    def test_append_scan_round_trip(self, tmp_path):
        journal = RunJournal(tmp_path / "j.bin")
        journal.create()
        journal.append(KIND_PLAN, {"n_chunks": 2})
        journal.append(KIND_COLLECT, {"chunk": 0, "wire": b"\x00\x01"})
        journal.append(KIND_COLLECT, {"chunk": 1, "wire": b""})
        journal.close()
        scanned = journal.scan()
        assert [r.kind for r in scanned.records] == [
            KIND_PLAN, KIND_COLLECT, KIND_COLLECT,
        ]
        assert scanned.records[1].payload == {"chunk": 0, "wire": b"\x00\x01"}
        assert scanned.torn_bytes == 0
        assert scanned.valid_bytes == (tmp_path / "j.bin").stat().st_size

    def test_missing_file_scans_empty(self, tmp_path):
        scanned = RunJournal(tmp_path / "absent.bin").scan()
        assert scanned == ([], 0, 0)

    @pytest.mark.parametrize(
        "tail",
        [
            b"\x01",  # lone stray byte
            # each torn header in both frame formats, since RJL1 is still read
            MAGIC_V1,  # short header
            MAGIC_V1 + b"\x02" + (999).to_bytes(8, "big") + b"\x00" * 32,
            # header whose payload never arrived ^
            MAGIC,
            MAGIC + b"\x02" + (999).to_bytes(8, "big") + b"\x00" * 32,
            b"\xff" * 60,  # bad magic, plausible length
        ],
    )
    def test_scan_stops_at_torn_tail(self, tmp_path, tail):
        path = tmp_path / "j.bin"
        journal = RunJournal(path)
        journal.create()
        journal.append(KIND_PLAN, {"n_chunks": 1})
        journal.append(KIND_COLLECT, {"chunk": 0})
        journal.close()
        good = path.stat().st_size
        with path.open("ab") as handle:
            handle.write(tail)
        scanned = journal.scan()
        assert len(scanned.records) == 2
        assert scanned.valid_bytes == good
        assert scanned.torn_bytes == len(tail)

    def test_corrupted_digest_invalidates_frame(self, tmp_path):
        path = tmp_path / "j.bin"
        journal = RunJournal(path)
        journal.create()
        journal.append(KIND_PLAN, {"n_chunks": 1})
        journal.append(KIND_COLLECT, {"chunk": 0})
        journal.close()
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload byte of the last frame
        path.write_bytes(bytes(blob))
        scanned = journal.scan()
        assert [r.kind for r in scanned.records] == [KIND_PLAN]
        assert scanned.torn_bytes > FRAME_HEADER_SIZE

    def test_open_for_append_truncates_and_continues(self, tmp_path):
        path = tmp_path / "j.bin"
        journal = RunJournal(path)
        journal.create()
        journal.append(KIND_PLAN, {"n_chunks": 2})
        journal.close()
        with path.open("ab") as handle:
            handle.write(b"torn-half-frame")
        reopened = RunJournal(path)
        scanned = reopened.open_for_append()
        assert scanned.torn_bytes == len(b"torn-half-frame")
        reopened.append(KIND_COLLECT, {"chunk": 0})
        reopened.close()
        final = reopened.scan()
        assert [r.kind for r in final.records] == [KIND_PLAN, KIND_COLLECT]
        assert final.torn_bytes == 0

    def test_append_requires_open(self, tmp_path):
        journal = RunJournal(tmp_path / "j.bin")
        with pytest.raises(RuntimeError, match="not open"):
            journal.append(KIND_PLAN, {})



#: Offset of the kind byte inside a frame header (after the magic).
KIND_OFFSET = len(MAGIC)

_payloads = st.lists(
    st.fixed_dictionaries({
        "chunk": st.integers(0, 10_000),
        "wire": st.binary(max_size=48),
    }),
    min_size=1,
    max_size=4,
)


def _write_journal(directory: Path, payloads: list[dict]) -> tuple[Path, int]:
    """A journal of one collect frame per payload; returns its path and
    the offset of its last frame."""
    path = directory / "journal.bin"
    journal = RunJournal(path)
    journal.create()
    for payload in payloads:
        journal.append(KIND_COLLECT, payload)
    journal.close()
    return path, journal.scan().records[-1].offset


class TestJournalScanProperties:
    """Damage confined to the last frame costs exactly that frame."""

    @staticmethod
    def _assert_last_frame_dropped(path: Path, payloads, last: int):
        scanned = RunJournal(path).scan()
        assert [r.payload for r in scanned.records] == payloads[:-1]
        assert scanned.valid_bytes == last
        reopened = RunJournal(path)
        reopened.open_for_append()
        reopened.close()
        assert path.stat().st_size == last

    @settings(max_examples=60, deadline=None)
    @given(payloads=_payloads, data=st.data())
    def test_cut_anywhere_inside_the_last_frame(self, payloads, data):
        with tempfile.TemporaryDirectory() as directory:
            path, last = _write_journal(Path(directory), payloads)
            blob = path.read_bytes()
            cut = data.draw(st.integers(last, len(blob) - 1), label="cut")
            path.write_bytes(blob[:cut])
            self._assert_last_frame_dropped(path, payloads, last)

    @settings(max_examples=60, deadline=None)
    @given(payloads=_payloads, data=st.data())
    def test_flip_any_checksummed_byte_of_the_last_frame(
        self, payloads, data
    ):
        """Every byte but the kind byte (see the next test)."""
        with tempfile.TemporaryDirectory() as directory:
            path, last = _write_journal(Path(directory), payloads)
            blob = bytearray(path.read_bytes())
            position = data.draw(
                st.integers(last, len(blob) - 1).filter(
                    lambda p: p != last + KIND_OFFSET
                ),
                label="position",
            )
            blob[position] ^= data.draw(st.integers(1, 255), label="mask")
            path.write_bytes(bytes(blob))
            self._assert_last_frame_dropped(path, payloads, last)

    def test_flip_of_the_kind_byte_drops_the_frame(self, tmp_path):
        payloads = [{"chunk": 0, "wire": b""}, {"chunk": 1, "wire": b""}]
        path, last = _write_journal(tmp_path, payloads)
        blob = bytearray(path.read_bytes())
        blob[last + KIND_OFFSET] = KIND_CHECKPOINT
        path.write_bytes(bytes(blob))
        self._assert_last_frame_dropped(path, payloads, last)


class TestDurableRunStore:
    def test_create_refuses_existing_run(self, tmp_path):
        run = DurableRun.create(tmp_path / "r", make_manifest())
        run.close()
        with pytest.raises(RunDirectoryError, match="already contains"):
            DurableRun.create(tmp_path / "r", make_manifest())

    def test_open_absorbs_journal(self, tmp_path):
        run = DurableRun.create(tmp_path / "r", make_manifest())
        run.begin(n_chunks=2, distinct_lines=100, chunk_size=64)
        run.record_collect(0, b"wire0", {"sugar": {"cup": 3}}, [])
        run.close()
        reopened = DurableRun.open(tmp_path / "r")
        assert reopened.resumed
        assert reopened.plan == {
            "n_chunks": 2, "distinct_lines": 100, "chunk_size": 64,
        }
        assert set(reopened.collect) == {0}
        wire, snapshot, letters = reopened.collect[0]
        assert wire == b"wire0"
        assert snapshot == {"sugar": {"cup": 3}}
        assert letters == []
        assert not reopened.complete
        reopened.close()

    def test_begin_refuses_diverged_plan(self, tmp_path):
        run = DurableRun.create(tmp_path / "r", make_manifest())
        run.begin(n_chunks=2, distinct_lines=100, chunk_size=64)
        run.close()
        reopened = DurableRun.open(tmp_path / "r")
        with pytest.raises(RunJournalError, match="does not match"):
            reopened.begin(n_chunks=3, distinct_lines=130, chunk_size=64)
        reopened.close()

    def test_complete_marks_manifest(self, tmp_path):
        run = DurableRun.create(tmp_path / "r", make_manifest())
        run.begin(n_chunks=0, distinct_lines=0, chunk_size=64)
        run.record_complete({"retries": 0})
        run.close()
        assert RunManifest.load(tmp_path / "r").status == "completed"
        assert DurableRun.open(tmp_path / "r").complete

    def test_mark_interrupted(self, tmp_path):
        run = DurableRun.create(tmp_path / "r", make_manifest())
        run.close()
        mark_interrupted(tmp_path / "r")
        assert RunManifest.load(tmp_path / "r").status == STATUS_INTERRUPTED

    def test_mark_interrupted_keeps_completed(self, tmp_path):
        run = DurableRun.create(tmp_path / "r", make_manifest())
        run.record_complete({})
        run.close()
        mark_interrupted(tmp_path / "r")
        assert RunManifest.load(tmp_path / "r").status == "completed"


class TestInspection:
    def test_iter_run_dirs_sorted(self, tmp_path):
        for name in ("run-b", "run-a", "not-a-run"):
            path = tmp_path / name
            path.mkdir()
            if name.startswith("run-"):
                make_manifest(run_id=name).save(path)
        found = iter_run_dirs(tmp_path)
        assert [p.name for p in found] == ["run-a", "run-b"]
        assert iter_run_dirs(tmp_path / "run-a") == [tmp_path / "run-a"]
        assert is_run_dir(tmp_path / "run-a")
        assert not is_run_dir(tmp_path / "not-a-run")

    def test_iter_run_dirs_missing_root_is_typed(self, tmp_path):
        with pytest.raises(RunDirectoryError, match="not a directory"):
            iter_run_dirs(tmp_path / "absent")

    def test_run_summary_shape(self, tmp_path):
        run = DurableRun.create(tmp_path / "r", make_manifest())
        run.begin(n_chunks=2, distinct_lines=100, chunk_size=64)
        run.record_collect(0, b"w", {}, [])
        run.close()
        with (tmp_path / "r" / "journal.bin").open("ab") as handle:
            handle.write(b"torn")
        summary = run_summary(tmp_path / "r")
        assert summary["run_id"] == "run-test-0001"
        assert summary["status"] == "running"
        assert summary["journal"]["planned_chunks"] == 2
        assert summary["journal"]["records"]["collect"] == 1
        assert summary["journal"]["torn_bytes"] == 4
        assert summary["journal"]["complete"] is False
        assert summary["dead_letters"] is None
        json.dumps(summary)  # must stay JSON-serializable for `runs show`


class TestDeadLetterReport:
    def make_log(self) -> DeadLetterLog:
        log = DeadLetterLog()
        log.add("estimate", 7, "zzz line", "estimator-error", "boom")
        log.add("ingest", 3, "{bad json", "malformed-json")
        log.add("estimate", 2, "aaa line", "estimator-error")
        return log

    def test_lines_are_sorted_not_arrival_ordered(self):
        lines = report_lines(self.make_log(), "run-x")
        keys = [
            (json.loads(line)["source"], json.loads(line)["line_no"])
            for line in lines
        ]
        assert keys == [("estimate", 2), ("estimate", 7), ("ingest", 3)]

    def test_every_line_stamped_with_run_id(self):
        for line in report_lines(self.make_log(), "run-y"):
            assert json.loads(line)["run_id"] == "run-y"

    def test_shuffled_log_writes_identical_report(self, tmp_path):
        log = self.make_log()
        shuffled = DeadLetterLog()
        shuffled.extend(list(reversed(list(log))))
        a = write_report_jsonl(tmp_path / "a.jsonl", log, "run-z")
        b = write_report_jsonl(tmp_path / "b.jsonl", shuffled, "run-z")
        assert a.read_bytes() == b.read_bytes()

    def test_empty_log_writes_empty_file(self, tmp_path):
        path = write_report_jsonl(
            tmp_path / "empty.jsonl", DeadLetterLog(), "run-e"
        )
        assert path.read_bytes() == b""
