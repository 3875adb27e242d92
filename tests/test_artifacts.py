"""Artifact store: format validation, failure paths, component restore.

Every way a snapshot can be unusable must surface as a *typed* error —
truncation, checksum damage, foreign files, future format versions,
and artifacts built against a different database can never be
mistaken for a successful load (the "no silent misloads" guarantee).
Bit-identical output parity of loaded estimators lives in
``tests/test_artifact_parity.py``.
"""

from __future__ import annotations

import struct

import pytest

from repro import EstimatorSpec, NutritionEstimator
from repro.artifacts import (
    FORMAT_VERSION,
    MAGIC,
    ArtifactCorruptError,
    ArtifactError,
    ArtifactMismatchError,
    ArtifactVersionError,
    database_fingerprint,
    load_artifact,
    save_artifact,
)
from repro.artifacts.format import (
    HEADER_SIZE,
    pack_payload,
    read_artifact_bytes,
    write_artifact_bytes,
)
from repro.usda.database import load_default_database
from repro.usda.schema import FoodItem, Portion


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "pipeline.artifact"
    save_artifact(path, NutritionEstimator())
    return path


@pytest.fixture(scope="module")
def artifact_blob(artifact_path) -> bytes:
    return artifact_path.read_bytes()


def _write(tmp_path, blob: bytes):
    path = tmp_path / "damaged.artifact"
    path.write_bytes(blob)
    return path


class TestRoundTrip:
    def test_load_reports_build_metadata(self, artifact_path):
        snapshot = load_artifact(artifact_path, cache=False)
        meta = snapshot.meta
        assert meta["format"] == FORMAT_VERSION
        assert meta["foods"] == len(load_default_database())
        assert meta["tagger"] == "rule"
        assert snapshot.tagger_kind == "rule"

    def test_restored_database_matches_default(self, artifact_path):
        db = load_artifact(artifact_path, cache=False).database()
        default = load_default_database()
        assert len(db) == len(default)
        assert db.descriptions() == default.descriptions()
        assert db.vocabulary() == default.vocabulary()
        # SR index order — the tie-break key — survives the round trip.
        for food in default:
            assert db.index_of(food.ndb_no) == default.index_of(food.ndb_no)

    def test_artifact_bytes_are_deterministic(self, artifact_path, tmp_path):
        again = tmp_path / "again.artifact"
        save_artifact(again, NutritionEstimator())
        assert again.read_bytes() == artifact_path.read_bytes()

    def test_artifact_bytes_are_deterministic_across_processes(
        self, tmp_path
    ):
        """Builds must agree byte-for-byte even under different str
        hash randomization (set/dict iteration orders differ per
        process) — the docs' rebuild-and-compare freshness check
        depends on it."""
        import os
        import subprocess
        import sys

        for seed in ("1", "2"):
            subprocess.run(
                [
                    sys.executable,
                    "-c",
                    "import sys; from repro import NutritionEstimator; "
                    "from repro.artifacts import save_artifact; "
                    "save_artifact(sys.argv[1], NutritionEstimator())",
                    str(tmp_path / f"hash{seed}.artifact"),
                ],
                env={**os.environ, "PYTHONHASHSEED": seed},
                check=True,
            )
        assert (tmp_path / "hash1.artifact").read_bytes() == (
            tmp_path / "hash2.artifact"
        ).read_bytes()

    def test_cached_load_reuses_snapshot(self, artifact_path):
        first = load_artifact(artifact_path)
        second = load_artifact(artifact_path)
        assert first is second

    def test_rewritten_file_invalidates_cache(self, tmp_path):
        path = tmp_path / "rewrite.artifact"
        save_artifact(path, NutritionEstimator())
        first = load_artifact(path)
        write_artifact_bytes(
            path, {**first._payload, "meta": {**first.meta, "foods": 1}}
        )
        assert load_artifact(path).meta["foods"] == 1


class TestCorruptFiles:
    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_artifact(tmp_path / "nope.artifact")

    def test_empty_file(self, tmp_path):
        with pytest.raises(ArtifactCorruptError, match="truncated"):
            read_artifact_bytes(_write(tmp_path, b""))

    def test_truncated_header(self, tmp_path, artifact_blob):
        with pytest.raises(ArtifactCorruptError, match="truncated"):
            read_artifact_bytes(
                _write(tmp_path, artifact_blob[: HEADER_SIZE // 2])
            )

    def test_truncated_payload(self, tmp_path, artifact_blob):
        path = _write(tmp_path, artifact_blob[: HEADER_SIZE + 100])
        with pytest.raises(ArtifactCorruptError, match="truncated"):
            load_artifact(path, cache=False)

    def test_trailing_garbage(self, tmp_path, artifact_blob):
        path = _write(tmp_path, artifact_blob + b"extra")
        with pytest.raises(ArtifactCorruptError, match="truncated"):
            load_artifact(path, cache=False)

    def test_foreign_file(self, tmp_path):
        blob = b"PK\x03\x04 definitely not a repro artifact " * 4
        assert len(blob) > HEADER_SIZE
        path = _write(tmp_path, blob)
        with pytest.raises(ArtifactCorruptError, match="magic"):
            load_artifact(path, cache=False)

    def test_flipped_payload_byte_fails_checksum(
        self, tmp_path, artifact_blob
    ):
        corrupt = bytearray(artifact_blob)
        corrupt[-1] ^= 0xFF
        path = _write(tmp_path, bytes(corrupt))
        with pytest.raises(ArtifactCorruptError, match="checksum"):
            load_artifact(path, cache=False)

    def test_non_builtin_payload_objects_are_refused(self, tmp_path):
        import hashlib
        import pickle

        # Any global lookup is refused — a stdlib class stands in for
        # the classic pickle gadget.
        body = pickle.dumps({"meta": Portion(1, 1.0, "cup", 227.0)})
        blob = (
            struct.pack(
                ">8sIQ32s",
                MAGIC,
                FORMAT_VERSION,
                len(body),
                hashlib.sha256(body).digest(),
            )
            + body
        )
        with pytest.raises(ArtifactCorruptError, match="non-builtin"):
            load_artifact(_write(tmp_path, blob), cache=False)

    def test_valid_container_with_missing_sections(self, tmp_path):
        path = tmp_path / "hollow.artifact"
        write_artifact_bytes(path, {"meta": {}})
        with pytest.raises(ArtifactCorruptError, match="missing sections"):
            load_artifact(path, cache=False)


class TestVersioning:
    @pytest.mark.parametrize("version", [0, 2, 99])
    def test_other_format_versions_are_refused(
        self, tmp_path, artifact_blob, version
    ):
        blob = (
            artifact_blob[:8]
            + struct.pack(">I", version)
            + artifact_blob[12:]
        )
        with pytest.raises(ArtifactVersionError, match=str(version)):
            load_artifact(_write(tmp_path, blob), cache=False)


def _tiny_database_foods() -> tuple[FoodItem, ...]:
    return (
        FoodItem(
            ndb_no="01001",
            description="Butter, salted",
            food_group="Dairy and Egg Products",
            nutrients={"energy_kcal": 717.0},
            portions=(Portion(1, 1.0, "cup", 227.0),),
        ),
    )


class TestDatabaseMismatch:
    def test_spec_with_different_database_is_refused(
        self, artifact_path
    ):
        spec = EstimatorSpec(
            foods=_tiny_database_foods(), artifact_path=str(artifact_path)
        )
        with pytest.raises(ArtifactMismatchError, match="different database"):
            spec.build()

    def test_spec_pinning_the_captured_database_loads(self, artifact_path):
        spec = EstimatorSpec(
            foods=tuple(load_default_database()),
            artifact_path=str(artifact_path),
        )
        estimator = spec.build()
        assert len(estimator.database) == len(load_default_database())

    def test_fingerprint_is_order_sensitive(self):
        foods = list(load_default_database())
        assert database_fingerprint(foods) != database_fingerprint(
            list(reversed(foods))
        )


class TestArtifactSwapRace:
    def test_running_engine_is_immune_to_artifact_swap(self, tmp_path):
        """A deploy that rewrites the artifact file while an engine is
        live must never decode wire indices against the wrong
        database.  Pool workers are forked with the coordinator's
        estimator, built from the spec pinned at construction (see
        ShardedCorpusEstimator._worker_spec), so no worker ever reads
        the file: a warm pool keeps answering from the startup
        artifact, and so does a fresh pool spawned after the swap.
        """
        from repro import RecipeGenerator, ShardedCorpusEstimator
        from repro.usda.database import NutrientDatabase

        path = tmp_path / "live.artifact"
        save_artifact(path, NutritionEstimator())
        engine = ShardedCorpusEstimator(
            EstimatorSpec(artifact_path=str(path)), workers=2
        )
        recipes = RecipeGenerator().generate(4)
        first = engine.estimate_corpus(recipes)  # spawns the warm pool

        # Swap in an artifact built against a different database.
        tiny = NutrientDatabase(_tiny_database_foods())
        save_artifact(path, NutritionEstimator(database=tiny))

        # The persistent pool still holds the startup estimator:
        # results stay bit-identical to the pre-swap run.
        assert engine.estimate_corpus(recipes) == first

        # A fresh pool inherits the same estimator: still identical.
        engine.close()
        assert engine.estimate_corpus(recipes) == first
        engine.close()

    def test_service_engine_is_pinned_to_startup_artifact(self, tmp_path):
        """After an on-disk artifact swap, /v1/estimate and
        /v1/estimate_batch must never answer from different databases.
        The service's pool workers are forked with its warm estimator,
        so both paths keep answering from the startup database — also
        from a pool spawned after the swap."""
        from repro.service.state import ServiceConfig, ServiceState
        from repro.usda.database import NutrientDatabase

        path = tmp_path / "service.artifact"
        save_artifact(path, NutritionEstimator())
        state = ServiceState(
            ServiceConfig(
                port=0,
                workers=2,
                spec=EstimatorSpec(artifact_path=str(path)),
            )
        )
        tiny = NutrientDatabase(_tiny_database_foods())
        save_artifact(path, NutritionEstimator(database=tiny))
        # Enough distinct lines to engage the engine pool (>= 256).
        counts = {f"{i} cups flour type{i}": 1 for i in range(300)}
        # Warm pool: batch fan-out matches the warm estimator exactly —
        # one database on both endpoints, swap notwithstanding.
        local = state._local_table(counts, None)
        assert state._estimate_table(counts) == local
        # A pool spawned post-swap inherits the warm estimator too.
        state.close()
        assert state._estimate_table(counts) == local
        assert state.resilience_snapshot()["degraded_batches"] == 0
        state.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_swap_before_first_build_fails_typed_in_the_coordinator(
        self, tmp_path, workers
    ):
        """An artifact swapped after engine construction but before
        the coordinator builds its estimator fails the pinned
        fingerprint check in the coordinator: typed, and before any
        worker is forked."""
        import multiprocessing as mp

        from repro import RecipeGenerator, ShardedCorpusEstimator
        from repro.usda.database import NutrientDatabase

        path = tmp_path / "early.artifact"
        save_artifact(path, NutritionEstimator())
        engine = ShardedCorpusEstimator(
            EstimatorSpec(artifact_path=str(path)), workers=workers
        )
        tiny = NutrientDatabase(_tiny_database_foods())
        save_artifact(path, NutritionEstimator(database=tiny))
        children = set(mp.active_children())
        with pytest.raises(ArtifactMismatchError, match="different database"):
            if workers == 1:
                engine.estimate_corpus(RecipeGenerator().generate(4))
            else:
                engine.ensure_pool()
        assert engine._pool is None
        assert set(mp.active_children()) == children
        engine.close()


class TestFilePermissions:
    def test_artifact_mode_follows_umask_not_mkstemp(self, tmp_path):
        """mkstemp's private 0600 must not leak through the atomic
        rename — an artifact built by a deploy user has to be readable
        by the service account."""
        import os

        umask = os.umask(0)
        os.umask(umask)
        path = tmp_path / "perms.artifact"
        save_artifact(path, NutritionEstimator())
        assert (path.stat().st_mode & 0o777) == (0o666 & ~umask)


class TestTaggerCapture:
    def test_unsupported_tagger_is_refused_at_build(self, tmp_path):
        class OpaqueTagger:
            def predict(self, tokens):
                return ["O"] * len(tokens)

        estimator = NutritionEstimator(tagger=OpaqueTagger())
        with pytest.raises(ArtifactError, match="OpaqueTagger"):
            save_artifact(tmp_path / "x.artifact", estimator)

    def test_unknown_tagger_kind_is_refused_at_load(
        self, tmp_path, artifact_path
    ):
        payload = load_artifact(artifact_path)._payload
        hacked = {**payload, "tagger": {"kind": "mystery"}}
        path = tmp_path / "mystery.artifact"
        write_artifact_bytes(path, hacked)
        with pytest.raises(ArtifactCorruptError, match="mystery"):
            load_artifact(path, cache=False).build_estimator()


class TestSpecOverrides:
    def test_spec_tagger_overrides_captured_tagger(self, artifact_path):
        class LoudTagger:
            def predict(self, tokens):
                return ["NAME"] * len(tokens)

        tagger = LoudTagger()
        spec = EstimatorSpec(
            tagger=tagger, artifact_path=str(artifact_path)
        )
        assert spec.build().tagger is tagger

    def test_spec_matcher_config_applies_to_snapshot(self, artifact_path):
        from repro.matching.matcher import MatcherConfig

        config = MatcherConfig(use_modified_jaccard=False)
        spec = EstimatorSpec(
            matcher_config=config, artifact_path=str(artifact_path)
        )
        assert spec.build().matcher.config is config

    def test_payload_round_trips_through_packing(self):
        payload = {"meta": {"x": 1}, "nested": [1, 2.5, "three", None]}
        from repro.artifacts.format import unpack_payload

        assert unpack_payload(pack_payload(payload)) == payload
