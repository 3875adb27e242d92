"""Run manifests: what a durable run was, bindingly.

The manifest is the first file a run directory gets and the first
thing a resume reads.  It binds the run to

* the **corpus identity** — path (advisory), byte size, and a SHA-256
  over a sampled prefix (:data:`PREFIX_SAMPLE_BYTES`).  Size plus
  prefix hash catches the realistic drift cases (regenerated corpus,
  appended lines, different file) without re-hashing a multi-GB file
  on every resume; content drift *past* the sampled prefix is caught
  downstream by the journal's chunk-plan and checkpoint consistency
  checks (:class:`~repro.runs.errors.RunJournalError`).
* the **database identity** — the same fingerprint the artifact store
  enforces (:func:`repro.artifacts.store.database_fingerprint`), plus
  the artifact path and its header SHA-256 when the run was
  artifact-backed.  A resume against a different database refuses
  with a typed mismatch instead of producing silently different
  numbers.
* the **run config** that shapes chunking and quarantine —
  ``chunk_size``, ``quarantine``, ``max_grams``.  These must match on
  resume because journaled frames are addressed by chunk index.
  ``workers`` is recorded but *not* enforced: chunk results are pure
  functions of chunk content, so a run started with 4 workers resumes
  bit-identically on 2.

Manifests are JSON, written atomically via
:func:`repro.utils.atomic_write_text`; the status field moves
``running`` → ``completed`` (or ``interrupted``, when a signal
handler got to say goodbye — a SIGKILL leaves ``running`` behind,
which is exactly what ``repro runs list`` shows for it).
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.runs.errors import RunManifestError, RunMismatchError
from repro.utils import atomic_write_text

MANIFEST_NAME = "manifest.json"

#: How much of the corpus file the identity hash samples.
PREFIX_SAMPLE_BYTES = 1 << 20

STATUS_RUNNING = "running"
STATUS_COMPLETED = "completed"
STATUS_INTERRUPTED = "interrupted"


def new_run_id() -> str:
    """A unique, sortable run id (timestamp + pid + random suffix)."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"run-{stamp}-{os.getpid():05d}-{secrets.token_hex(3)}"


def corpus_identity(path: str | Path) -> dict:
    """The manifest's corpus-identity block for a JSONL file."""
    path = Path(path)
    size = path.stat().st_size
    digest = hashlib.sha256()
    sampled = 0
    with path.open("rb") as handle:
        while sampled < PREFIX_SAMPLE_BYTES:
            block = handle.read(min(65536, PREFIX_SAMPLE_BYTES - sampled))
            if not block:
                break
            digest.update(block)
            sampled += len(block)
    return {
        "path": str(path),
        "bytes": size,
        "prefix_bytes": sampled,
        "prefix_sha256": digest.hexdigest(),
    }


@dataclass
class RunManifest:
    """One run directory's manifest (see the module docstring)."""

    run_id: str
    created_at: str
    repro_version: str
    corpus: dict
    config: dict
    database: dict
    status: str = STATUS_RUNNING
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "created_at": self.created_at,
            "repro_version": self.repro_version,
            "corpus": self.corpus,
            "config": self.config,
            "database": self.database,
            "status": self.status,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        try:
            return cls(
                run_id=data["run_id"],
                created_at=data["created_at"],
                repro_version=data["repro_version"],
                corpus=dict(data["corpus"]),
                config=dict(data["config"]),
                database=dict(data["database"]),
                status=data.get("status", STATUS_RUNNING),
                extra=dict(data.get("extra", {})),
            )
        except (KeyError, TypeError) as exc:
            raise RunManifestError(
                f"run manifest is missing required fields: {exc!r}"
            ) from None

    # ------------------------------------------------------------------
    # persistence

    def save(self, run_dir: str | Path) -> Path:
        path = Path(run_dir) / MANIFEST_NAME
        atomic_write_text(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        return path

    @classmethod
    def load(cls, run_dir: str | Path) -> "RunManifest":
        path = Path(run_dir) / MANIFEST_NAME
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise RunManifestError(
                f"{run_dir}: not a run directory (no {MANIFEST_NAME})"
            ) from None
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise RunManifestError(
                f"{path}: manifest does not parse as JSON: {exc}"
            ) from None
        if not isinstance(data, dict):
            raise RunManifestError(f"{path}: manifest root must be an object")
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # resume verification

    def verify_corpus(self, path: str | Path) -> None:
        """Refuse a resume whose corpus is not the one journaled.

        The path itself is advisory (runs move between hosts); size
        and prefix hash are binding.
        """
        actual = corpus_identity(path)
        for key in ("bytes", "prefix_bytes", "prefix_sha256"):
            if actual[key] != self.corpus[key]:
                raise RunMismatchError(
                    f"corpus {key}", self.corpus[key], actual[key]
                )

    def verify_config(
        self,
        *,
        chunk_size: int,
        quarantine: bool,
        max_grams: float,
        database_fingerprint: str,
    ) -> None:
        """Refuse a resume whose chunking/config diverges."""
        checks = (
            ("chunk_size", self.config.get("chunk_size"), chunk_size),
            ("quarantine", self.config.get("quarantine"), quarantine),
            ("max_grams", self.config.get("max_grams"), max_grams),
            # Journaled frames address chunks of the line table, whose
            # very shape depends on duplicate collapse.  Runs always
            # collapse now; a manifest recording ``"dedup": false``
            # journaled an uncollapsed table and cannot be resumed.
            ("dedup", self.config.get("dedup", True), True),
            (
                "database fingerprint",
                self.database.get("fingerprint"),
                database_fingerprint,
            ),
        )
        for field_name, expected, actual in checks:
            if expected != actual:
                raise RunMismatchError(field_name, expected, actual)
