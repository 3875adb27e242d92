"""Append-only, checksummed chunk journal for durable batch runs.

One journal is one file of self-delimiting frames::

    offset  size  field
    ------  ----  -----------------------------------------------
         0     4  magic  b"RJL2"
         4     1  record kind (PLAN/COLLECT/CHECKPOINT/FALLBACK/COMPLETE)
         5     8  payload length in bytes, big-endian uint64
        13    32  SHA-256 digest of bytes 4-12 (kind and length)
                  followed by the payload
        45     —  payload (builtins-only pickle, dict root — the same
                  restricted codec as :mod:`repro.artifacts.format`)

Frames of the first format, magic ``b"RJL1"``, have the same layout
but a digest of the payload alone, so a flipped kind byte that named
another valid kind went unnoticed.  They are still read, with that
digest, so a journal written in that format still resumes; every
frame appended now is ``RJL2``, also after ``RJL1`` frames.

Appends are crash-safe the cheap way: the whole frame is one
``write()`` call on an append-mode handle, flushed and **fsync'd**
before :meth:`append` returns.  No rename dance — an append either
reaches the disk completely or leaves a *torn tail*, and the reader
is built around exactly that failure shape.

**Torn-tail semantics:** :meth:`scan` walks frames front to back and
stops at the first one that is short, has bad magic, or fails its
checksum.  Everything before that point is the valid prefix;
everything from it on is the torn tail, which :meth:`open_for_append`
truncates away before resuming.  A chunk whose frame was torn is
simply re-executed — chunk results are pure functions of chunk
content, so the replacement frame is bit-identical to what the torn
one would have said (the engine's exact-parity property doing
double duty as a recovery guarantee).

The driver-kill fault sites live here: ``crash@journal-append:N``
hard-exits immediately before frame N is written (a clean
chunk-boundary kill) and ``corrupt@journal-append:N`` fsyncs *half*
of frame N and then hard-exits (a mid-append power cut), giving the
chaos suite both failure shapes deterministically.
"""

from __future__ import annotations

import hashlib
import os
import struct
from pathlib import Path
from typing import NamedTuple

from repro import faults
from repro.artifacts.format import pack_payload, unpack_payload

MAGIC = b"RJL2"
#: The first frame format: its digest covers the payload only.
MAGIC_V1 = b"RJL1"

#: Record kinds, in the order a clean run appends them.
KIND_PLAN = 1  # chunk plan: distinct lines, chunk size, chunk counts
KIND_COLLECT = 2  # one phase-1 chunk result (wire + snapshot + letters)
KIND_CHECKPOINT = 3  # phase boundary: the merged unit tables
KIND_FALLBACK = 4  # one phase-3 chunk result
KIND_COMPLETE = 5  # the run finished; payload is the report summary

KIND_NAMES = {
    KIND_PLAN: "plan",
    KIND_COLLECT: "collect",
    KIND_CHECKPOINT: "checkpoint",
    KIND_FALLBACK: "fallback",
    KIND_COMPLETE: "complete",
}

_FRAME = struct.Struct(">4sBQ32s")
FRAME_HEADER_SIZE = _FRAME.size
_KIND_AND_LENGTH = struct.Struct(">BQ")

#: Fault-injection site name for driver kills at journal appends.
FAULT_SITE = "journal-append"


def _frame_digest(kind: int, payload: bytes) -> bytes:
    """The ``RJL2`` digest: SHA-256 over kind, length and payload."""
    digest = hashlib.sha256(_KIND_AND_LENGTH.pack(kind, len(payload)))
    digest.update(payload)
    return digest.digest()


class JournalRecord(NamedTuple):
    """One validated frame."""

    kind: int
    payload: dict
    offset: int  # byte offset of the frame's header in the file


class ScanResult(NamedTuple):
    """Everything one front-to-back journal walk learns."""

    records: list[JournalRecord]
    valid_bytes: int  # length of the valid prefix
    torn_bytes: int  # bytes after it (0 for a cleanly-closed journal)


class RunJournal:
    """The chunk journal of one run directory."""

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._handle = None
        self._frames = 0

    @property
    def path(self) -> Path:
        return self._path

    @property
    def frames(self) -> int:
        """Frames currently in the file (valid prefix only)."""
        return self._frames

    # ------------------------------------------------------------------
    # reading

    def scan(self) -> ScanResult:
        """Validate the journal front to back (see torn-tail semantics)."""
        try:
            blob = self._path.read_bytes()
        except FileNotFoundError:
            return ScanResult([], 0, 0)
        records: list[JournalRecord] = []
        offset = 0
        size = len(blob)
        while offset + FRAME_HEADER_SIZE <= size:
            magic, kind, length, digest = _FRAME.unpack_from(blob, offset)
            if magic not in (MAGIC, MAGIC_V1) or kind not in KIND_NAMES:
                break
            start = offset + FRAME_HEADER_SIZE
            end = start + length
            if end > size:
                break
            payload_bytes = blob[start:end]
            if magic == MAGIC:
                expected = _frame_digest(kind, payload_bytes)
            else:
                expected = hashlib.sha256(payload_bytes).digest()
            if expected != digest:
                break
            try:
                payload = unpack_payload(payload_bytes)
            except Exception:
                # Checksum-valid but undecodable: treat as torn anyway —
                # discarding the frame only costs re-executing its
                # chunk, and nothing downstream ever sees the bytes.
                break
            records.append(JournalRecord(kind, payload, offset))
            offset = end
        return ScanResult(records, offset, size - offset)

    # ------------------------------------------------------------------
    # writing

    def create(self) -> None:
        """Start an empty journal (the file must not hold frames yet)."""
        self._path.touch()
        self._handle = self._path.open("ab")
        self._frames = 0

    def open_for_append(self) -> ScanResult:
        """Validate, truncate any torn tail, and open for appending."""
        scanned = self.scan()
        if scanned.torn_bytes:
            with self._path.open("r+b") as handle:
                handle.truncate(scanned.valid_bytes)
        self._handle = self._path.open("ab")
        self._frames = len(scanned.records)
        return scanned

    def append(self, kind: int, payload: dict) -> None:
        """Durably append one frame (single write + flush + fsync)."""
        if self._handle is None:
            raise RuntimeError(
                "journal is not open for appending "
                "(call create() or open_for_append())"
            )
        frame_index = self._frames
        body = pack_payload(payload)
        frame = (
            _FRAME.pack(MAGIC, kind, len(body), _frame_digest(kind, body))
            + body
        )
        plan = faults.active_plan()
        if plan is not None:
            # crash@journal-append:N — die before any bytes of frame N.
            plan.fire(FAULT_SITE, frame_index)
            if plan.wants_torn_write(FAULT_SITE, frame_index):
                # corrupt@journal-append:N — fsync a *partial* frame,
                # then die: the on-disk torn tail is real.
                self._handle.write(frame[: max(1, len(frame) // 2)])
                self._handle.flush()
                os.fsync(self._handle.fileno())
                os._exit(faults.CRASH_EXIT_CODE)
        self._handle.write(frame)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._frames += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
