"""On-disk artifact container: header, checksum, strict payload codec.

One artifact is one file::

    offset  size  field
    ------  ----  -----------------------------------------------
         0     8  magic  b"REPROART"
         8     4  format version, big-endian uint32
        12     8  payload length in bytes, big-endian uint64
        20    32  SHA-256 digest of the payload bytes
        52     —  payload

The payload is a pickled tree of **plain builtins** (dicts, lists,
strings, numbers, booleans, ``None``).  Reading uses an unpickler
whose ``find_class`` always refuses, so a well-formed artifact cannot
smuggle class instances or code — anything beyond builtins fails as
:class:`~repro.artifacts.errors.ArtifactCorruptError` before any of
it is interpreted.  What goes *into* the payload is the business of
:mod:`repro.artifacts.store`; this module only moves validated bytes.

Writes are atomic: the bytes land in a same-directory temp file that
is fsynced and renamed over the target, so readers (e.g. workers of a
sharded pool starting mid-rebuild) never observe a half-written
artifact.  Validation order on read is magic → version → length →
checksum → deserialize; each failure names what was wrong.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import struct
from pathlib import Path

from repro.artifacts.errors import ArtifactCorruptError, ArtifactVersionError
from repro.utils import atomic_write_bytes

MAGIC = b"REPROART"
#: Current (and only) payload layout version.  Bump on any change to
#: the payload schema; loaders refuse every other version.
FORMAT_VERSION = 1

_HEADER = struct.Struct(">8sIQ32s")
HEADER_SIZE = _HEADER.size


class _BuiltinsOnlyUnpickler(pickle.Unpickler):
    """Unpickler that refuses every global lookup.

    Plain containers and scalars never call ``find_class``, so a
    payload written by :func:`pack_payload` loads fine; anything else
    (class instances, functions, ``__reduce__`` payloads) is rejected
    before construction.
    """

    def find_class(self, module: str, name: str):  # noqa: ARG002
        raise ArtifactCorruptError(
            f"artifact payload references non-builtin object "
            f"{module}.{name}; refusing to load"
        )


def pack_payload(payload: dict) -> bytes:
    """Serialize a builtins-only payload tree to bytes."""
    return pickle.dumps(payload, protocol=4)


def unpack_payload(blob: bytes) -> dict:
    """Deserialize payload bytes written by :func:`pack_payload`."""
    try:
        payload = _BuiltinsOnlyUnpickler(io.BytesIO(blob)).load()
    except ArtifactCorruptError:
        raise
    except Exception as exc:
        raise ArtifactCorruptError(
            f"artifact payload does not deserialize: {exc}"
        ) from None
    if not isinstance(payload, dict):
        raise ArtifactCorruptError(
            f"artifact payload root must be a dict, got "
            f"{type(payload).__name__}"
        )
    return payload


def write_artifact_bytes(path: str | Path, payload: dict) -> int:
    """Write *payload* as a complete artifact file; returns its size.

    The file appears atomically (write temp + fsync + rename) and is
    byte-deterministic: the same payload tree always produces the
    same file, so rebuild-and-compare is a valid freshness check.
    """
    body = pack_payload(payload)
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, len(body), hashlib.sha256(body).digest()
    )
    return atomic_write_bytes(path, header + body)


def read_artifact_digest(path: str | Path) -> str:
    """Payload SHA-256 hex digest from an artifact's header alone.

    Reads only the fixed-size header — no payload validation — so a
    run manifest can bind itself to the exact artifact file it was
    started from without paying a full load.
    """
    with open(path, "rb") as handle:
        head = handle.read(HEADER_SIZE)
    if len(head) < HEADER_SIZE:
        raise ArtifactCorruptError(
            f"{path}: truncated artifact — {len(head)} bytes is smaller "
            f"than the {HEADER_SIZE}-byte header"
        )
    magic, _version, _length, digest = _HEADER.unpack(head)
    if magic != MAGIC:
        raise ArtifactCorruptError(
            f"{path}: not a repro artifact (bad magic {magic!r})"
        )
    return digest.hex()


def read_artifact_bytes(path: str | Path) -> dict:
    """Read, validate and deserialize an artifact file.

    Raises
    ------
    ArtifactCorruptError
        Truncated file, wrong magic, payload shorter/longer than the
        header claims, checksum mismatch, or undeserializable payload.
    ArtifactVersionError
        Any format version other than :data:`FORMAT_VERSION`.
    OSError
        The file cannot be opened/read at all (missing path, perms).
    """
    blob = Path(path).read_bytes()
    if len(blob) < HEADER_SIZE:
        raise ArtifactCorruptError(
            f"{path}: truncated artifact — {len(blob)} bytes is smaller "
            f"than the {HEADER_SIZE}-byte header"
        )
    magic, version, length, digest = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ArtifactCorruptError(
            f"{path}: not a repro artifact (bad magic {magic!r})"
        )
    if version != FORMAT_VERSION:
        raise ArtifactVersionError(
            f"{path}: artifact format version {version} is not supported "
            f"(this repro reads version {FORMAT_VERSION}); rebuild with "
            f"`repro build-artifact`"
        )
    body = blob[HEADER_SIZE:]
    if len(body) != length:
        raise ArtifactCorruptError(
            f"{path}: truncated artifact — header declares a "
            f"{length}-byte payload but {len(body)} bytes follow"
        )
    if hashlib.sha256(body).digest() != digest:
        raise ArtifactCorruptError(
            f"{path}: payload checksum mismatch — the file was modified "
            f"or damaged after it was written"
        )
    return unpack_payload(body)
