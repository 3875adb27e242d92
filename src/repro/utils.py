"""Small shared utilities.

* :class:`BoundedCache` — the size-capped memo dict used by the
  long-running paths (estimator parse cache, matcher token/lemma and
  result memos, the service's line-outcome and response caches) so
  corpus-scale processes cannot grow memory without limit.
* :func:`atomic_write_bytes` / :func:`atomic_write_text` — the one
  crash-safe file-replacement path shared by every durable writer in
  the repo (artifact store, run manifests, dead-letter reports,
  benchmark result files).  Write temp file in the target directory,
  fsync, rename: a reader — or a process resuming after a crash —
  observes either the complete old file or the complete new one,
  never a torn write (``tests/test_utils_atomic.py``).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import TypeVar

K = TypeVar("K")
V = TypeVar("V")

#: Internal sentinel distinguishing "absent" from a cached ``None``.
_MISSING = object()

#: Default entry cap for per-instance memo caches (parse, matcher,
#: quantity).  Generous enough that realistic corpora never evict
#: (RecipeDB has ~23k distinct ingredient phrases), small enough to
#: bound a service that sees adversarially diverse input.  The
#: service's line-outcome memo holds much larger entries (a rendered
#: fragment each) and has its own, smaller cap sized to the same
#: ~23k figure (``repro.service.state.LINE_MEMO_CAP``).
DEFAULT_CACHE_CAP = 1 << 17


class BoundedCache(dict[K, V]):
    """A dict memo with a hard size cap and FIFO eviction.

    Insertion past the cap evicts the oldest entry (dicts preserve
    insertion order).  FIFO rather than LRU on purpose: these caches
    memoize pure functions, so an eviction only costs a recompute, and
    FIFO needs no bookkeeping on the hit path — ``get`` stays a plain
    dict lookup plus one integer increment.

    Effectiveness counters (hits / misses / evictions) are maintained
    on the ``get`` path and surfaced by :meth:`stats`; the service tier
    exposes them per cache in the ``/metrics`` ``caches`` section.
    Callers that cache ``None`` values must probe through ``get`` with
    a private sentinel default rather than ``in`` + ``[]`` (which would
    bypass the counters).
    """

    def __init__(self, cap: int = DEFAULT_CACHE_CAP):
        if cap <= 0:
            raise ValueError(f"cache cap must be positive: {cap}")
        super().__init__()
        self._cap = cap
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def cap(self) -> int:
        return self._cap

    def get(self, key: K, default: V | None = None) -> V | None:  # type: ignore[override]
        value = dict.get(self, key, _MISSING)
        if value is _MISSING:
            self._misses += 1
            return default
        self._hits += 1
        return value  # type: ignore[return-value]

    def __setitem__(self, key: K, value: V) -> None:
        if not dict.__contains__(self, key) and len(self) >= self._cap:
            del self[next(iter(self))]
            self._evictions += 1
        super().__setitem__(key, value)

    def stats(self) -> dict[str, int | float]:
        """Effectiveness snapshot: size, cap, hits, misses, evictions,
        and the derived hit rate (0.0 when the cache was never probed)."""
        probes = self._hits + self._misses
        return {
            "size": len(self),
            "cap": self._cap,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "hit_rate": (self._hits / probes) if probes else 0.0,
        }


# ----------------------------------------------------------------------
# crash-safe file replacement


def atomic_write_bytes(
    path: str | Path, data: bytes, *, fsync: bool = True
) -> int:
    """Replace *path* with *data* atomically; returns the byte count.

    The bytes land in a temp file created in the target's directory
    (same filesystem, so the final ``os.replace`` is an atomic rename),
    are flushed and — with *fsync*, the default — fsync'd before the
    rename.  A crash at any point leaves the target either untouched
    or fully replaced; the temp file is unlinked on every failure
    path.

    mkstemp creates the temp file ``0600`` and ``os.replace`` keeps
    the temp file's mode — without correction, a file written by a
    deploy user would be unreadable by the service account.  The
    ordinary umask-respecting mode is granted instead.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent or Path("."), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return len(data)


def atomic_write_text(
    path: str | Path,
    text: str,
    *,
    encoding: str = "utf-8",
    fsync: bool = True,
) -> int:
    """:func:`atomic_write_bytes` for text content."""
    return atomic_write_bytes(
        path, text.encode(encoding), fsync=fsync
    )
