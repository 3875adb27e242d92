"""Helpers shared by the benchmark's parent process and its children.

Everything here is independent of the workload: where the checkout's
program lives, order statistics, peak-RSS probes on ``/proc``, and the
canonical per-recipe digest the output checks compare.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch output of a run (corpus files, ready files, span dumps).
#: Listed in the checkout's ``.gitignore``.
OUT = BENCH_DIR / "out"
#: The paper's §III mean per-serving calorie error, printed beside ours.
PAPER_MAE_KCAL = 36.42


def program_present() -> bool:
    """Whether the checkout holds the program this benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Make ``import repro`` resolve to the checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child processes running the checkout's program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in ("REPRO_FAULTS", "REPRO_DEDUP", "REPRO_COLUMNAR"):
        env.pop(name, None)
    return env


def percentile(values, q: float) -> float:
    """Linear-interpolated *q*-quantile (0 <= q <= 1) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 0.5)


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> list[int]:
    """Direct children of a live process (every thread's list)."""
    pids: list[int] = []
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except FileNotFoundError:
            continue
    return pids


def wait_gone(pids, timeout_s: float = 10.0) -> bool:
    """Wait until none of *pids* is running (zombies count as gone)."""
    deadline = time.monotonic() + timeout_s
    while True:
        alive = []
        for pid in pids:
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    state = fh.read().rpartition(")")[2].split()[0]
            except (FileNotFoundError, ProcessLookupError):
                continue
            if state != "Z":
                alive.append(pid)
        if not alive:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)


def recipe_digest(estimate) -> str:
    """Short digest of everything a recipe estimate carries.

    ``repr`` of floats round-trips exactly, so equal digests mean
    bit-identical totals, per-line grams, matches, reasons and traces.
    """
    lines = [
        (
            item.parsed.text, item.status, item.reason, item.trace,
            item.quantity, item.grams, item.used_fallback_unit,
            None if item.match is None
            else (item.match.food.ndb_no, item.match.score),
            item.resolution, item.profile.values,
        )
        for item in estimate.ingredients
    ]
    canon = repr((
        estimate.servings, estimate.total.values,
        estimate.per_serving.values, lines,
    ))
    return hashlib.blake2b(canon.encode(), digest_size=8).hexdigest()


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(data))
    tmp.replace(path)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    #: End-to-end metric name -> value (units come from BENCHMARK.json).
    metrics: dict[str, float] = field(default_factory=dict)
    #: Per-layer metric name -> value, from a traced run.
    layers: dict[str, float] = field(default_factory=dict)
    #: Human-readable facts printed before the result line.
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())
