"""The repository's benchmark: one command, two seeded workloads.

    python3 perfbench/run.py --workload batch-cold --seed 1 --seconds 40 --trace 0

Runs one workload against the checkout's unmodified program (``src/``),
checks its outputs, and prints every metric that ``BENCHMARK.json``
registers: the ``end_to_end`` ones with ``--trace 0``, the
``per_layer`` ones with ``--trace 1``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exits non-zero, printing no result, when the
checkout has no program to run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import OUT, ROOT, program_present
from inputs import WHY


#: Every process of a run uses this hash seed.  The program's outputs
#: depend on it: ``UnitResolver.resolve`` walks the ``SIZE_UNITS``
#: frozenset for size-equivalent portions, so "3 small zucchini" can
#: resolve to a different portion under another seed.  Pinning it makes
#: the program and its reference agree run to run.
HASH_SEED = "0"


def _workload(name: str):
    if name == "batch-cold":
        import batch_cold

        return batch_cold.run
    import serve

    return serve.run_estimate


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not program_present() or not spec_path.is_file():
        print(
            f"error: no program under {ROOT / 'src'} (or no BENCHMARK.json); "
            "run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    outcome = _workload(args.workload)(
        args.seed, args.seconds, bool(args.trace)
    )

    metrics = {}
    if args.trace:
        for metric in spec["per_layer"]:
            value = outcome.layers.get(metric["name"], 0.0)
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    else:
        for metric in spec["end_to_end"]:
            value = outcome.metrics[metric["name"]]
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    print(f"# {args.workload}: {WHY[args.workload]}")
    for note in outcome.notes:
        print(f"# {note}")
    print(f"# checks: {outcome.checks}")
    print(
        f"# error_rate: {outcome.failed / max(outcome.attempted, 1):.6f} "
        f"({outcome.failed} failed of {outcome.attempted} attempted)"
    )
    for name, metric in metrics.items():
        print(f"# {name:40s} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        for name, value in outcome.metrics.items():
            if name not in metrics:
                print(f"# {name:40s} {value:.6g} (printed, not gated)")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
