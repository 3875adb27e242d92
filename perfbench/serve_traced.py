"""Run ``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_traced.py --spans S.jsonl -- <repro serve arguments>

The server is the checkout's own; only the wrappers of
:func:`tracer.install_service` are added.  When the server stops
(SIGTERM, as the benchmark stops it) its spans go to ``--spans``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from common import use_program
from tracer import Tracer, install_service, write_spans


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv[:split])

    use_program()
    from repro.cli import main as repro_main

    tracer = Tracer()
    install_service(tracer)
    try:
        return repro_main(["serve", *argv[split + 1:]])
    finally:
        write_spans(Path(args.spans), tracer.records())


if __name__ == "__main__":
    raise SystemExit(main())
