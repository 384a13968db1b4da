"""CLI entry point: ``python -m repro.bench [NAME ...] [--smoke]`` runs the
registered paper experiments, ablations and macro comparison (all by
default), prints each paper-vs-measured table with one ok/FAIL line per
shape check, and exits 1 if a check fails (2 on an unknown name or flag).
``--smoke`` runs the smaller sizes; EXPERIMENTS.md records the full ones.

Subcommands: ``wallclock`` (host-CPU trajectory harness + ``--smoke`` CI
drift guard), ``profile`` (cProfile hotspot report for any registered
wall-clock workload), ``trace`` (run a mixed workload under fault
injection, print per-migration retry/backoff telemetry, rerun it on a
healthy stack) and ``crashexplore`` (enumerate every sync point of the
canonical workload, crash at each one, verify recovery; ``--smoke``
explores a strided subset for CI)."""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List, Optional

from repro.bench.experiments import EXPERIMENTS

#: subcommand -> module whose ``main(argv)`` it runs
SUBCOMMANDS = {
    "wallclock": "repro.bench.wallclock",
    "profile": "repro.bench.profile",
    "trace": "repro.bench.trace",
    "crashexplore": "repro.tools.crashexplore",
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        return importlib.import_module(SUBCOMMANDS[argv[0]]).main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", add_help=False, allow_abbrev=False
    )
    parser.add_argument("names", nargs="*", metavar="NAME")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment {', '.join(unknown)} "
            f"(registered: {', '.join(EXPERIMENTS)})"
        )
    failed = 0
    for i, name in enumerate(args.names or EXPERIMENTS):
        report = EXPERIMENTS[name](args.smoke)
        if i:
            print()
        print(report.text(), flush=True)
        failed += len(report.failed)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
