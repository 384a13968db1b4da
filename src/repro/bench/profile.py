"""Hotspot profiler: ``python -m repro.bench profile <workload>``.

Runs any workload registered in the wall-clock harness under
:mod:`cProfile` and prints the top-N functions by cumulative host time.
This makes perf work profile-guided: before optimising a path, run the
closest workload here and read where the host CPU actually goes (the
simulated clock is unaffected — profiling only observes the host).

Usage::

    PYTHONPATH=src python -m repro.bench profile metadata_churn
    PYTHONPATH=src python -m repro.bench profile seq_read --smoke -n 40
    PYTHONPATH=src python -m repro.bench profile hot_set_reads --sort tottime
    PYTHONPATH=src python -m repro.bench profile --list
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
from typing import List, Optional

from repro.bench.wallclock import WORKLOADS, run_workload

DEFAULT_TOP_N = 25

#: pstats sort keys accepted by --sort; "cumulative" finds the expensive
#: call path, "tottime" finds the function burning the cycles itself
SORT_KEYS = ("cumulative", "tottime", "ncalls")


def profile_workload(
    name: str,
    smoke: bool = False,
    top_n: int = DEFAULT_TOP_N,
    sort: str = "cumulative",
) -> str:
    """Run one registered workload under cProfile; returns the report text."""
    if name not in WORKLOADS:
        raise KeyError(name)
    if sort not in SORT_KEYS:
        raise ValueError(f"sort must be one of {SORT_KEYS}, not {sort!r}")
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_workload(name, smoke)
    profiler.disable()
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats(sort)
    stats.print_stats(top_n)
    header = (
        f"profile: {name} ({'smoke' if smoke else 'full'} size) — "
        f"wall={result['wall_s']:.3f}s host, "
        f"sim={result['sim_elapsed_s']:.4f}s simulated\n"
        f"top {top_n} functions by {sort} host time:\n"
    )
    return header + buf.getvalue()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench profile", add_help=False
    )
    parser.add_argument(
        "workload", nargs="?", choices=list(WORKLOADS), metavar="workload"
    )
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("-n", "--top", type=int, default=DEFAULT_TOP_N)
    parser.add_argument("--sort", choices=SORT_KEYS, default="cumulative")
    args = parser.parse_args(argv)
    if args.list or args.workload is None:
        print("registered workloads:")
        for name in WORKLOADS:
            print(f"  {name}")
        print(parser.format_usage(), end="")
        return 0 if args.list else 2
    print(profile_workload(args.workload, args.smoke, args.top, args.sort))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
