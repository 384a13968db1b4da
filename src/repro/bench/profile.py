"""Hotspot profiler: ``python -m repro.bench profile <workload>``.

Runs any workload registered in the wall-clock harness under
:mod:`cProfile` and prints the top-N functions by cumulative host time.
This makes perf work profile-guided: before optimising a path, run the
closest workload here and read where the host CPU actually goes (the
simulated clock is unaffected — profiling only observes the host).

``--by-layer`` instead folds host self time by package into the columns
of the ROADMAP's per-layer table (page cache, rest of ``fscommon``,
devices, ``core``, ``sim``, other) and prints each column's share.  A
built-in function's self time (a dict method, ``sorted``, ...) goes to the
layers of its callers, in proportion to the time each call site spent in
it.

Usage::

    PYTHONPATH=src python -m repro.bench profile metadata_churn
    PYTHONPATH=src python -m repro.bench profile seq_read --smoke -n 40
    PYTHONPATH=src python -m repro.bench profile hot_set_reads --sort tottime
    PYTHONPATH=src python -m repro.bench profile trace_replay --smoke --by-layer
    PYTHONPATH=src python -m repro.bench profile --list
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
from typing import Dict, List, Optional

from repro.bench.wallclock import WORKLOADS, run_workload

DEFAULT_TOP_N = 25

#: pstats sort keys accepted by --sort; "cumulative" finds the expensive
#: call path, "tottime" finds the function burning the cycles itself
SORT_KEYS = ("cumulative", "tottime", "ncalls")

#: per-layer columns as (label, path under ``repro/``); the first match wins
LAYERS = (
    ("page cache", "fscommon/pagecache.py"),
    ("rest of fscommon", "fscommon/"),
    ("devices", "devices/"),
    ("core", "core/"),
    ("sim", "sim/"),
)
OTHER = "other"
#: cProfile's file name for built-in functions
BUILTIN = "~"


def layer_of(filename: str) -> str:
    """The per-layer column a source file's self time belongs to."""
    at = filename.rfind("/repro/")
    if at >= 0:
        rel = filename[at + len("/repro/") :]
        for label, prefix in LAYERS:
            if rel.startswith(prefix):
                return label
    return OTHER


def layer_shares(stats: pstats.Stats) -> Dict[str, float]:
    """Share of host self time per layer column; the shares sum to 1."""
    self_s = dict.fromkeys([label for label, _ in LAYERS] + [OTHER], 0.0)
    for (filename, _, _), (_, _, tottime, _, callers) in stats.stats.items():
        if filename == BUILTIN and callers:
            for (caller_file, _, _), caller_stats in callers.items():
                self_s[layer_of(caller_file)] += caller_stats[2]
        else:
            self_s[layer_of(filename)] += tottime
    total = sum(self_s.values())
    return {label: (t / total if total else 0.0) for label, t in self_s.items()}


def format_layer_shares(name: str, shares: Dict[str, float]) -> str:
    """One markdown row in the ROADMAP table's layout, with its header."""
    header = "| workload | " + " | ".join(shares) + " |"
    rule = "| --- " * (len(shares) + 1) + "|"
    row = f"| `{name}` | " + " | ".join(f"{v:.1%}" for v in shares.values()) + " |"
    return "\n".join((header, rule, row)) + "\n"


def profile_workload(
    name: str,
    smoke: bool = False,
    top_n: int = DEFAULT_TOP_N,
    sort: str = "cumulative",
    by_layer: bool = False,
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
    header = (
        f"profile: {name} ({'smoke' if smoke else 'full'} size) — "
        f"wall={result['wall_s']:.3f}s host, "
        f"sim={result['sim_elapsed_s']:.4f}s simulated\n"
    )
    if by_layer:
        return header + "host self time by layer:\n" + format_layer_shares(
            name, layer_shares(stats)
        )
    stats.sort_stats(sort)
    stats.print_stats(top_n)
    return header + f"top {top_n} functions by {sort} host time:\n" + buf.getvalue()


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
    parser.add_argument("--by-layer", action="store_true")
    args = parser.parse_args(argv)
    if args.list or args.workload is None:
        print("registered workloads:")
        for name in WORKLOADS:
            print(f"  {name}")
        print(parser.format_usage(), end="")
        return 0 if args.list else 2
    print(
        profile_workload(args.workload, args.smoke, args.top, args.sort, args.by_layer)
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
