"""Benchmark runner: one workload, one seed, one measured run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload zipf_tiered --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats episodes (fresh stack, set-up, measured window,
correctness checks) until ``--seconds`` are spent, with at least two, and
prints the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced episodes and prints the per-layer metrics.  Every episode of a seed
must produce identical simulated results (the determinism gate) and pass
the read-back and fsck checks (the correctness gate).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON report with sample counts and per-episode host timings.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Recorder, no_span  # noqa: E402

#: layers whose host self time the traced run reports
HOST_LAYERS = (
    "vfs", "mux", "scm_cache", "migration", "mirror", "policy", "ring",
    "pagecache", "journal", "blockmap", "fs.nova", "fs.xfs", "fs.ext4",
    "nfs", "dev.pm", "dev.ssd", "dev.hdd", "sim", "cluster", "bench",
)
SIM_LAYERS = ("mux", "fs.nova", "fs.xfs", "fs.ext4", "nfs")
CALL_LAYERS = ("vfs", "mux", "pagecache", "blockmap", "fs.nova", "fs.xfs", "fs.ext4", "sim")


def percentile_ns(values: List[int], q: float) -> int:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


class Episode:
    """One fresh stack: set-up, one measured window, the post-window checks.

    Host times are CPU seconds of this process (``time.process_time``),
    which leave out time spent waiting for a CPU.  The set-up, and the
    window of an untraced episode, convert them to reference seconds with
    ``reference_kernel_s`` timings (see ``workloads.Recorder.chunk_costs``).
    """

    def __init__(self, name: str, seed: int, tracer: Tracer = None) -> None:
        gc.collect()
        wl = WORKLOADS[name](seed)
        wl.setup_rec.mark()
        wl.setup()
        wl.setup_rec.mark()
        self.setup_s = sum(cpu for _, cpu in wl.setup_rec.chunk_costs())
        before = layers.snapshot(wl)
        rec = Recorder(calibrate=tracer is None)
        span = no_span
        if tracer is not None:
            tracer.start(wl.clock)
            span = tracer.span
        h0 = time.process_time()
        wl.run(rec, span)
        #: window CPU seconds, without the reference kernel runs
        self.host_s = time.process_time() - h0 - rec.kernel_s()
        if tracer is not None:
            tracer.stop()
        self.counts = layers.delta(before, layers.snapshot(wl))
        self.problems = wl.verify()
        self.rec = rec
        self.window_ns = rec.end_ns - rec.start_ns
        self.fingerprint = (
            rec.lat, rec.lag, rec.attempted, rec.failed, rec.user_bytes,
            self.window_ns, self.counts,
        )

    @property
    def failed(self) -> int:
        return self.rec.failed + len(self.problems)


def host_rate(episodes: List[Episode]) -> tuple:
    """Ops per host reference second, best of the episodes chunk by chunk.

    Every episode repeats the same work, so chunk ``i`` holds the same ops
    in each.  Contention from other guests only ever slows a chunk down,
    and the reference scaling removes most but not all of it; the least
    scaled time of each chunk across the episodes is the one least
    disturbed.  The rate is the window's ops over the sum of those times.
    """
    per_episode = [e.rec.chunk_costs() for e in episodes]
    ops = 0
    seconds = 0.0
    for chunk in zip(*per_episode):
        ops += chunk[0][0]
        seconds += min(cpu for _, cpu in chunk)
    return (ops / seconds, "1/s", len(per_episode[0]) * len(per_episode))


def end_to_end(episodes: List[Episode]) -> Dict[str, tuple]:
    """Metric name -> (value, unit, samples)."""
    first = episodes[0]
    rec = first.rec
    us = 1e-3
    m: Dict[str, tuple] = {}
    m["host_ops_per_s"] = host_rate(episodes)
    m["setup_s"] = (statistics.median(e.setup_s for e in episodes), "s", len(episodes))
    m["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1)
    completed = rec.attempted - rec.failed
    m["sim_ops_per_s"] = (completed / (first.window_ns * 1e-9), "1/s", completed)
    for kind, q, name in (
        ("read", 0.5, "sim_read_p50_us"), ("read", 0.99, "sim_read_p99_us"),
        ("write", 0.5, "sim_write_p50_us"), ("write", 0.99, "sim_write_p99_us"),
        ("fsync", 0.99, "sim_fsync_p99_us"), ("meta", 0.99, "sim_meta_p99_us"),
    ):
        values = rec.lat[kind]
        m[name] = (percentile_ns(values, q) * us if values else 0.0, "us", len(values))
    m["sim_submit_lag_p99_us"] = (
        percentile_ns(rec.lag, 0.99) * us if rec.lag else 0.0, "us", len(rec.lag))
    m["write_amp"] = (
        layers.device_bytes_written(first.counts) / rec.user_bytes if rec.user_bytes else 0.0,
        "ratio", rec.user_bytes)
    m["ok_op_share"] = (1.0 - first.failed / rec.attempted, "ratio", rec.attempted)
    return m


def per_layer(untraced: List[Episode], traced: List[Episode], tracers: List[dict]) -> Dict[str, tuple]:
    """Metric name -> (value, unit); host times are medians over traced episodes."""
    med = statistics.median
    m: Dict[str, tuple] = {}
    for layer in HOST_LAYERS:
        m[f"{layer}.host_self_s"] = (med(t["host"].get(layer, 0.0) for t in tracers), "s")
    first = tracers[0]
    for layer in SIM_LAYERS:
        m[f"{layer}.sim_self_us"] = (first["sim"].get(layer, 0) / 1e3, "us")
    for layer in CALL_LAYERS:
        m[f"{layer}.calls"] = (first["calls"].get(layer, 0), "count")
    m["blt.lookups"] = (first["counted"].get("blt.lookups", 0), "count")
    m["policy.orders"] = (first["counted"].get("policy.orders", 0), "count")
    m.update(layers.counter_metrics(traced[0].counts, traced[0].window_ns))
    m["trace.unattributed_share"] = (
        med((t["window"] - sum(t["host"].values())) / t["window"] for t in tracers), "ratio")
    m["trace.overhead_x"] = (
        med(e.host_s for e in traced) / med(e.host_s for e in untraced), "x")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    untraced: List[Episode] = []
    traced: List[Episode] = []
    folded: List[dict] = []
    tracer = Tracer()
    while True:
        t0 = time.perf_counter()
        untraced.append(Episode(args.workload, args.seed))
        if args.trace:
            tracer.install()
            try:
                episode = Episode(args.workload, args.seed, tracer)
            finally:
                tracer.uninstall()
            host, sim, spans = tracer.self_times()
            folded.append({
                "host": host, "sim": sim, "spans": spans, "window": tracer.window_s,
                "calls": dict(tracer.calls), "counted": dict(tracer.counted),
            })
            traced.append(episode)
        step = time.perf_counter() - t0
        done = len(untraced) + len(traced)
        if done >= 2 and time.perf_counter() - start + step > args.seconds:
            break

    episodes = untraced + traced
    reference = untraced[0].fingerprint
    deterministic = all(e.fingerprint == reference for e in episodes)
    problems = sorted({p for e in episodes for p in e.problems})
    mismatches = sum(e.rec.mismatches for e in episodes)
    correct = deterministic and not problems and mismatches == 0 and all(
        e.rec.failed == 0 for e in episodes)

    if args.trace:
        metrics = {k: (v, u) for k, (v, u) in per_layer(untraced, traced, folded).items()}
        samples = {"spans": [f["spans"] for f in folded]}
    else:
        e2e = end_to_end(untraced)
        metrics = {k: (v, u) for k, (v, u, _) in e2e.items()}
        samples = {k: n for k, (_, _, n) in e2e.items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "episodes": len(episodes),
        "deterministic": deterministic,
        "read_mismatches": mismatches,
        "problems": problems[:10],
        "errors": untraced[0].rec.errors,
        "samples": samples,
        "setup_s": [round(e.setup_s, 4) for e in episodes],
        "window_host_s": [round(e.host_s, 4) for e in episodes],
        "window_sim_s": untraced[0].window_ns * 1e-9,
        "client_busy_share": untraced[0].rec.busy_ns / untraced[0].window_ns,
        "reference_kernel_ms": [
            round(statistics.median(k for _, _, k in e.rec.marks) * 1e3, 3)
            for e in untraced
        ],
    }
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": sum(e.rec.attempted for e in episodes),
        "failed": sum(e.failed for e in episodes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
