"""Wall-clock benchmark harness: host-CPU cost of the simulated data path.

Every other benchmark in this repo reports **simulated** time — numbers
produced by the timing model, identical on any machine.  This harness
additionally measures how long the *host* takes to push the bytes through
the stack (``time.perf_counter`` seconds and ops/sec), so data-path
optimisations show up as a perf trajectory across PRs even though the
simulated results are bit-identical by design.

Every workload is one entry in :data:`WORKLOADS`: a name and a body that
picks its smoke or full sizes, builds its stacks untimed and runs its
measured work inside ``with timed:``.  :func:`run_workload` owns the
timing and the result shape, and ``wallclock`` and ``profile`` both read
the registry.

Two guarantees this module enforces:

* **Determinism** — each workload builds a fresh stack and records a
  *simulated fingerprint* (:func:`sim_fingerprint`: ``clock.now_ns``,
  per-device ``DeviceStats``, SCM-cache counters).  Repetitions must
  produce identical fingerprints or the run aborts.
* **Drift detection** — ``--smoke`` reruns a reduced version of every
  workload and compares fingerprints against the golden values recorded
  in ``BENCH_wallclock.json``, exiting nonzero on any mismatch and on any
  workload registered without a golden (or golden without a workload).
  This is the CI guard that data-path changes did not alter the timing
  model.

Usage::

    PYTHONPATH=src python -m repro.bench wallclock            # full run
    PYTHONPATH=src python -m repro.bench wallclock --smoke    # CI guard
    PYTHONPATH=src python -m repro.bench wallclock --out F --before G
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.bench.harness import build_strata
from repro.bench.macro import fileserver, varmail, webserver
from repro.bench.multi_tenant import (
    TenantSpec,
    _zipf_cdf,
    _zipf_pick,
    fairness_slowdowns,
    maintenance_tick,
    populate,
    run_multi_tenant,
    slowdown_x,
)
from repro.bench.tracereplay import (
    drop_clean_page_caches,
    load_canonical,
    replay_trace,
    settle,
)
from repro.bench.workloads import (
    cache_writeback,
    fault_storm,
    hot_set_reads,
    make_file,
    metadata_churn,
    metadata_tree,
    migration_churn,
    sequential_read,
    sequential_write,
    striped_reads,
)
from repro.core.qos import IoClass
from repro.core.scheduler import IoScheduler
from repro.devices.faults import FaultConfig
from repro.devices.profile import OPTANE_PMEM_200, OPTANE_SSD_P4800X
from repro.sim.histogram import LatencyHistogram
from repro.sim.rng import DeterministicRng
from repro.stack import Stack, build_stack

KIB = 1024
MIB = 1024 * KIB

#: output file written at the repo root (cwd of the bench invocation)
DEFAULT_OUT = "BENCH_wallclock.json"

#: repetitions per workload; wall_s is the minimum (least-noise) rep
FULL_REPS = 3
SMOKE_REPS = 1


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

#: counters only a write-back cache has; pinned whenever one is present
_WRITE_BACK_KEYS = ("write_hit", "destage_runs", "destaged_blocks", "dirty_blocks")


def sim_fingerprint(
    clock, devices: Dict[str, Any], caches: Iterable[Any]
) -> Dict[str, object]:
    """Simulated fingerprint of a run: final clock, per-device stats and
    SCM-cache counters summed over ``caches`` (``None`` entries are stacks
    without a cache).  A write-back cache also pins its write-back
    counters."""
    present = [cache for cache in caches if cache is not None]
    keys = ("hit", "miss")
    if any(cache.write_back for cache in present):
        keys += _WRITE_BACK_KEYS
    counters = [cache.cache_counters() for cache in present]
    return {
        "now_ns": clock.now_ns,
        "devices": {name: dev.stats.snapshot() for name, dev in devices.items()},
        "cache": {key: sum(c.get(key, 0) for c in counters) for key in keys},
    }


def _stack_fingerprint(stack: Stack) -> Dict[str, object]:
    return sim_fingerprint(stack.clock, stack.devices, [stack.mux.cache])


def compare_fingerprints(
    golden: Dict[str, object], observed: Dict[str, object], prefix: str = ""
) -> List[str]:
    """Leaf-level differences between two nested dicts (empty == identical)."""
    diffs: List[str] = []
    for key in sorted(set(golden) | set(observed), key=str):
        g, o = golden.get(key), observed.get(key)
        path = f"{prefix}{key}"
        if isinstance(g, dict) and isinstance(o, dict):
            diffs.extend(compare_fingerprints(g, o, path + "."))
        elif g != o:
            diffs.append(f"{path}: golden={g} got={o}")
    return diffs


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


class _Stopwatch:
    """Host seconds summed over the ``with timed:`` sections of one rep."""

    def __init__(self) -> None:
        self.wall_s = 0.0

    def __enter__(self) -> None:
        self._t0 = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.wall_s += time.perf_counter() - self._t0


@dataclass
class Measured:
    """What a workload body reports; the fingerprint covers the whole run,
    setup included."""

    ops: int
    bytes: int
    sim_elapsed_s: float
    fingerprint: Dict[str, object]
    events: Optional[Dict[str, object]] = None


#: a workload body: ``body(timed, smoke)`` picks its smoke or full sizes,
#: builds fresh stacks (so reps are independent and deterministic), runs
#: only its measured work inside ``with timed:`` and returns a
#: :class:`Measured`
Body = Callable[[_Stopwatch, bool], Measured]


def _bench_stack(path: Optional[str] = None, size: int = 0) -> Stack:
    """Default stack with ``/bench``, plus a ``size``-byte file at ``path``."""
    stack = build_stack()
    stack.mux.mkdir("/bench")
    if path is not None:
        stack.mux.close(make_file(stack.mux, stack.clock, path, size))
    return stack


def _seq_write(timed, smoke: bool) -> Measured:
    total = 8 * MIB if smoke else 48 * MIB
    stack = _bench_stack()
    with timed:
        res = sequential_write(stack.mux, stack.clock, "/bench/seq", total)
    fingerprint = _stack_fingerprint(stack)
    return Measured(total // (4 * MIB), res.bytes_moved, res.elapsed_s, fingerprint)


def _seq_read(timed, smoke: bool) -> Measured:
    size = 8 * MIB if smoke else 64 * MIB
    passes = 1 if smoke else 6
    stack = _bench_stack("/bench/rdfile", size)
    sim0 = stack.clock.now_ns
    moved = 0
    with timed:
        for _ in range(passes):
            res = sequential_read(stack.mux, stack.clock, "/bench/rdfile", size)
            moved += res.bytes_moved
    return Measured(
        passes * (size // (4 * MIB)),
        moved,
        (stack.clock.now_ns - sim0) / 1e9,
        _stack_fingerprint(stack),
    )


def _hot_set_reads(timed, smoke: bool) -> Measured:
    size = 8 * MIB if smoke else 16 * MIB
    iters = 800 if smoke else 4000
    stack = _bench_stack("/bench/hot", size)
    sim0 = stack.clock.now_ns
    with timed:
        res = hot_set_reads(stack.mux, stack.clock, "/bench/hot", size, 2 * MIB, iters)
    return Measured(
        res.operations,
        res.operations * 4096,
        (stack.clock.now_ns - sim0) / 1e9,
        _stack_fingerprint(stack),
    )


def _macro(timed, workload, **size) -> Measured:
    """A Filebench-style macro workload, measured from an empty stack."""
    stack = build_stack()
    with timed:
        res = workload(stack.mux, stack.clock, **size)
    return Measured(res.operations, 0, res.elapsed_s, _stack_fingerprint(stack))


def _fileserver(timed, smoke: bool) -> Measured:
    files, ops = (10, 150) if smoke else (40, 600)
    return _macro(timed, fileserver, files=files, operations=ops)


def _webserver(timed, smoke: bool) -> Measured:
    files, ops = (30, 250) if smoke else (100, 1000)
    return _macro(timed, webserver, files=files, operations=ops)


def _varmail(timed, smoke: bool) -> Measured:
    return _macro(timed, varmail, operations=80 if smoke else 300)


def _metadata_churn(timed, smoke: bool) -> Measured:
    files, ops = (60, 400) if smoke else (200, 12000)
    stack = build_stack()
    # tree construction is setup; the timed section is the steady-state
    # metadata traffic, routed through the VFS like a real application
    live = metadata_tree(stack.vfs, files=files, root="/mux")
    with timed:
        res = metadata_churn(
            stack.vfs, stack.clock, files=files, operations=ops, root="/mux", live=live
        )
    return Measured(res.operations, 0, res.total_ns / 1e9, _stack_fingerprint(stack))


def _migration_churn(timed, smoke: bool) -> Measured:
    files, size, rounds = (2, 1 * MIB, 2) if smoke else (2, 16 * MIB, 6)
    stack = build_stack()
    tier_ids = [stack.tier_id(n) for n in ("pm", "ssd", "hdd") if n in stack.tier_ids]
    with timed:
        res = migration_churn(
            stack.mux, stack.clock, tier_ids, files=files, file_bytes=size, rounds=rounds
        )
    fingerprint = _stack_fingerprint(stack)
    return Measured(files * rounds, res.bytes_moved, res.elapsed_s, fingerprint)


def _fault_storm(timed, smoke: bool) -> Measured:
    files, ops = (8, 150) if smoke else (24, 1200)
    stack = build_stack(
        faults={
            "ssd": FaultConfig(
                read_error_p=0.05,
                write_error_p=0.25,
                transient_fraction=1.0,
                torn_write_p=0.1,
            ),
            "hdd": FaultConfig(latency_spike_p=0.2),
        },
        fault_seed=2025,
    )
    sim0 = stack.clock.now_ns
    with timed:
        events = fault_storm(stack, operations=ops, files=files)
    return Measured(
        ops, 0, (stack.clock.now_ns - sim0) / 1e9, _stack_fingerprint(stack), events
    )


def _cache_writeback(timed, smoke: bool) -> Measured:
    size, ops = (2 * MIB, 400) if smoke else (8 * MIB, 4000)
    stack = build_stack(cache_write_back=True)
    sim0 = stack.clock.now_ns
    with timed:
        counts = cache_writeback(stack, file_bytes=size, operations=ops)
    sim_s = (stack.clock.now_ns - sim0) / 1e9
    return Measured(ops, ops * 4096, sim_s, _stack_fingerprint(stack), counts)


def _parallel_stripe(timed, smoke: bool) -> Measured:
    """Striped cross-tier reads: the parallel engine vs the serial model.

    The same workload runs on two stacks — parallel dispatch (the
    default) and the serial ablation (``IoScheduler(parallel=False)``) —
    and the headline number is the per-read latency ratio.  The
    fingerprint pins the parallel stack plus the serial stack's final
    clock, so drift in *either* dispatch model trips the smoke guard.
    """
    size, reads = (2 * MIB, 2) if smoke else (16 * MIB, 4)
    mean_ns: Dict[str, float] = {}
    stacks: Dict[str, Stack] = {}
    # dispatch-model ablation: saturation knees off, so the measured gap
    # is parallel-vs-serial dispatch alone — a 16 MiB stripe floods the
    # queues far past any calibrated knee, which would penalize both
    # models and confound the comparison with device saturation
    no_knee = {
        "pm": replace(OPTANE_PMEM_200, knee_depth=0, knee_penalty=0.0),
        "ssd": replace(OPTANE_SSD_P4800X, knee_depth=0, knee_penalty=0.0),
    }
    for mode, parallel in (("parallel", True), ("serial", False)):
        stack = stacks[mode] = build_stack(
            tiers=["pm", "ssd"],
            enable_cache=False,
            scheduler=IoScheduler(parallel=parallel),
            profiles=no_knee,
        )
        tier_ids = [stack.tier_id(n) for n in ("pm", "ssd")]
        with timed:
            res = striped_reads(stack, tier_ids, file_bytes=size, reads=reads)
        mean_ns[mode] = res.mean_ns
    fingerprint = _stack_fingerprint(stacks["parallel"])
    fingerprint["serial_now_ns"] = stacks["serial"].clock.now_ns
    speedup = mean_ns["serial"] / mean_ns["parallel"] if mean_ns["parallel"] else 0.0
    return Measured(
        2 * reads,
        2 * reads * size,
        (mean_ns["parallel"] * reads) / 1e9,
        fingerprint,
        {
            "parallel_read_us": round(mean_ns["parallel"] / 1e3, 2),
            "serial_read_us": round(mean_ns["serial"] / 1e3, 2),
            "speedup_x": round(speedup, 2),
        },
    )


def _mt_specs(load_mult: float) -> List[TenantSpec]:
    """Four tenants with distinct personalities, scaled by ``load_mult``.

    ``load_mult`` multiplies every inter-arrival gap, so 1.0 is the
    highest offered load (past depth-1 saturation) and larger values back
    off toward an uncontended system.  The mix covers the interesting
    axes: read-heavy vs mixed, Poisson vs bursty arrivals, and one
    QoS-throttled batch tenant.
    """

    def gap(base_ns: int) -> int:
        return max(1, round(base_ns * load_mult))

    return [
        TenantSpec("alpha", mean_interarrival_ns=gap(2_500), files=6, read_fraction=0.9),
        TenantSpec("bravo", mean_interarrival_ns=gap(4_000), files=4, read_fraction=0.7),
        TenantSpec("burst", mean_interarrival_ns=gap(3_000), arrival="bursty", burst_size=8),
        TenantSpec(
            "batch",
            mean_interarrival_ns=gap(6_000),
            read_fraction=0.5,
            qos_class=IoClass("batch", quota_bytes_per_sec=200 * MIB),
        ),
    ]


def _mt_stack() -> Stack:
    # catalog profiles now carry spec-calibrated saturation knees by
    # default (see devices/profile.py), so no per-workload override is
    # needed: device queueing, not cache luck, sets the tails here
    return build_stack(enable_cache=False, readahead_background=True)


def _tenant_bytes(specs: List[TenantSpec], res) -> int:
    return sum(t.ops * spec.io_bytes for spec, t in zip(specs, res.tenants.values()))


def _tails(res) -> Dict[str, int]:
    """Read and write p50/p99/p999 of a multi-tenant or replay result."""
    return {
        **{f"read_{k}": v for k, v in res.percentiles_ns("read").items()},
        **{f"write_{k}": v for k, v in res.percentiles_ns("write").items()},
    }


def _multi_tenant(timed, smoke: bool) -> Measured:
    """Open-loop multi-tenant tails: async ring vs serialized depth-1.

    The same pre-generated arrival schedule runs twice per load point —
    once through depth-8 submit/complete rings and once through depth-1
    (the serialized baseline) — and the headline number is the aggregate
    read-p99 ratio at the highest offered load.  Because the load is
    open-loop, depth-1 queueing delay counts against its tail instead of
    silently slowing the arrival process.

    The fingerprint pins the async stack at the highest load plus the
    baseline's final clock and the full p50/p99/p999 table for every
    (load, depth) pair, so drift in either dispatch path — or in the tail
    percentiles themselves — trips the smoke guard.
    """
    duration_ns = 300_000 if smoke else 1_000_000
    loads = [1.0] if smoke else [4.0, 2.0, 1.0]
    ops = 0
    bytes_moved = 0
    sim_elapsed_ns = 0
    tails: Dict[str, object] = {}
    table: Dict[str, object] = {}
    for load in loads:
        specs = _mt_specs(load)
        point: Dict[str, Dict[str, int]] = {}
        stacks: Dict[str, Stack] = {}
        for label, depth in (("async", 8), ("depth1", 1)):
            stack = stacks[label] = _mt_stack()
            sim0 = stack.clock.now_ns
            with timed:
                res = run_multi_tenant(
                    stack, specs, duration_ns=duration_ns, ring_depth=depth
                )
            ops += res.completed_ops
            bytes_moved += _tenant_bytes(specs, res)
            point[label] = _tails(res)
            if depth == 8:
                sim_elapsed_ns += stack.clock.now_ns - sim0
        key = f"load_{load:g}x"
        tails[key] = point
        table[key] = {
            "async_read_p99_us": round(point["async"]["read_p99"] / 1e3, 2),
            "depth1_read_p99_us": round(point["depth1"]["read_p99"] / 1e3, 2),
        }
    # the highest load (the last point) is the one pinned and headlined
    fingerprint = _stack_fingerprint(stacks["async"])
    fingerprint["depth1_now_ns"] = stacks["depth1"].clock.now_ns
    fingerprint["tails"] = tails
    async_p99 = point["async"]["read_p99"]
    ratio = point["depth1"]["read_p99"] / async_p99 if async_p99 else 0.0
    return Measured(
        ops,
        bytes_moved,
        sim_elapsed_ns / 1e9,
        fingerprint,
        {"p99_ratio_x": round(ratio, 1), "sweep": table},
    )


# -- policy duels ------------------------------------------------------------

#: the three registered policies the pressure duels compare: the paper's
#: size-threshold default, the hotness-driven migrator, and the
#: queue/health-fed pressure-aware policy this benchmark exists to judge
_DUEL_POLICIES = ("tpfs", "hotcold", "pressure")

#: the mirror duel adds the MOST policy to the exclusive-placement field
_MIRROR_DUEL_POLICIES = ("tpfs", "pressure", "mirror")


def _duel_stack(policy: str) -> Stack:
    """Identical stacks differing only in policy, tuned so bursts hurt.

    The SSD's volatile write buffer is shrunk from the spec's 32 MiB to
    256 KiB: with the stock buffer a whole fsynced burst is absorbed at
    cache speed and *no* placement policy can distinguish itself.  The
    SCM cache is off for the same reason — the duel measures placement
    under device pressure, not cache hit luck.  Catalog saturation knees
    (on by default) do the rest.
    """
    return build_stack(
        policy=policy,
        enable_cache=False,
        profiles={"ssd": replace(OPTANE_SSD_P4800X, write_buffer_bytes=256 * KIB)},
        readahead_background=True,
        pressure_interval_ns=10_000,
    )


def _policy_duel(
    policies: Iterable[str],
    make_stack: Callable[[str], Stack],
    run: Callable[[Stack], Tuple[int, int, Dict[str, object]]],
) -> Tuple[Dict[str, Dict[str, object]], Measured]:
    """Run ``run(stack)`` on one fresh ``make_stack(policy)`` per policy.

    The stacks differ only in policy and see the same offered load, so
    the policy is the only treatment.  ``run`` returns ``(ops, bytes,
    record)``; each policy's record, plus its final clock, is pinned in
    the fingerprint.  The last policy is the one under test: its stack's
    devices are pinned too, and its simulated time is reported.
    """
    records: Dict[str, Dict[str, object]] = {}
    ops = bytes_moved = 0
    for name in policies:
        stack = make_stack(name)
        sim0 = stack.clock.now_ns
        done, moved, record = run(stack)
        ops += done
        bytes_moved += moved
        records[name] = {"now_ns": stack.clock.now_ns, **record}
    fingerprint = _stack_fingerprint(stack)
    fingerprint["policies"] = records
    sim_s = (stack.clock.now_ns - sim0) / 1e9
    return records, Measured(ops, bytes_moved, sim_s, fingerprint)


def _tail_row(record: Dict[str, object], *keys: str) -> Dict[str, object]:
    """A policy's events row: read p99/p999 in µs plus ``keys`` verbatim."""
    return {
        "read_p99_us": round(record["read_p99"] / 1e3, 1),
        "read_p999_us": round(record["read_p999"] / 1e3, 1),
        **{key: record[key] for key in keys},
    }


def _replay_record(res) -> Dict[str, object]:
    return {
        **_tails(res),
        "submitted": res.offered_ops,
        "errors": res.errors,
        "migrations": res.migrations_submitted,
    }


def _trace_replay(timed, smoke: bool) -> Measured:
    """Canonical bursty trace replayed head-to-head across policies.

    The checked-in ``benchmarks/traces/bursty.muxtrace`` (a zipf read
    floor with 4 MiB fsynced write bursts) is replayed open-loop against
    one stack per registered policy; the headline is each policy's read
    tail on identical offered load.  The fingerprint pins the
    pressure-aware stack's devices plus every policy's full latency
    table, so drift in any policy's placement trips the smoke guard.
    """
    trace = load_canonical("bursty").truncated(0.2 if smoke else 1.0)
    trace_bytes = sum(op.length for op in trace.ops)

    def run(stack: Stack):
        with timed:
            res = replay_trace(
                stack, trace, ring_depth=32, maintain_every=256, population_tier="ssd"
            )
        return res.offered_ops, trace_bytes, _replay_record(res)

    records, measured = _policy_duel(_DUEL_POLICIES, _duel_stack, run)
    measured.events = {
        "trace": "bursty",
        "op_mix": trace.op_mix(),
        "policies": {name: _tail_row(r, "migrations") for name, r in records.items()},
    }
    return measured


def _duel_specs() -> List[TenantSpec]:
    """Two read-floor tenants sharing channels with one bursty logger.

    The logger fsyncs each burst (the database/logger durability
    pattern), so ~4 MiB of writes land on the SSD's channels every ~4 ms
    — exactly the pressure shape the trace duel uses, but arriving
    through independent per-tenant rings so per-tenant fairness is
    measurable against each tenant's isolated counterfactual.
    """
    readers = [
        TenantSpec(
            name,
            mean_interarrival_ns=30_000,
            files=20,
            file_bytes=2 * MIB,
            io_bytes=16 * KIB,
            read_fraction=1.0,
            zipf_alpha=1.0,
        )
        for name in ("web", "api")
    ]
    return readers + [
        TenantSpec(
            "log",
            mean_interarrival_ns=125_000,
            files=8,
            file_bytes=2 * MIB,
            io_bytes=128 * KIB,
            read_fraction=0.0,
            arrival="bursty",
            burst_size=32,
            zipf_alpha=1.0,
            fsync_bursts=True,
        ),
    ]


def _tenant_policy_duel(timed, smoke: bool) -> Measured:
    """Multi-tenant policy duel plus per-tenant fairness slowdowns.

    The same open-loop three-tenant schedule runs against one stack per
    policy (placement maintained mid-run via ``maintain_every``), and the
    pressure-aware policy is additionally scored on fairness: each
    tenant's shared-run read tail over its isolated-run tail, the classic
    slowdown metric — the spread shows who pays for the logger's bursts.
    """
    duration_ns = 12_000_000 if smoke else 60_000_000
    specs = _duel_specs()

    def run(stack: Stack):
        with timed:
            res = run_multi_tenant(
                stack,
                specs,
                duration_ns=duration_ns,
                ring_depth=32,
                population_tier="ssd",
                maintain_every=256,
                durable_population=True,
            )
        record = {**_tails(res), "migrations": res.migrations_submitted}
        return res.completed_ops, _tenant_bytes(specs, res), record

    records, measured = _policy_duel(_DUEL_POLICIES, _duel_stack, run)
    # fairness for the winner: shared tail over isolated counterfactual
    with timed:
        _, fairness = fairness_slowdowns(
            lambda: _duel_stack("pressure"),
            specs,
            duration_ns=duration_ns,
            ring_depth=32,
            population_tier="ssd",
            maintain_every=256,
            durable_population=True,
        )
    measured.fingerprint["fairness"] = fairness
    measured.events = {
        "policies": {name: _tail_row(r, "migrations") for name, r in records.items()},
        "fairness_slowdown_x": {
            name: round(slowdown_x(entry), 2)
            for name, entry in fairness.items()
            if entry["isolated_p99_ns"]
        },
    }
    return measured


def _mirror_skew(timed, smoke: bool) -> Measured:
    """Mirror-optimized tiering vs exclusive placement on skewed reads.

    A zipf read stream hammers a working set that starts *cold on the
    HDD* (too large for exclusive promotion to rescue outright: the
    pressure policy stops promoting at ``promote_util`` of PM).  The
    ``mirror`` policy instead grants hot read-mostly files replicas on
    PM — authority stays downhill, reads route uphill — so its measured
    steady-state read tail collapses to fast-tier latency while the
    exclusive baseline keeps paying the HDD for whatever it could not
    promote.  The headline is the read-p99 ratio (baseline over
    mirrored); the fingerprint pins both stacks.
    """
    files, file_bytes, io_bytes = 56, 1 * MIB, 16 * KIB
    warm_reads, measured_reads = (2500, 1000) if smoke else (5000, 2500)
    maintain_every = 100

    def make_stack(policy: str) -> Stack:
        # two tiers, and an HDD small enough that its page cache (10%
        # of the device) cannot swallow whatever the policy leaves
        # behind: placement, not DRAM, decides the read tail
        return build_stack(
            tiers=["pm", "hdd"],
            capacities={"hdd": 128 * MIB},
            policy=policy,
            enable_cache=False,
        )

    def run(stack: Stack):
        mux = stack.mux
        mux.mkdir("/skew")
        paths = [f"/skew/f{i}" for i in range(files)]
        handles = populate(stack, paths, file_bytes, "hdd", True)
        # the population leaves every block clean in the HDD file
        # system's page cache (it is 10% of the device — the whole
        # working set fits); drop it so the measured stream starts
        # against cold media, the tiered-storage shape under test
        drop_clean_page_caches(stack)
        rng = DeterministicRng(11).fork("mirror-skew")
        # mild skew across files (every file stays warm enough to earn
        # placement), sharper skew within each file's blocks
        file_cdf = _zipf_cdf(files, 0.5)
        block_cdf = _zipf_cdf(file_bytes // io_bytes, 1.1)
        hist = LatencyHistogram()
        with timed:
            for index in range(warm_reads + measured_reads):
                maintenance_tick(mux, index, maintain_every)
                fid = _zipf_pick(rng, file_cdf)
                offset = _zipf_pick(rng, block_cdf) * io_bytes
                if index == warm_reads:
                    settle(mux)  # between the warm and measured phases
                s0 = stack.clock.now_ns
                mux.read(handles[fid], offset, io_bytes)
                if index >= warm_reads:
                    hist.record(stack.clock.now_ns - s0)
        for handle in handles:
            mux.close(handle)
        reads = warm_reads + measured_reads
        record = {
            **{f"read_{k}": v for k, v in hist.percentiles_ns(0.5, 0.99, 0.999).items()},
            "reads_from_mirror": mux.stats.get("reads_from_mirror"),
            "blocks_synced": mux.mirrors.stats.get("blocks_synced"),
            "deadline_promotions": mux.mirrors.stats.get("deadline_promotions"),
        }
        return reads, reads * io_bytes, record

    records, measured = _policy_duel(("pressure", "mirror"), make_stack, run)
    mirrored_p99 = records["mirror"]["read_p99"]
    ratio = records["pressure"]["read_p99"] / mirrored_p99 if mirrored_p99 else 0.0
    measured.events = {
        "population": "hdd-cold",
        "policies": {
            name: {
                "read_p50_us": round(rec["read_p50"] / 1e3, 1),
                "read_p99_us": round(rec["read_p99"] / 1e3, 1),
                "reads_from_mirror": rec["reads_from_mirror"],
                "mirror_blocks_synced": rec["blocks_synced"],
            }
            for name, rec in records.items()
        },
        "read_p99_ratio_x": round(ratio, 1),
    }
    return measured


def _mirror_trace_duel(timed, smoke: bool) -> Measured:
    """Canonical read-heavy zipf trace: mirrored vs exclusive placement.

    The same open-loop replay as ``trace_replay``, but on the canonical
    ``zipf`` trace (80% reads) with the population pinned *cold on the
    HDD* — the tiered-storage shape MOST targets: the authoritative
    copies live downhill, and only placement policy decides how fast the
    read tail gets rescued.  One untimed warm pass lets every policy
    converge on its steady-state placement, then the page caches drop
    (so durable placement, not leftover DRAM, serves the window) and the
    timed replay measures serving.  Exclusive promotion of the hot files
    keeps OCC-aborting against the trace's own writes; mirrors absorb
    those writes on the replica and converge in the background, so the
    mirrored stack alone gets the hot set uphill.  The events table
    shows each policy's read p99/p999 plus the mirrored stack's
    improvement over the best exclusive policy; the fingerprint pins the
    mirrored stack's devices and every policy's full latency table.
    """
    trace = load_canonical("zipf").truncated(0.2 if smoke else 1.0)
    trace_bytes = sum(op.length for op in trace.ops)

    def run(stack: Stack):
        with timed:
            res = replay_trace(
                stack,
                trace,
                ring_depth=32,
                maintain_every=64,
                population_tier="hdd",
                warm_passes=1,
                drop_page_caches=True,
            )
        record = {
            **_replay_record(res),
            "reads_from_mirror": stack.mux.stats.get("reads_from_mirror"),
            "blocks_synced": stack.mux.mirrors.stats.get("blocks_synced"),
        }
        return res.offered_ops, trace_bytes, record

    records, measured = _policy_duel(_MIRROR_DUEL_POLICIES, _duel_stack, run)

    def vs_exclusive(key: str) -> float:
        mirrored = records["mirror"][key]
        best_exclusive = min(records[n][key] for n in ("tpfs", "pressure"))
        return round(best_exclusive / mirrored, 1) if mirrored else 0.0

    measured.events = {
        "trace": "zipf",
        "population": "hdd-cold",
        "policies": {
            name: _tail_row(rec, "migrations", "reads_from_mirror")
            for name, rec in records.items()
        },
        "read_p99_vs_exclusive_x": vs_exclusive("read_p99"),
        "read_p999_vs_exclusive_x": vs_exclusive("read_p999"),
    }
    return measured


# -- other substrates ----------------------------------------------------------


def _strata_fileserver(timed, smoke: bool) -> Measured:
    files, ops = (8, 100) if smoke else (20, 300)
    strata = build_strata()
    with timed:
        res = fileserver(strata.fs, strata.clock, files=files, operations=ops)
    fingerprint = sim_fingerprint(strata.clock, strata.devices, [])
    return Measured(res.operations, 0, res.elapsed_s, fingerprint)


def _crash_matrix(timed, smoke: bool) -> Measured:
    """Crash-state explorer as a drift guard: the census point count, the
    per-label histogram and the summed post-recovery clocks must all be
    bit-stable, and every explored state must still recover cleanly."""
    from repro.tools.crashexplore import explore

    with timed:
        report = explore(smoke=smoke)
    return Measured(
        report["states_explored"],
        0,
        report["clock_sum_ns"] / 1e9,
        {
            "now_ns": report["clock_sum_ns"],
            "devices": {},
            "cache": {},
            "sync_points": report["sync_points"],
            "by_label": report["by_label"],
            "states": report["states_explored"],
            "failures": len(report["failures"]),
            "lost_intervals": report["lost_intervals_reported"],
        },
    )


def _cluster_specs(names: List[str]) -> List[TenantSpec]:
    """Durability-bound tenants: the shape that makes one Mux the
    bottleneck and therefore makes sharding pay.  Every write burst
    fsyncs (the database/logger pattern), so its cost is an HDD journal
    commit no page cache can absorb; reads interleave on the same
    channels and inherit the queueing delay."""
    return [
        TenantSpec(
            name=name,
            mean_interarrival_ns=25_000,
            files=4,
            file_bytes=128 * KIB,
            io_bytes=4 * KIB,
            read_fraction=0.5,
            zipf_alpha=1.1,
            fsync_bursts=True,
        )
        for name in names
    ]


def _cluster_scaleout(timed, smoke: bool) -> Measured:
    """Sharded ClusterMux scaling + hotspot-rebalance recovery.

    Phase 1 replays one open-loop HDD-bound schedule (cache off,
    population pinned to the hdd tier) against 1-, 2- and 4-shard
    clusters on one SimClock; aggregate throughput is completed ops over
    simulated makespan, so the scaling ratio measures how well the
    shards' device timelines actually overlap.  Phase 2 deliberately
    hashes every tenant subtree onto one shard of a 4-shard cluster,
    measures the hot read p99, lets the pressure-gauge rebalancer shed
    subtrees (OCC migration over the wire), and replays the same
    schedule — the recovered p99 is the rebalance payoff.  The
    fingerprint pins every phase's devices, makespans and tails.
    """
    from repro.cluster.bench import (
        balanced_tenant_names,
        colocated_tenant_names,
        run_cluster_load,
    )
    from repro.cluster.cluster import build_cluster

    duration_ns = 300_000 if smoke else 800_000
    tenant_count = 8 if smoke else 12
    shard_counts = [1, 4] if smoke else [1, 2, 4]

    def make_cluster(n: int):
        # single-tier HDD shards: with PM in the stack the mux's
        # two-phase writes re-place every hot span onto PM and the disk
        # goes idle — the right behaviour for tiering, the wrong rig for
        # measuring scale-out.  One seek-bound tier per shard makes the
        # shard itself the bottleneck, which is what sharding must fix.
        return build_cluster(shards=n, tiers=["hdd"], enable_cache=False)

    ops = 0
    bytes_moved = 0
    sim_elapsed_ns = 0
    table: Dict[str, object] = {}
    scaling_fp: Dict[str, object] = {}
    throughput: Dict[int, float] = {}

    # names that spread evenly over the *largest* cluster's ring (all
    # cluster sizes replay the same tenants, so offered load is constant)
    probe_ring = make_cluster(shard_counts[-1]).mux.ring
    names = balanced_tenant_names(probe_ring, "tenants", tenant_count)
    specs = _cluster_specs(names)
    for n in shard_counts:
        cluster = make_cluster(n).mux
        hdd = cluster.shards[0].stack.tier_ids["hdd"]
        sim0 = cluster.clock.now_ns
        with timed:
            res, makespan_ns = run_cluster_load(
                cluster, specs, duration_ns=duration_ns, ring_depth=8,
                population_tier=hdd,
            )
        ops += res.completed_ops
        bytes_moved += _tenant_bytes(specs, res)
        throughput[n] = res.completed_ops * 1e9 / makespan_ns
        reads = res.percentiles_ns("read")
        table[f"shards_{n}"] = {
            "kops_per_sim_s": round(throughput[n] / 1e3, 1),
            "read_p99_us": round(reads["p99"] / 1e3, 1),
        }
        scaling_fp[f"shards_{n}"] = {
            "makespan_ns": makespan_ns,
            "completed": res.completed_ops,
            **{f"read_{k}": v for k, v in reads.items()},
        }
    # the largest cluster is the one pinned, its devices by shard
    sim_elapsed_ns += cluster.clock.now_ns - sim0
    fingerprint = sim_fingerprint(
        cluster.clock,
        {
            f"s{shard.shard_id}.{name}": dev
            for shard in cluster.shards
            for name, dev in shard.stack.devices.items()
        },
        [shard.mux.cache for shard in cluster.shards],
    )
    scaling_x = throughput[shard_counts[-1]] / throughput[1]

    # -- phase 2: hotspot + rebalance -----------------------------------
    cluster = make_cluster(4).mux
    hdd = cluster.shards[0].stack.tier_ids["hdd"]
    hot_names, hot_shard = colocated_tenant_names(
        cluster.ring, "tenants", tenant_count
    )
    hot_specs = _cluster_specs(hot_names)
    sim0 = cluster.clock.now_ns
    with timed:
        hot_res, hot_span = run_cluster_load(
            cluster, hot_specs, duration_ns=duration_ns, ring_depth=8,
            population_tier=hdd,
        )
        moved = cluster.rebalance(max_moves=tenant_count - 2)
        cold_res, cold_span = run_cluster_load(
            cluster, hot_specs, duration_ns=duration_ns, ring_depth=8,
            population_tier=hdd,
        )
    sim_elapsed_ns += cluster.clock.now_ns - sim0
    ops += hot_res.completed_ops + cold_res.completed_ops
    hot_p99 = hot_res.percentiles_ns("read")["p99"]
    cold_p99 = cold_res.percentiles_ns("read")["p99"]
    fingerprint["scaling"] = scaling_fp
    fingerprint["hotspot"] = {
        "hot_shard": hot_shard,
        "hot_makespan_ns": hot_span,
        "hot_read_p99": hot_p99,
        "rebalanced_makespan_ns": cold_span,
        "rebalanced_read_p99": cold_p99,
        "subtrees_moved": moved["moves"],
        "files_moved": moved["files_moved"],
        "bytes_moved": moved["bytes_moved"],
        "final_now_ns": cluster.clock.now_ns,
    }
    return Measured(
        ops,
        bytes_moved + moved["bytes_moved"],
        sim_elapsed_ns / 1e9,
        fingerprint,
        {
            "scaling_x": round(scaling_x, 2),
            "sweep": table,
            "hot_read_p99_us": round(hot_p99 / 1e3, 1),
            "rebalanced_read_p99_us": round(cold_p99 / 1e3, 1),
            "p99_recovery_x": round(hot_p99 / cold_p99, 2) if cold_p99 else 0.0,
            "subtrees_moved": moved["moves"],
        },
    )


#: every workload, in run order; wallclock and profile both read this
WORKLOADS: Dict[str, Body] = {
    "seq_write": _seq_write,
    "seq_read": _seq_read,
    "hot_set_reads": _hot_set_reads,
    "fileserver": _fileserver,
    "webserver": _webserver,
    "varmail": _varmail,
    "metadata_churn": _metadata_churn,
    "migration_churn": _migration_churn,
    "fault_storm": _fault_storm,
    "cache_writeback": _cache_writeback,
    "parallel_stripe": _parallel_stripe,
    "multi_tenant": _multi_tenant,
    "trace_replay": _trace_replay,
    "tenant_policy_duel": _tenant_policy_duel,
    "strata_fileserver": _strata_fileserver,
    "crash_matrix": _crash_matrix,
    "mirror_skew": _mirror_skew,
    "mirror_trace_duel": _mirror_trace_duel,
    "cluster_scaleout": _cluster_scaleout,
}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def run_workload(name: str, smoke: bool) -> Dict[str, object]:
    """One rep of workload ``name``: host seconds of its measured sections,
    its ops/bytes/simulated seconds, events (if any) and fingerprint."""
    timed = _Stopwatch()
    fields = vars(WORKLOADS[name](timed, smoke))
    # workloads without events report none
    return {"wall_s": timed.wall_s, **{k: v for k, v in fields.items() if v is not None}}


def run_workloads(smoke: bool, reps: Optional[int] = None) -> Dict[str, Dict[str, object]]:
    """Run every workload ``reps`` times; return name -> best-rep result.

    Raises ``RuntimeError`` if any repetition of a workload produces a
    different simulated fingerprint (the stack lost determinism).
    """
    reps = reps if reps is not None else (SMOKE_REPS if smoke else FULL_REPS)
    out: Dict[str, Dict[str, object]] = {}
    for name in WORKLOADS:
        best = run_workload(name, smoke)
        for rep in range(1, reps):
            result = run_workload(name, smoke)
            if result["fingerprint"] != best["fingerprint"]:
                raise RuntimeError(
                    f"workload {name!r} rep {rep} produced a different simulated "
                    f"fingerprint — the stack is not deterministic"
                )
            if result["wall_s"] < best["wall_s"]:
                best = result
        ops = best["ops"]
        best["ops_per_host_s"] = (
            round(ops / best["wall_s"], 1) if best["wall_s"] > 0 and ops else 0.0
        )
        best["wall_s"] = round(best["wall_s"], 4)
        out[name] = best
    return out


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _run_full(out_path: str, before_path: Optional[str]) -> int:
    print("wallclock: full run (this takes a few minutes)...")
    full = run_workloads(smoke=False)
    smoke = run_workloads(smoke=True, reps=1)

    before: Dict[str, Dict[str, object]] = {}
    if before_path:
        with open(before_path) as f:
            prior = json.load(f)
        # accept either a raw run_workloads dump or a full BENCH file
        source = prior.get("workloads", prior)
        for name, entry in source.items():
            before[name] = entry.get("after", entry)

    doc: Dict[str, object] = {
        "bench": "wallclock",
        "units": {
            "wall_s": "host seconds (time.perf_counter, best of "
            f"{FULL_REPS} reps)",
            "sim_elapsed_s": "simulated seconds (machine-independent)",
            "ops_per_host_s": "workload ops per host second",
        },
        "workloads": {},
        "golden_sim": {},
        "golden_sim_smoke": {},
    }
    for name, result in full.items():
        entry: Dict[str, object] = {
            "after": {
                k: v for k, v in result.items() if k != "fingerprint"
            }
        }
        if name in before:
            b = dict(before[name])
            b.pop("fingerprint", None)
            entry["before"] = b
            bw, aw = b.get("wall_s"), result["wall_s"]
            if isinstance(bw, (int, float)) and isinstance(aw, (int, float)) and aw > 0:
                entry["speedup"] = round(bw / aw, 2)
        doc["workloads"][name] = entry
        doc["golden_sim"][name] = result["fingerprint"]
    for name, result in smoke.items():
        doc["golden_sim_smoke"][name] = result["fingerprint"]

    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wallclock: wrote {out_path}")
    for name, entry in doc["workloads"].items():
        after = entry["after"]
        line = f"  {name:18s} wall={after['wall_s']:8.3f}s"
        if "speedup" in entry:
            line += f"  speedup={entry['speedup']:.2f}x"
        print(line)
    return 0


def _run_smoke(out_path: str) -> int:
    try:
        with open(out_path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        print(f"wallclock --smoke: no {out_path}; run the full bench first")
        return 2
    golden = doc.get("golden_sim_smoke", {})
    if not golden:
        print(f"wallclock --smoke: {out_path} has no golden_sim_smoke section")
        return 2
    t0 = time.perf_counter()
    observed = run_workloads(smoke=True)
    failures = 0
    for name, result in observed.items():
        if name not in golden:
            failures += 1
            print(f"  {name}: FAIL (no golden recorded)")
            continue
        diffs = compare_fingerprints(golden[name], result["fingerprint"])
        if diffs:
            failures += 1
            print(f"  {name}: SIMULATED-TIME DRIFT")
            for d in diffs:
                print(f"    {d}")
        else:
            print(f"  {name}: ok (wall={result['wall_s']:.3f}s)")
    for name in sorted(set(golden) - set(observed)):
        failures += 1
        print(f"  {name}: FAIL (golden recorded for an unregistered workload)")
    total = time.perf_counter() - t0
    print(f"wallclock --smoke: {len(observed)} workloads in {total:.1f}s host time")
    if failures:
        print(f"wallclock --smoke: {failures} workload(s) failed the golden check")
        return 1
    print("wallclock --smoke: simulated time matches golden values")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench wallclock", add_help=False
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--before")
    args = parser.parse_args(argv)
    if args.smoke:
        return _run_smoke(args.out)
    return _run_full(args.out, args.before)


if __name__ == "__main__":
    raise SystemExit(main())
