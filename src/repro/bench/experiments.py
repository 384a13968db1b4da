"""The paper's experiments (§3), its ablations and the macro comparison.

``EXPERIMENTS`` is the one registry: name -> ``body(smoke) -> Report``.
Each body builds fresh systems, runs its workload at a capacity-scaled
size (smaller where ``smoke`` matters) and returns the paper-vs-measured
rows together with the named shape checks the paper's claims imply.
``python -m repro.bench`` prints the reports; ``tests/test_paper_experiments.py``
runs every entry at smoke size and requires every check to hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.bench import workloads
from repro.bench.harness import (
    MIB,
    ResultRow,
    VfsView,
    build_pinned_mux,
    build_strata,
    format_rows,
)
from repro.bench.macro import ALL_WORKLOADS, MacroResult
from repro.core import calibration as cal
from repro.core.blt import ByteArrayBlt, ExtentBlt
from repro.core.policies import PinnedPolicy
from repro.core.policy import MigrationOrder
from repro.core.scheduler import IoScheduler
from repro.devices.hdd import HardDiskDrive
from repro.devices.pm import PersistentMemoryDevice
from repro.errors import MigrationUnsupported
from repro.fs.ext4 import Ext4FileSystem
from repro.fs.nova import NovaFileSystem
from repro.fscommon.pagecache import PageCache
from repro.sim.clock import SimClock
from repro.sim.rng import DeterministicRng
from repro.stack import build_stack

TIERS = ("pm", "ssd", "hdd")

#: §3.1/Fig. 3 numbers the paper reports
PAPER_MIGRATION_SPEEDUP_PM_SSD = 2.59
PAPER_IO_SPEEDUP = {"pm": 1.08, "ssd": 1.46, "hdd": 1.07}
#: §3.2 overheads (percent)
PAPER_READ_OVERHEAD = {"pm": 52.4, "ssd": 87.3, "hdd": 6.6}
PAPER_WRITE_OVERHEAD = {"pm": 1.6, "ssd": 2.2, "hdd": 3.5}


@dataclass
class Report:
    """One experiment's paper-vs-measured rows and its named shape checks."""

    title: str
    rows: List[ResultRow]
    #: (claim, holds) pairs; each claim states its threshold
    checks: List[Tuple[str, bool]]

    @property
    def failed(self) -> List[str]:
        return [claim for claim, holds in self.checks if not holds]

    def text(self) -> str:
        lines = [format_rows(self.rows, self.title)]
        for claim, holds in self.checks:
            lines.append(f"{'ok' if holds else 'FAIL'}: {claim}")
        return "\n".join(lines)


# ===========================================================================
# Figure 3a — migration matrix (extensibility + throughput)
# ===========================================================================


@dataclass
class Fig3aResult:
    #: (src, dst) -> MB/s; missing pair = N/S (unsupported)
    mux: Dict[Tuple[str, str], float] = field(default_factory=dict)
    strata: Dict[Tuple[str, str], float] = field(default_factory=dict)

    @property
    def mux_supported_pairs(self) -> int:
        return len(self.mux)

    @property
    def strata_supported_pairs(self) -> int:
        return len(self.strata)

    def speedup_pm_ssd(self) -> Optional[float]:
        mux = self.mux.get(("pm", "ssd"))
        strata = self.strata.get(("pm", "ssd"))
        if not mux or not strata:
            return None
        return mux / strata

    def rows(self) -> List[ResultRow]:
        rows = []
        for src in TIERS:
            for dst in TIERS:
                if src == dst:
                    continue
                mux = self.mux.get((src, dst))
                strata = self.strata.get((src, dst))
                rows.append(
                    ResultRow(
                        "Fig3a",
                        f"{src}->{dst}",
                        "migration MB/s (Strata / Mux)",
                        "supported only for pm->ssd, pm->hdd",
                        f"{_fmt(strata)} / {_fmt(mux)}",
                    )
                )
        speedup = self.speedup_pm_ssd()
        rows.append(
            ResultRow(
                "Fig3a",
                "pm->ssd",
                "Mux/Strata migration speedup",
                f"{PAPER_MIGRATION_SPEEDUP_PM_SSD:.2f}x",
                f"{speedup:.2f}x" if speedup else "n/a",
            )
        )
        return rows


def _fmt(value: Optional[float]) -> str:
    return f"{value:.0f}" if value is not None else "N/S"


def experiment_fig3a(file_mib: int = 16) -> Fig3aResult:
    """Measure migration throughput for every device pair, both systems."""
    result = Fig3aResult()
    size = file_mib * MIB

    for src in TIERS:
        for dst in TIERS:
            if src == dst:
                continue
            # ---- Mux: any pair works through the VFS ----------------------
            stack = build_pinned_mux(src, enable_cache=False)
            mux = stack.mux
            handle = workloads.make_file(mux, stack.clock, "/mig.bin", size)
            inode = mux.ns.get(handle.ino)
            end = inode.blt.end_block()
            mux.engine.migrate_now(
                MigrationOrder(
                    handle.ino,
                    0,
                    end,
                    stack.tier_id(src),
                    stack.tier_id(dst),
                    reason="fig3a",
                )
            )
            pair = (stack.tier_id(src), stack.tier_id(dst))
            result.mux[(src, dst)] = mux.engine.pair_stats[pair].throughput_mb_s()
            mux.close(handle)

            # ---- Strata: static routing -----------------------------------
            strata_stack = build_strata(pin_target=src)
            strata = strata_stack.fs
            s_handle = workloads.make_file(strata, strata_stack.clock, "/mig.bin", size)
            strata.digest()  # push everything out of the log to `src`
            blocks = size // strata.block_size
            try:
                strata.migrate_blocks("/mig.bin", 0, blocks, src, dst)
            except MigrationUnsupported:
                pass  # N/S cell
            else:
                result.strata[(src, dst)] = strata.pair_stats[
                    (src, dst)
                ].throughput_mb_s()
            strata.close(s_handle)
    return result


# ===========================================================================
# Figure 3b — per-device I/O throughput, Strata vs Mux
# ===========================================================================


@dataclass
class Fig3bResult:
    mux_mb_s: Dict[str, float] = field(default_factory=dict)
    strata_mb_s: Dict[str, float] = field(default_factory=dict)

    def speedup(self, tier: str) -> float:
        return self.mux_mb_s[tier] / self.strata_mb_s[tier]

    def rows(self) -> List[ResultRow]:
        rows = []
        for tier in TIERS:
            rows.append(
                ResultRow(
                    "Fig3b",
                    tier,
                    "Mux/Strata write throughput",
                    f"{PAPER_IO_SPEEDUP[tier]:.2f}x",
                    f"{self.speedup(tier):.2f}x "
                    f"({self.strata_mb_s[tier]:.0f} -> {self.mux_mb_s[tier]:.0f} MB/s)",
                )
            )
        return rows


def experiment_fig3b(
    total_mib: int = 24, span_mib: int = 40, io_kib: int = 16
) -> Fig3bResult:
    """Random writes always directed to one target device (both systems)."""
    result = Fig3bResult()
    for tier in TIERS:
        # ---- Mux ----------------------------------------------------------
        stack = build_pinned_mux(tier, enable_cache=False)
        res = workloads.random_write(
            stack.mux,
            stack.clock,
            "/io.bin",
            file_size=span_mib * MIB,
            total_bytes=total_mib * MIB,
            io_size=io_kib * 1024,
            fsync_every=0,  # the paper's microbenchmark measures streaming I/O
        )
        result.mux_mb_s[tier] = res.mb_per_s

        # ---- Strata ---------------------------------------------------------
        strata_stack = build_strata(pin_target=tier)
        strata = strata_stack.fs
        clock = strata_stack.clock
        start_ns = clock.now_ns
        res = workloads.random_write(
            strata,
            clock,
            "/io.bin",
            file_size=span_mib * MIB,
            total_bytes=total_mib * MIB,
            io_size=io_kib * 1024,
            fsync_every=0,
        )
        if tier != "pm":
            # data bound for SSD/HDD is not on its device until digested;
            # PM-bound data already lives on PM (the log *is* PM storage)
            strata.digest()
        elapsed = (clock.now_ns - start_ns) / 1e9
        result.strata_mb_s[tier] = (total_mib * MIB / 1e6) / elapsed
    return result


# ===========================================================================
# §3.2 — read latency overhead (Mux vs native, no tiering)
# ===========================================================================

#: file + device sizes per tier for the overhead experiments
OVERHEAD_SIZES = {
    "pm": {"caps": {"pm": 256 * MIB}, "file": 96 * MIB},
    "ssd": {"caps": {"ssd": 256 * MIB}, "file": 128 * MIB},
    "hdd": {"caps": {"hdd": 1024 * MIB}, "file": 256 * MIB},
}


@dataclass
class ReadOverheadResult:
    native_us: Dict[str, float] = field(default_factory=dict)
    mux_us: Dict[str, float] = field(default_factory=dict)

    def overhead_pct(self, tier: str) -> float:
        return 100.0 * (self.mux_us[tier] / self.native_us[tier] - 1.0)

    def rows(self) -> List[ResultRow]:
        return [
            ResultRow(
                "§3.2-read",
                tier,
                "1-byte random read latency overhead",
                f"+{PAPER_READ_OVERHEAD[tier]:.1f}%",
                f"+{self.overhead_pct(tier):.1f}% "
                f"({self.native_us[tier]:.2f} -> {self.mux_us[tier]:.2f} us)",
            )
            for tier in TIERS
        ]


def experiment_read_overhead(iterations: int = 1200) -> ReadOverheadResult:
    """Worst-case read path: one random byte from a large file."""
    result = ReadOverheadResult()
    for tier in TIERS:
        sizes = OVERHEAD_SIZES[tier]

        # ---- native file system through the VFS ----------------------------
        native_stack = build_stack(tiers=[tier], capacities=sizes["caps"])
        native = VfsView(native_stack.vfs, f"/tiers/{tier}")
        handle = workloads.make_file(
            native, native_stack.clock, "/big.bin", sizes["file"]
        )
        native.close(handle)
        res = workloads.random_read_single_byte(
            native, native_stack.clock, "/big.bin", sizes["file"], iterations
        )
        result.native_us[tier] = res.mean_us

        # ---- Mux over the same single file system ----------------------------
        mux_stack = build_pinned_mux(tier, tiers=[tier], capacities=sizes["caps"])
        mux = VfsView(mux_stack.vfs, "/mux")
        handle = workloads.make_file(mux, mux_stack.clock, "/big.bin", sizes["file"])
        mux.close(handle)
        res = workloads.random_read_single_byte(
            mux, mux_stack.clock, "/big.bin", sizes["file"], iterations
        )
        result.mux_us[tier] = res.mean_us
    return result


# ===========================================================================
# §3.2 — write throughput overhead (Mux vs native, no tiering)
# ===========================================================================

WRITE_TOTALS = {"pm": 32 * MIB, "ssd": 128 * MIB, "hdd": 192 * MIB}


@dataclass
class WriteOverheadResult:
    native_mb_s: Dict[str, float] = field(default_factory=dict)
    mux_mb_s: Dict[str, float] = field(default_factory=dict)

    def overhead_pct(self, tier: str) -> float:
        return 100.0 * (1.0 - self.mux_mb_s[tier] / self.native_mb_s[tier])

    def rows(self) -> List[ResultRow]:
        return [
            ResultRow(
                "§3.2-write",
                tier,
                "4 MiB sequential write throughput loss",
                f"-{PAPER_WRITE_OVERHEAD[tier]:.1f}%",
                f"-{self.overhead_pct(tier):.1f}% "
                f"({self.native_mb_s[tier]:.0f} -> {self.mux_mb_s[tier]:.0f} MB/s)",
            )
            for tier in TIERS
        ]


def experiment_write_overhead() -> WriteOverheadResult:
    """Sequential 4 MiB writes, Mux vs the native file system."""
    result = WriteOverheadResult()
    for tier in TIERS:
        sizes = OVERHEAD_SIZES[tier]
        total = WRITE_TOTALS[tier]

        native_stack = build_stack(tiers=[tier], capacities=sizes["caps"])
        native = VfsView(native_stack.vfs, f"/tiers/{tier}")
        res = workloads.sequential_write(
            native, native_stack.clock, "/seq.bin", total
        )
        result.native_mb_s[tier] = res.mb_per_s

        mux_stack = build_pinned_mux(tier, tiers=[tier], capacities=sizes["caps"])
        mux = VfsView(mux_stack.vfs, "/mux")
        res = workloads.sequential_write(mux, mux_stack.clock, "/seq.bin", total)
        result.mux_mb_s[tier] = res.mb_per_s
    return result


# ===========================================================================
# Ablations — the design choices DESIGN.md calls out
# ===========================================================================

BS = 4096
ABLATION_CAPS = {"pm": 64 * MIB, "ssd": 128 * MIB, "hdd": 256 * MIB}


def _user_write_during_migration_us(force_lock: bool) -> float:
    """Completion time (us) of a user write issued mid-migration of 24 MiB."""
    stack = build_stack(capacities=ABLATION_CAPS, enable_cache=False)
    mux = stack.mux
    mux.engine.occ.force_lock = force_lock
    handle = mux.create("/big")
    size = 24 * MIB
    for off in range(0, size, MIB):
        mux.write(handle, off, bytes(MIB))
    task = mux.engine.submit(
        MigrationOrder(
            handle.ino, 0, size // BS, stack.tier_id("pm"), stack.tier_id("ssd")
        )
    )
    issue_ns = stack.clock.now_ns
    task.step()  # the migration starts (and under the lock, finishes)
    mux.write(handle, 0, b"user write during migration")
    latency_ns = stack.clock.now_ns - issue_ns
    task.join()
    mux.close(handle)
    return latency_ns / 1000.0


def _conflicted_migration():
    """A migration whose every other copy step races a user write."""
    stack = build_stack(enable_cache=False)
    mux = stack.mux
    handle = mux.create("/f")
    mux.write(handle, 0, bytes(256 * BS))
    inode = mux.ns.get(handle.ino)
    task = mux.engine.submit(
        MigrationOrder(handle.ino, 0, 256, stack.tier_id("pm"), stack.tier_id("ssd"))
    )
    step = 0
    while task.step():
        if step % 2 == 0 and inode.migration_active:
            mux.write(handle, (step % 256) * BS, b"conflict")
        step += 1
    mux.close(handle)
    return task.result


def _ablation_occ(smoke: bool) -> Report:
    """§2.4: OCC keeps user writes off a migration's critical path.

    Under OCC the write slips between copy chunks; behind the pessimistic
    lock it waits for the whole movement.
    """
    occ_us = _user_write_during_migration_us(force_lock=False)
    lock_us = _user_write_during_migration_us(force_lock=True)
    run = _conflicted_migration()
    metric = "user write completion during 24 MiB migration"
    return Report(
        "== Ablation (§2.4): OCC vs lock-based migration ==",
        [
            ResultRow(
                "ablation-occ", "OCC", metric, "off the critical path",
                f"{occ_us:.1f} us",
            ),
            ResultRow(
                "ablation-occ", "lock", metric, "waits for the movement",
                f"{lock_us:.1f} us ({lock_us / occ_us:.0f}x stall reduction)",
            ),
            ResultRow(
                "ablation-occ", "conflicting writes",
                "attempts / conflicts / lock fallback / moved blocks",
                "retries, then converges",
                f"{run.attempts} / {run.conflicts} / {run.lock_fallback} / "
                f"{run.moved_blocks}",
            ),
        ],
        [
            ("OCC write completes > 10x sooner than behind the lock",
             occ_us * 10 < lock_us),
            ("conflicted migration retries (attempts >= 2) or falls back to the lock",
             run.attempts >= 2 or run.lock_fallback),
        ],
    )


_BLT_KINDS = (
    ("extent", ExtentBlt, "extent tree (§2.2)"),
    ("flat", ByteArrayBlt, "1 byte per 4 KB (§2.3)"),
)
_BLT_LAYOUTS = ("sequential", "fragmented")


def _blt_read_cost(blt_factory, fragment: bool) -> Tuple[float, int]:
    """Mean 4 KiB read (us) and BLT footprint (bytes) of a 16 MiB file."""
    stack = build_stack(
        capacities=ABLATION_CAPS, enable_cache=False, blt_factory=blt_factory
    )
    mux = stack.mux
    handle = mux.create("/f")
    blocks = 4096
    for off in range(0, blocks * BS, MIB):
        mux.write(handle, off, bytes(MIB))
    if fragment:
        # alternate 8-block stripes onto the ssd tier -> many BLT extents
        for fb in range(0, blocks, 16):
            mux.engine.migrate_now(
                MigrationOrder(
                    handle.ino, fb, 8, stack.tier_id("pm"), stack.tier_id("ssd")
                )
            )
    inode = mux.ns.get(handle.ino)
    t0 = stack.clock.now_ns
    reads = 256
    for i in range(reads):
        mux.read(handle, (i * 769 % blocks) * BS, BS)
    mean_us = (stack.clock.now_ns - t0) / 1000.0 / reads
    memory = inode.blt.memory_bytes()
    mux.close(handle)
    return mean_us, memory


def _ablation_blt(smoke: bool) -> Report:
    """§2.2/§2.3: extent-tree BLT vs the flat one-byte-per-block table."""
    cost = {
        (kind, layout): _blt_read_cost(factory, layout == "fragmented")
        for kind, factory, _ in _BLT_KINDS
        for layout in _BLT_LAYOUTS
    }
    flat_bytes = cost["flat", "sequential"][1]
    return Report(
        "== Ablation (§2.2/§2.3): extent-tree vs flat BLT ==",
        [
            ResultRow(
                "ablation-blt", f"{kind} {layout}", "4 KiB read, BLT footprint",
                paper, f"{cost[kind, layout][0]:.2f} us, {cost[kind, layout][1]} B",
            )
            for kind, _, paper in _BLT_KINDS
            for layout in _BLT_LAYOUTS
        ],
        [
            ("extent BLT of a sequential file < 1/10 of the flat table",
             cost["extent", "sequential"][1] < flat_bytes / 10),
            ("flat BLT <= 0.025% of the data it maps",
             flat_bytes / (4096 * BS) <= 0.00025),
        ],
    )


def _hot_set_read_us(enable_cache: bool) -> Tuple[float, float]:
    """Mean hot-set read (us) from the HDD tier and the SCM cache hit ratio.

    The 16 MiB hot set does not fit the 4 MiB DRAM page cache ext4 gets
    here but does fit the SCM cache: the regime §2.5 motivates it with.
    """
    stack = build_stack(
        capacities={"pm": 128 * MIB, "ssd": 128 * MIB, "hdd": 512 * MIB},
        enable_cache=enable_cache,
    )
    mux = stack.mux
    hdd_fs = stack.filesystems["hdd"]
    hdd_fs.page_cache = PageCache(stack.clock, 1024, BS, hdd_fs._writeback_page)
    mux.policy = PinnedPolicy(stack.tier_id("hdd"))
    hot_bytes = 16 * MIB
    handle = workloads.make_file(mux, stack.clock, "/data.bin", 48 * MIB)
    for offset in range(0, hot_bytes, BS):  # warm-up, uncounted
        mux.read(handle, offset, BS)
    rng = DeterministicRng(17)
    iterations = 2500
    before = mux.cache.stats.snapshot() if mux.cache is not None else {}
    t0 = stack.clock.now_ns
    for _ in range(iterations):
        mux.read(handle, rng.randint(0, hot_bytes // BS - 1) * BS, BS)
    mean_us = (stack.clock.now_ns - t0) / 1000.0 / iterations
    hit_ratio = 0.0
    if mux.cache is not None:
        hits = mux.cache.stats.get("hit") - before.get("hit", 0)
        misses = mux.cache.stats.get("miss") - before.get("miss", 0)
        hit_ratio = hits / (hits + misses) if hits + misses else 0.0
    mux.close(handle)
    return mean_us, hit_ratio


def _ablation_scm_cache(smoke: bool) -> Report:
    """§2.5: the SCM cache on/off for a hot set larger than DRAM."""
    cached_us, hit_ratio = _hot_set_read_us(True)
    uncached_us, _ = _hot_set_read_us(False)
    speedup = uncached_us / cached_us
    metric = "4 KiB hot-set read from HDD, beyond DRAM"
    return Report(
        "== Ablation (§2.5): SCM cache on/off ==",
        [
            ResultRow(
                "ablation-cache", "cache on", metric, "SCM offloads DRAM",
                f"{cached_us:.1f} us (hit ratio {hit_ratio:.2f})",
            ),
            ResultRow(
                "ablation-cache", "cache off", metric, "every read hits disk",
                f"{uncached_us:.1f} us ({speedup:.1f}x slower)",
            ),
        ],
        [
            ("SCM cache hit ratio > 0.9", hit_ratio > 0.9),
            ("cached hot-set reads > 5x faster", speedup > 5.0),
        ],
    )


def _split_read_ms(enabled: bool) -> Tuple[float, float]:
    """``(total_ms, pm_served_ms)`` of a 2 MiB read split PM-tail/HDD-body.

    Runs the *serial* dispatch model: sub-requests are charged one after
    another, so reordering cannot change the total; what the scheduler buys
    is response ordering, the PM-resident tail served first.  The parallel
    engine gets that by construction (see the ``parallel_stripe`` workload).
    """
    stack = build_stack(
        capacities=ABLATION_CAPS,
        enable_cache=False,
        scheduler=IoScheduler(enabled=enabled, parallel=False),
    )
    mux = stack.mux
    handle = mux.create("/split")
    blocks = 512
    mux.write(handle, 0, bytes(blocks * BS))
    mux.engine.migrate_now(
        MigrationOrder(
            handle.ino, 0, blocks - 64, stack.tier_id("pm"), stack.tier_id("hdd")
        )
    )
    stack.filesystems["hdd"].page_cache.drop_clean()

    # uncached sub-requests are served through the zero-copy read_into path
    completions = []
    original_read_into = stack.vfs.read_into

    def traced_read_into(h, offset, length, out, out_off=0):
        n = original_read_into(h, offset, length, out, out_off)
        completions.append((h.fs.fs_name, stack.clock.now_ns))
        return n

    stack.vfs.read_into = traced_read_into
    t0 = stack.clock.now_ns
    mux.read(handle, 0, blocks * BS)
    total_ms = (stack.clock.now_ns - t0) / 1e6
    stack.vfs.read_into = original_read_into
    pm_done = [t for fs_name, t in completions if fs_name == "nova"]
    mux.close(handle)
    return total_ms, (min(pm_done) - t0) / 1e6 if pm_done else total_ms


def _ablation_scheduler(smoke: bool) -> Report:
    """§4: the device-profile I/O scheduler on a split read."""
    on_total, on_pm = _split_read_ms(True)
    off_total, off_pm = _split_read_ms(False)
    metric = "2 MiB split read: PM data served / total"
    return Report(
        "== Ablation (§4): I/O scheduler on/off ==",
        [
            ResultRow(
                "ablation-sched", "scheduler on", metric, "fast tier first",
                f"{on_pm:.3f} ms / {on_total:.2f} ms",
            ),
            ResultRow(
                "ablation-sched", "FIFO", metric, "file order",
                f"{off_pm:.2f} ms / {off_total:.2f} ms",
            ),
        ],
        [
            ("same total time either way (< 1 ms apart)",
             abs(on_total - off_total) < 1.0),
            ("PM data served > 10x sooner with the scheduler", on_pm * 10 < off_pm),
        ],
    )


def _strata_pm_write() -> Tuple[float, float]:
    """Strata, 16 MiB to PM incl. the digest: ``(MB/s, write amplification)``."""
    stack = build_strata(pin_target="pm")
    pm = stack.devices["pm"]
    user_bytes = 16 * MIB
    before = pm.stats.bytes_written
    t0 = stack.clock.now_ns
    workloads.sequential_write(
        stack.fs, stack.clock, "/f", user_bytes, io_size=MIB, fsync_every=0
    )
    stack.fs.digest()  # land everything in its final PM home
    elapsed_s = (stack.clock.now_ns - t0) / 1e9
    amp = (pm.stats.bytes_written - before) / user_bytes
    return (user_bytes / 1e6) / elapsed_s, amp


def _nova_pm_write() -> Tuple[float, float]:
    """NOVA, 16 MiB to PM: ``(MB/s, write amplification)``."""
    clock = SimClock()
    pm = PersistentMemoryDevice("pm0", 64 * MIB, clock)
    nova = NovaFileSystem("nova", pm, clock)
    user_bytes = 16 * MIB
    before = pm.stats.bytes_written
    res = workloads.sequential_write(
        nova, clock, "/f", user_bytes, io_size=MIB, fsync_every=0
    )
    return res.mb_per_s, (pm.stats.bytes_written - before) / user_bytes


def _ablation_strata_log(smoke: bool) -> Report:
    """§3.1: Strata's log-then-digest vs NOVA's direct DAX path on PM."""
    strata_mb_s, strata_amp = _strata_pm_write()
    nova_mb_s, nova_amp = _nova_pm_write()
    metric = "16 MiB sequential PM write"
    return Report(
        "== Ablation (§3.1): Strata log-then-digest vs NOVA ==",
        [
            ResultRow(
                "ablation-log", "NOVA", metric, "no log needed on PM",
                f"{nova_mb_s:.0f} MB/s (amp {nova_amp:.2f}x)",
            ),
            ResultRow(
                "ablation-log", "Strata", metric, "log, then digest",
                f"{strata_mb_s:.0f} MB/s (amp {strata_amp:.2f}x)",
            ),
        ],
        [
            ("Strata PM write amplification > 1.8x", strata_amp > 1.8),
            ("NOVA PM write amplification < 1.3x", nova_amp < 1.3),
            ("NOVA writes PM faster than Strata", nova_mb_s > strata_mb_s),
        ],
    )


LAZY_SYNC_INTERVALS = (4, 16, 48, 192)


def _hdd_read_us(sync_interval: int) -> float:
    """Mean 1-byte HDD read (us) with metadata synced every N records."""
    original = cal.META_SYNC_RECORDS
    cal.META_SYNC_RECORDS = sync_interval
    try:
        stack = build_pinned_mux(
            "hdd", tiers=["hdd"], capacities={"hdd": 512 * MIB}
        )
        handle = workloads.make_file(stack.mux, stack.clock, "/big.bin", 128 * MIB)
        stack.mux.close(handle)
        return workloads.random_read_single_byte(
            stack.mux, stack.clock, "/big.bin", 128 * MIB, iterations=300
        ).mean_us
    finally:
        cal.META_SYNC_RECORDS = original


def _ablation_lazy_sync(smoke: bool) -> Report:
    """§2.3: how lazily Mux syncs its metadata vs the worst-case read.

    Each flush is an append+fsync of the metafile; on a single-HDD stack
    the metafile shares the slow device, so the cost is starkly visible.
    """
    us = {n: _hdd_read_us(n) for n in LAZY_SYNC_INTERVALS}
    return Report(
        "== Ablation (§2.3): lazy metadata sync interval ==",
        [
            ResultRow(
                "ablation-sync", f"every {n} records", "mean 1-byte HDD read",
                "lazier is cheaper", f"{us[n]:.1f} us",
            )
            for n in LAZY_SYNC_INTERVALS
        ],
        [
            ("read cost falls from every 4 to every 48 records", us[4] > us[48] > 0),
            ("every 192 records costs <= 1.05x every 48", us[192] <= us[48] * 1.05),
        ],
    )


# ===========================================================================
# Application-level macro workloads (not a figure of the paper)
# ===========================================================================

MACRO_CAPS = {"pm": 64 * MIB, "ssd": 128 * MIB, "hdd": 512 * MIB}


def _macro_stacks() -> Iterator[Tuple[str, object, SimClock]]:
    """``(label, fs, clock)``: ext4 on the HDD alone, Strata, then Mux."""
    clock = SimClock()
    hdd = HardDiskDrive("hdd0", MACRO_CAPS["hdd"], clock)
    yield "ext4/HDD only", Ext4FileSystem("ext4", hdd, clock), clock
    strata = build_strata(capacities=MACRO_CAPS)
    yield "Strata", strata.fs, strata.clock
    stack = build_stack(capacities=MACRO_CAPS)
    yield "Mux", stack.mux, stack.clock


def experiment_macro() -> Dict[str, Dict[str, MacroResult]]:
    """workload -> stack label -> result, each stack built fresh."""
    return {
        name: {label: workload(fs, clock) for label, fs, clock in _macro_stacks()}
        for name, workload in ALL_WORKLOADS.items()
    }


def _macro(smoke: bool) -> Report:
    """fileserver/webserver/varmail: does tiering pay off for applications?"""
    rows, checks = [], []
    for name, by_stack in experiment_macro().items():
        hdd_only = by_stack["ext4/HDD only"].ops_per_sec
        for label, result in by_stack.items():
            measured = (
                f"{result.ops_per_sec:,.0f} ops/s "
                f"({result.mean_latency_us:.1f} us/op)"
            )
            if label != "ext4/HDD only":
                measured += f", {result.ops_per_sec / hdd_only:.1f}x vs HDD-only"
            rows.append(
                ResultRow("macro", name, label, "not in the paper", measured)
            )
        mux = by_stack["Mux"].ops_per_sec
        if name == "varmail":
            checks.append(("varmail: Mux > 10x ext4/HDD only", mux > 10 * hdd_only))
        if name == "fileserver":
            checks.append(("fileserver: Mux > ext4/HDD only", mux > hdd_only))
        checks.append(
            (f"{name}: Mux > 0.5x Strata", mux > 0.5 * by_stack["Strata"].ops_per_sec)
        )
    return Report("== Macro workloads: ops/s on three stacks ==", rows, checks)


# ===========================================================================
# The registry
# ===========================================================================


def _fig3a(smoke: bool) -> Report:
    result = experiment_fig3a(file_mib=8 if smoke else 16)
    mux, strata = result.mux, result.strata
    return Report(
        "== Figure 3a: migration matrix ==",
        result.rows(),
        [
            ("Mux migrates between all 6 device pairs",
             result.mux_supported_pairs == 6),
            ("Strata migrates exactly pm->ssd and pm->hdd",
             set(strata) == {("pm", "ssd"), ("pm", "hdd")}),
            ("Mux beats Strata on every pair Strata supports",
             all(mux.get(pair, 0.0) > strata[pair] for pair in strata)),
            ("Mux/Strata pm->ssd migration speedup > 1.3x",
             (result.speedup_pm_ssd() or 0.0) > 1.3),
            ("every migration throughput > 0",
             all(v > 0 for v in [*mux.values(), *strata.values()])),
            ("Mux ssd->pm beats ssd->hdd",
             mux.get(("ssd", "pm"), 0.0) > mux.get(("ssd", "hdd"), 0.0)),
        ],
    )


def _fig3b(smoke: bool) -> Report:
    result = experiment_fig3b(total_mib=12 if smoke else 24)
    return Report(
        "== Figure 3b: device I/O ==",
        result.rows(),
        [
            ("Mux/Strata write throughput > 1.0x on pm, ssd and hdd",
             all(result.speedup(tier) > 1.0 for tier in TIERS)),
            ("pm > ssd > hdd throughput for both systems",
             all(s["pm"] > s["ssd"] > s["hdd"]
                 for s in (result.mux_mb_s, result.strata_mb_s))),
        ],
    )


def _read_overhead(smoke: bool) -> Report:
    result = experiment_read_overhead(iterations=400 if smoke else 1200)
    pct, native = result.overhead_pct, result.native_us
    return Report(
        "== §3.2 read latency overhead ==",
        result.rows(),
        [
            ("read overhead > 0% on pm, ssd and hdd",
             all(pct(tier) > 0 for tier in TIERS)),
            ("hdd overhead < pm overhead", pct("hdd") < pct("pm")),
            ("hdd overhead < 25%", pct("hdd") < 25),
            ("native read latency pm < ssd < hdd",
             native["pm"] < native["ssd"] < native["hdd"]),
        ],
    )


def _write_overhead(smoke: bool) -> Report:
    result = experiment_write_overhead()
    return Report(
        "== §3.2 write throughput overhead ==",
        result.rows(),
        [
            ("write throughput loss < 10% on pm, ssd and hdd",
             all(result.overhead_pct(tier) < 10.0 for tier in TIERS)),
        ],
    )


#: a body runs its experiment (smaller when ``smoke`` and the experiment
#: has a size knob) and returns its report
Body = Callable[[bool], Report]

EXPERIMENTS: Dict[str, Body] = {
    "fig3a": _fig3a,
    "fig3b": _fig3b,
    "read_overhead": _read_overhead,
    "write_overhead": _write_overhead,
    "ablation_occ": _ablation_occ,
    "ablation_blt": _ablation_blt,
    "ablation_scm_cache": _ablation_scm_cache,
    "ablation_scheduler": _ablation_scheduler,
    "ablation_strata_log": _ablation_strata_log,
    "ablation_lazy_sync": _ablation_lazy_sync,
    "macro": _macro,
}
