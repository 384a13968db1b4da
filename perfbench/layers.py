"""Per-layer counters read from the program's public stats objects.

``snapshot`` reads every ``CounterSet``, ``DeviceStats`` and device
timeline of a workload's stacks; the runner takes one before and one after
the measured window and works with the difference.  All values are
integers derived from simulated state, so they repeat exactly for a seed.
"""

from __future__ import annotations

from typing import Dict

TIERS = ("pm", "ssd", "hdd")


def snapshot(workload) -> Dict[str, int]:
    """Flat ``name -> count`` view of every layer's counters."""
    out: Dict[str, int] = {}

    def add(name: str, value: int) -> None:
        out[name] = out.get(name, 0) + value

    for shard, stack in enumerate(workload.stacks()):
        mux = stack.mux
        add("mux.reads_from_mirror", mux.stats.get("reads_from_mirror"))
        if mux.cache is not None:
            stats = mux.cache.stats
            for key in ("hit", "miss", "evict", "destaged_blocks"):
                add(f"scm_cache.{key}", stats.get(key))
        engine = mux.engine
        for key in ("blocks_moved", "retries", "lock_fallbacks"):
            add(f"migration.{key}", engine.stats.get(key))
        for key in ("attempts", "conflicts", "runs_committed"):
            add(f"occ.{key}", engine.occ.stats.get(key))
        add("mirror.blocks_synced", mux.mirrors.stats.get("blocks_synced"))
        for tier, fs in stack.filesystems.items():
            cache = getattr(fs, "page_cache", None)
            if cache is not None:
                for key in ("hit", "miss", "evict", "fsync_pages"):
                    add(f"pagecache.{key}", cache.stats.get(key))
            journal = getattr(fs, "journal", None)
            if journal is not None:
                for key in ("commits", "journal_blocks", "checkpoints"):
                    add(f"journal.{key}", journal.stats.get(key))
        for tier, device in stack.devices.items():
            timeline = device.timeline
            add(f"dev.{tier}.fg_ops", timeline.foreground_ops)
            add(f"dev.{tier}.bg_ops", timeline.background_ops)
            add(f"dev.{tier}.busy_ns", timeline.busy_ns)
            add(f"dev.{tier}.wait_ns", timeline.wait_ns)
            add(f"dev.{tier}.channels", timeline.nchannels)
            add(f"dev.{tier}.bytes_written", device.stats.bytes_written)
            add(f"shard{shard}.busy_ns", timeline.busy_ns)
    for ring in workload.rings():
        snap = ring.snapshot()
        add("ring.backpressure_waits", snap["backpressure_waits"])
        out["ring.max_inflight"] = max(out.get("ring.max_inflight", 0), snap["max_inflight"])
    cluster = workload.cluster()
    if cluster is not None:
        for key in ("cross_shard_renames", "subtrees_moved"):
            add(f"cluster.{key}", cluster.stats.get(key))
        for shard in cluster.shards:
            add("nfs.rpcs", shard.wire.stats.get("rpcs"))
            add("nfs.bytes_on_wire", shard.wire.stats.get("bytes_on_wire"))
    return out


def delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    """Window counts; gauges (channels, max_inflight) keep their value."""
    out = {}
    for key, value in after.items():
        if key.endswith((".channels", ".max_inflight")):
            out[key] = value
        else:
            out[key] = value - before.get(key, 0)
    return out


def device_bytes_written(counts: Dict[str, int]) -> int:
    return sum(counts.get(f"dev.{t}.bytes_written", 0) for t in TIERS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_metrics(counts: Dict[str, int], window_ns: int) -> Dict[str, tuple]:
    """Per-layer metrics computed from window counts: name -> (value, unit)."""
    c = counts.get
    m: Dict[str, tuple] = {}
    hits, misses = c("scm_cache.hit", 0), c("scm_cache.miss", 0)
    m["scm_cache.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    m["scm_cache.evictions"] = (c("scm_cache.evict", 0), "count")
    m["scm_cache.destaged_blocks"] = (c("scm_cache.destaged_blocks", 0), "count")
    m["migration.blocks_moved"] = (c("migration.blocks_moved", 0), "count")
    m["migration.occ_conflicts"] = (c("occ.conflicts", 0), "count")
    m["migration.retries"] = (c("migration.retries", 0), "count")
    m["migration.lock_fallbacks"] = (c("migration.lock_fallbacks", 0), "count")
    m["migration.commit_ratio"] = (
        _ratio(c("occ.runs_committed", 0), c("occ.attempts", 0)), "ratio")
    m["mirror.blocks_synced"] = (c("mirror.blocks_synced", 0), "count")
    m["mirror.reads_from_mirror"] = (c("mux.reads_from_mirror", 0), "count")
    m["ring.backpressure_waits"] = (c("ring.backpressure_waits", 0), "count")
    m["ring.max_inflight"] = (c("ring.max_inflight", 0), "count")
    hits, misses = c("pagecache.hit", 0), c("pagecache.miss", 0)
    m["pagecache.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    m["pagecache.evictions"] = (c("pagecache.evict", 0), "count")
    m["pagecache.fsync_pages"] = (c("pagecache.fsync_pages", 0), "count")
    m["journal.commits"] = (c("journal.commits", 0), "count")
    m["journal.blocks"] = (c("journal.journal_blocks", 0), "count")
    m["journal.checkpoints"] = (c("journal.checkpoints", 0), "count")
    m["nfs.rpcs"] = (c("nfs.rpcs", 0), "count")
    m["nfs.bytes_on_wire"] = (c("nfs.bytes_on_wire", 0), "B")
    for t in TIERS:
        m[f"dev.{t}.fg_ops"] = (c(f"dev.{t}.fg_ops", 0), "count")
        m[f"dev.{t}.bg_ops"] = (c(f"dev.{t}.bg_ops", 0), "count")
        m[f"dev.{t}.busy_us"] = (c(f"dev.{t}.busy_ns", 0) / 1e3, "us")
        m[f"dev.{t}.wait_us"] = (c(f"dev.{t}.wait_ns", 0) / 1e3, "us")
        m[f"dev.{t}.bytes_written"] = (c(f"dev.{t}.bytes_written", 0), "B")
        m[f"dev.{t}.utilization"] = (
            _ratio(c(f"dev.{t}.busy_ns", 0), window_ns * c(f"dev.{t}.channels", 0)), "ratio")
    m["cluster.cross_shard_renames"] = (c("cluster.cross_shard_renames", 0), "count")
    m["cluster.subtrees_moved"] = (c("cluster.subtrees_moved", 0), "count")
    busy = [v for k, v in counts.items() if k.startswith("shard") and k.endswith(".busy_ns")]
    skew = _ratio(max(busy), sum(busy) / len(busy)) if len(busy) > 1 else 0.0
    m["cluster.shard_load_skew"] = (skew, "ratio")
    return m
