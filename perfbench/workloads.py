"""The benchmark's four workloads.

Each workload builds its stack through the public API
(``repro.stack.build_stack`` / ``build_cluster``), populates it, warms it
up, and then drives one measured window of operations generated from the
seed.  Every byte the workload writes is mirrored in a flat per-file byte
model and every read is compared against it, so a wrong byte fails the run.

All load comes from one thread.  Two load shapes:

* open loop (``zipf_tiered``, ``cluster_mix``): Poisson arrivals at a
  fixed rate in simulated time, submitted through async rings; metadata
  calls are synchronous and hold up the generator;
* paced closed loop (``fsync_smallfile``, ``scm_hot``): one synchronous
  client with one op outstanding, handed ops on Poisson due times at a
  fixed rate; an op that overruns delays the ones after it.

In both, an op's latency is timed from its due time, and the submit lag
is how far behind its due time the op was issued.  The client's event
loop wakes on a 1 us timer, so every op also carries up to 1 us of
wake-up delay; without it, fixed-cost fast paths would report the same
latency to the nanosecond on every seed.
"""

from __future__ import annotations

import bisect
import math
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.bench import balanced_tenant_names, colocated_tenant_names
from repro.errors import ReproError
from repro.sim.rng import DeterministicRng
from repro.stack import build_cluster, build_stack
from repro.tools.fsck import check_mux, check_native_fs

KIB = 1024
MIB = 1024 * KIB
NS_PER_S = 1_000_000_000
#: CPU seconds ``reference_kernel_s`` takes on a quiet development host;
#: host time is reported in units of this machine speed
REFERENCE_KERNEL_S = 0.005


def reference_kernel_s() -> float:
    """CPU seconds a fixed pure-Python dict workload takes right now.

    On a shared host the CPU time of identical work drifts by tens of
    percent within seconds (cache and memory-bandwidth contention that
    CPU time does not exclude).  Timing this kernel next to each measured
    chunk gives that chunk's host speed, so host times can be expressed
    in reference seconds, which drift much less.
    """
    t0 = time.process_time()
    table: Dict[Tuple[int, int], int] = {}
    for i in range(6000):
        table[(i & 1023, i)] = i
        if len(table) > 1024:
            del table[next(iter(table))]
    total = 0
    for key in table:
        total += table[key]
    return time.process_time() - t0


# -- inputs -------------------------------------------------------------------


def zipf_cdf(n: int, alpha: float) -> List[float]:
    weights = [1.0 / (rank + 1) ** alpha for rank in range(n)]
    total = sum(weights)
    acc, cdf = 0.0, []
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def zipf_pick(rng: DeterministicRng, cdf: List[float]) -> int:
    return bisect.bisect_left(cdf, rng.random())


def exp_gap_ns(rng: DeterministicRng, rate_per_s: float) -> int:
    return max(1, int(-math.log(1.0 - rng.random()) * NS_PER_S / rate_per_s))


#: the client's event loop wakes on a 1 us timer: requests that fell due
#: since the last wake-up are submitted together at the next tick
TICK_NS = 1000


def wake_ns(due_ns: int) -> int:
    """First loop tick at or after ``due_ns``."""
    return -(-due_ns // TICK_NS) * TICK_NS


class Payloads:
    """Seeded random payloads: slices of a small pool of random blocks.

    Consecutive writes to one place almost never repeat a block, so a read
    that returns stale or misplaced data does not match the model.
    """

    def __init__(self, rng: DeterministicRng, block: int, count: int = 61) -> None:
        self.rng = rng
        self.pool = [rng.bytes(block) for _ in range(count)]

    def take(self, length: int) -> bytes:
        block = self.pool[self.rng.randint(0, len(self.pool) - 1)]
        if length <= len(block):
            return block[:length]
        reps = -(-length // len(block))
        return (block * reps)[:length]


class Model:
    """Flat byte model of every file: path -> contents."""

    def __init__(self) -> None:
        self.files: Dict[str, bytearray] = {}

    def write(self, path: str, offset: int, data: bytes) -> None:
        buf = self.files[path]
        end = offset + len(data)
        if end > len(buf):
            buf.extend(bytes(end - len(buf)))
        buf[offset:end] = data

    def expect(self, path: str, offset: int, length: int) -> bytes:
        return bytes(self.files[path][offset:offset + length])


# -- measurement ----------------------------------------------------------------


class Recorder:
    """Everything one measured window produces (simulated time, in ns)."""

    KINDS = ("read", "write", "fsync", "meta")

    def __init__(self, calibrate: bool = False) -> None:
        #: time the reference kernel at every checkpoint (off when tracing,
        #: so the kernel does not count as unattributed time)
        self.calibrate = calibrate
        self.lat: Dict[str, List[int]] = {k: [] for k in self.KINDS}
        self.lag: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.user_bytes = 0
        #: client service time (paced closed loops only)
        self.busy_ns = 0
        self.start_ns = 0
        self.end_ns = 0
        self.errors: List[str] = []
        #: (process CPU time, ops attempted, reference kernel seconds)
        self.marks: List[Tuple[float, int, float]] = []

    def mark(self) -> None:
        """Host-time checkpoint, preceded by a reference kernel timing."""
        kernel = reference_kernel_s() if self.calibrate else 0.0
        self.marks.append((time.process_time(), self.attempted, kernel))

    def kernel_s(self) -> float:
        """CPU seconds the reference kernel took inside the window."""
        return sum(k for _, _, k in self.marks)

    def chunk_costs(self) -> List[Tuple[int, float]]:
        """(ops attempted, host seconds) of each chunk between checkpoints.

        Each chunk's CPU time leaves out the kernel run that closes it and,
        when calibrating, is converted to reference seconds with the mean
        of the kernel timings on either side of it.
        """
        costs = []
        for (t0, n0, k0), (t1, n1, k1) in zip(self.marks, self.marks[1:]):
            cpu = t1 - t0 - k1
            if self.calibrate:
                cpu *= REFERENCE_KERNEL_S / ((k0 + k1) / 2)
            costs.append((n1 - n0, cpu))
        return costs

    def done(self, kind: str, latency_ns: int) -> None:
        self.attempted += 1
        self.lat[kind].append(latency_ns)

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def check(self, kind: str, latency_ns: int, got: bytes, want: bytes, where: str) -> None:
        if got == want:
            self.done(kind, latency_ns)
        else:
            self.mismatches += 1
            self.fail(f"read mismatch at {where}")


# -- shared load generators -----------------------------------------------------


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def no_span(_layer: str) -> _NullSpan:
    """Span factory used when tracing is off (and during set-up)."""
    return _NULL_SPAN


class RingBook:
    """Outstanding ring submissions of one open-loop window."""

    def __init__(self, rec: Recorder, span: Callable) -> None:
        self.rec = rec
        self.span = span
        #: (ring id, seq) -> (due_ns, op, where, expected bytes or None)
        self.outstanding: Dict[Tuple[int, int], Tuple[int, str, str, Optional[bytes]]] = {}

    def submitted(self, ring, sub, due: int, where: str, want: Optional[bytes] = None) -> None:
        self.outstanding[(id(ring), sub.seq)] = (due, sub.op, where, want)
        self.rec.lag.append(sub.submitted_ns - due)

    def harvest(self, ring, completions) -> None:
        rec = self.rec
        with self.span("bench"):
            for c in completions:
                due, op, where, want = self.outstanding.pop((id(ring), c.seq))
                latency = c.completed_ns - due
                if c.error is not None:
                    rec.fail(f"{op} {where}: {c.error!r}")
                elif op == "read":
                    rec.check("read", latency, c.result, want, where)
                else:
                    rec.done(op, latency)


class Pacer:
    """Due times for a paced closed loop: one client, one op outstanding.

    Every op gets its own Poisson due time; the client sleeps until it,
    or starts late when the previous op overran, and the op's latency is
    timed from the due time.  ``busy_ns`` sums the client's service time,
    so ``busy_ns / window`` is the client's utilization.
    """

    def __init__(self, clock, rng: DeterministicRng, rate: float, rec: Recorder) -> None:
        self.clock = clock
        self.rng = rng
        self.rate = rate
        self.rec = rec
        self.next_ns = clock.now_ns
        self.due_ns = 0
        self.start_ns = 0

    def due(self) -> None:
        self.next_ns += exp_gap_ns(self.rng, self.rate)
        self.due_ns = self.next_ns
        clock = self.clock
        clock.advance_to(wake_ns(self.due_ns))
        self.start_ns = clock.now_ns
        self.rec.lag.append(self.start_ns - self.due_ns)

    def done(self, kind: str) -> None:
        now = self.clock.now_ns
        self.rec.busy_ns += now - self.start_ns
        self.rec.done(kind, now - self.due_ns)

    def check(self, got: bytes, want: bytes, where: str) -> None:
        now = self.clock.now_ns
        self.rec.busy_ns += now - self.start_ns
        self.rec.check("read", now - self.due_ns, got, want, where)


class Workload:
    """One workload: ``setup`` (build, populate, warm) then ``run``.

    ``fs`` is the object whole-file read-back goes through and ``prefix``
    the path prefix under it (``/mux`` when the workload enters through
    the VFS).
    """

    name = ""
    prefix = ""
    #: loop iterations between host-time checkpoints, chosen so a chunk
    #: takes roughly 30-100 ms of host time: the reference kernel timings
    #: around a shorter chunk track the host's speed more closely
    MARK_EVERY = 512

    def __init__(self, seed: int) -> None:
        self.rng = DeterministicRng(seed)
        self.model = Model()
        self.warm_errors: List[str] = []
        #: host-time checkpoints of the set-up: build, population, warm-up
        self.setup_rec = Recorder(calibrate=True)
        self.clock = None
        self.fs = None

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, rec: Recorder, span: Callable = no_span) -> None:
        raise NotImplementedError

    def stacks(self) -> list:
        raise NotImplementedError

    def rings(self) -> list:
        return []

    def cluster(self):
        return None

    def settle(self) -> None:
        """Finish background work so the post-window checks see rest state."""
        for stack in self.stacks():
            stack.mux.engine.drain()
            stack.mux.mirrors.drain()

    def stat(self, path: str, due: int, rec: Recorder) -> None:
        """Synchronous stat from an open-loop generator, checked for size."""
        clock = self.clock
        rec.lag.append(clock.now_ns - due)
        try:
            size = self.fs.getattr(self.prefix + path).size
        except ReproError as exc:
            rec.fail(f"stat {path}: {exc!r}")
            return
        if size == len(self.model.files[path]):
            rec.done("meta", clock.now_ns - due)
        else:
            rec.fail(f"stat size mismatch {path}")

    def verify(self) -> List[str]:
        """Post-window gate: whole-file read-back against the model, then
        ``check_mux`` and ``check_native_fs`` on every tier of every stack."""
        self.settle()
        problems = list(self.warm_errors)
        for path, want in sorted(self.model.files.items()):
            if self.fs.read_file(self.prefix + path) != bytes(want):
                problems.append(f"read-back mismatch {path}")
        for stack in self.stacks():
            problems += [f"fsck mux: {p}" for p in check_mux(stack.mux)]
            for name, fs in stack.filesystems.items():
                problems += [f"fsck {name}: {p}" for p in check_native_fs(fs)]
        return problems


# -- zipf_tiered ------------------------------------------------------------------


class ZipfTiered(Workload):
    """Paper scenario: PM+SSD+HDD under ``mirror``, skewed 16 KiB traffic.

    The population (64 MiB in 256 files) is larger than the PM tier
    (48 MiB) and five times the SCM cache (~12 MiB).  The hottest quarter
    of the files starts on the SSD and the rest on the HDD, so placement,
    OCC migration, mirrors and the native page caches decide the read
    tail.  Open loop: 300 Poisson arrivals per simulated second through
    one depth-8 ring; zipf (0.9) over files and blocks, 80/20 reads/writes
    with an fsync after each write, and 5% stats.  ``maintain_async`` runs
    every 64 events; the migration and mirror engines advance every event.

    The window ends before the PM tier fills: once it does, the policy
    drops its mirrors and OCC lock fallbacks stall the generator, and the
    tail depends on when that happens rather than on the seed's traffic.
    """

    name = "zipf_tiered"

    FILES = 256
    #: the hottest files (lowest zipf ranks) start on the SSD, the rest on HDD
    SSD_SHARE = 0.25
    FILE_BYTES = 256 * KIB
    IO = 16 * KIB
    RATE = 300.0
    WARM_OPS = 1000
    OPS = 16000
    MARK_EVERY = 256
    MAINTAIN_EVERY = 64
    META_SHARE = 0.05
    WRITE_SHARE = 0.2

    def setup(self) -> None:
        self.stack = build_stack(
            tiers=["pm", "ssd", "hdd"],
            capacities={"pm": 48 * MIB, "ssd": 128 * MIB, "hdd": 256 * MIB},
            policy="mirror",
        )
        self.clock = self.stack.clock
        mux = self.fs = self.stack.mux
        self.payloads = Payloads(self.rng.fork("payload"), self.IO)
        mux.mkdir("/z")
        self.paths = [f"/z/f{i}" for i in range(self.FILES)]
        self.handles = []
        for i, path in enumerate(self.paths):
            if i % 32 == 0:
                self.setup_rec.mark()
            data = self.payloads.take(self.FILE_BYTES)
            mux.close(mux.create(path))
            tier = "ssd" if i < self.FILES * self.SSD_SHARE else "hdd"
            mux.set_placement(path, self.stack.tier_ids[tier])
            mux.write_file(path, data)
            mux.set_placement(path, None)
            self.model.files[path] = bytearray(data)
            handle = mux.open(path)
            mux.fsync(handle)
            self.handles.append(handle)
        for fs in self.stack.filesystems.values():
            cache = getattr(fs, "page_cache", None)
            if cache is not None:
                cache.drop_clean()
        self.file_cdf = zipf_cdf(self.FILES, 0.9)
        self.block_cdf = zipf_cdf(self.FILE_BYTES // self.IO, 0.9)
        self.ring = mux.open_ring(depth=8)
        self._drive(self.rng.fork("warm"), self.WARM_OPS, self.setup_rec, no_span)
        self.settle()
        self.warm_errors = self.setup_rec.errors

    def stacks(self) -> list:
        return [self.stack]

    def rings(self) -> list:
        return [self.ring]

    def run(self, rec: Recorder, span: Callable = no_span) -> None:
        self._drive(self.rng.fork("window"), self.OPS, rec, span)

    def _drive(self, rng, count: int, rec: Recorder, span: Callable) -> None:
        mux = self.stack.mux
        clock = self.clock
        ring = self.ring
        model = self.model
        book = RingBook(rec, span)
        due = rec.start_ns = clock.now_ns
        for index in range(count):
            if index % self.MARK_EVERY == 0:
                rec.mark()
            due += exp_gap_ns(rng, self.RATE)
            fid = zipf_pick(rng, self.file_cdf)
            path = self.paths[fid]
            handle = self.handles[fid]
            off = zipf_pick(rng, self.block_cdf) * self.IO
            draw = rng.random()
            clock.advance_to(wake_ns(due))
            book.harvest(ring, ring.poll())
            if index and index % self.MAINTAIN_EVERY == 0:
                mux.maintain_async()
            mux.engine.tick()
            mux.mirrors.tick()
            where = f"{path}@{off}"
            if draw < self.META_SHARE:
                self.stat(path, due, rec)
            elif draw < self.META_SHARE + (1 - self.META_SHARE) * self.WRITE_SHARE:
                with span("bench"):
                    data = self.payloads.take(self.IO)
                    model.write(path, off, data)
                    rec.user_bytes += len(data)
                book.submitted(ring, ring.submit_write(handle, off, data), due, where)
                book.submitted(ring, ring.submit_fsync(handle), due, where)
            else:
                with span("bench"):
                    want = model.expect(path, off, self.IO)
                book.submitted(ring, ring.submit_read(handle, off, self.IO), due, where, want)
        book.harvest(ring, ring.drain())
        rec.end_ns = clock.now_ns
        rec.mark()


# -- fsync_smallfile --------------------------------------------------------------


class FsyncSmallfile(Workload):
    """Durability-heavy small-file traffic on SSD+HDD through the VFS.

    No PM tier, so no SCM cache, no mirrors, and no ``maintain`` calls, so
    no migration: page-cache dirty tracking, fsync flush, the journal and
    the allocator do the work.  1200 files of 1-16 KiB in twelve
    directories.  Paced closed loop of one client at 8000 ops per
    simulated second (about a fifth of its capacity); each request is one
    of create+write+fsync (10%), append 4 KiB+fsync (25%), whole-file read
    (27.5%), stat (20%), rename (7.5%) and unlink (10%).
    """

    name = "fsync_smallfile"
    prefix = "/mux"

    DIRS = 12
    FILES_PER_DIR = 100
    RATE = 8000.0
    WARM_TXNS = 500
    TXNS = 8000
    MARK_EVERY = 128
    #: cumulative request mix
    MIX = (
        (0.100, "create"),
        (0.350, "append"),
        (0.625, "read"),
        (0.825, "stat"),
        (0.900, "rename"),
        (1.000, "unlink"),
    )

    def setup(self) -> None:
        self.stack = build_stack(tiers=["ssd", "hdd"])
        self.clock = self.stack.clock
        self.fs = vfs = self.stack.vfs
        self.payloads = Payloads(self.rng.fork("payload"), 16 * KIB)
        self.dirs = [f"/d{i}" for i in range(self.DIRS)]
        self.names: List[str] = []
        self.next_id = 0
        rng = self.rng.fork("population")
        for d in self.dirs:
            vfs.mkdir("/mux" + d)
        for d in self.dirs:
            self.setup_rec.mark()
            for _ in range(self.FILES_PER_DIR):
                path = self._new_path(d)
                data = self.payloads.take(rng.randint(1, 16 * KIB))
                handle = vfs.create("/mux" + path)
                vfs.write(handle, 0, data)
                vfs.close(handle)
                self.model.files[path] = bytearray(data)
                self.names.append(path)
        self.stack.mux.sync()
        self._drive(self.rng.fork("warm"), self.WARM_TXNS, self.setup_rec, no_span)
        self.warm_errors = self.setup_rec.errors

    def stacks(self) -> list:
        return [self.stack]

    def run(self, rec: Recorder, span: Callable = no_span) -> None:
        self._drive(self.rng.fork("window"), self.TXNS, rec, span)

    def _new_path(self, d: str) -> str:
        path = f"{d}/f{self.next_id}"
        self.next_id += 1
        return path

    def _drive(self, rng, count: int, rec: Recorder, span: Callable) -> None:
        vfs = self.fs
        clock = self.clock
        model = self.model
        rec.start_ns = clock.now_ns
        pace = Pacer(clock, rng, self.RATE, rec)
        for index in range(count):
            if index % self.MARK_EVERY == 0:
                rec.mark()
            draw = rng.random()
            kind = next(k for edge, k in self.MIX if draw < edge)
            path = "?"
            try:
                if kind == "create":
                    d = self.dirs[rng.randint(0, self.DIRS - 1)]
                    with span("bench"):
                        path = self._new_path(d)
                        data = self.payloads.take(rng.randint(1, 16 * KIB))
                        model.files[path] = bytearray(data)
                        rec.user_bytes += len(data)
                    pace.due()
                    handle = vfs.create("/mux" + path)
                    pace.done("meta")
                    self.names.append(path)
                    pace.due()
                    vfs.write(handle, 0, data)
                    pace.done("write")
                    pace.due()
                    vfs.fsync(handle)
                    pace.done("fsync")
                    vfs.close(handle)
                    continue
                idx = rng.randint(0, len(self.names) - 1)
                path = self.names[idx]
                if kind == "append":
                    with span("bench"):
                        data = self.payloads.take(4 * KIB)
                        size = len(model.files[path])
                        model.write(path, size, data)
                        rec.user_bytes += len(data)
                    pace.due()
                    handle = vfs.open("/mux" + path)
                    vfs.write(handle, size, data)
                    pace.done("write")
                    pace.due()
                    vfs.fsync(handle)
                    pace.done("fsync")
                    vfs.close(handle)
                elif kind == "read":
                    pace.due()
                    handle = vfs.open("/mux" + path)
                    got = vfs.read(handle, 0, len(model.files[path]))
                    vfs.close(handle)
                    with span("bench"):
                        pace.check(got, bytes(model.files[path]), path)
                elif kind == "stat":
                    pace.due()
                    st = vfs.getattr("/mux" + path)
                    if st.size == len(model.files[path]):
                        pace.done("meta")
                    else:
                        rec.fail(f"stat size mismatch {path}")
                elif kind == "rename":
                    new = self._new_path(self.dirs[rng.randint(0, self.DIRS - 1)])
                    pace.due()
                    vfs.rename("/mux" + path, "/mux" + new)
                    pace.done("meta")
                    model.files[new] = model.files.pop(path)
                    self.names[idx] = new
                else:
                    pace.due()
                    vfs.unlink("/mux" + path)
                    pace.done("meta")
                    del model.files[path]
                    self.names[idx] = self.names[-1]
                    self.names.pop()
            except ReproError as exc:
                rec.fail(f"{kind} {path}: {exc!r}")
        rec.end_ns = clock.now_ns
        rec.mark()

# -- scm_hot ------------------------------------------------------------------------


class ScmHot(Workload):
    """The cache-fits case: a hot file pinned to HDD, served by the SCM cache.

    Three tiers with the SCM cache in write-back mode (16 MiB of cache on
    the 64 MiB PM tier).  One 12 MiB file pinned to the HDD is read whole
    during warm-up, so the window's 4 KiB random reads (90%) and
    overwrites (10%) hit the cache.  Absorbed overwrites are durable on PM
    and destage in the background, so the hot file needs no fsync; 4% of
    requests instead append a 256-byte record to a small PM-resident log
    and fsync it, and 15% stat the hot file.  Paced closed loop of one
    client through the VFS at 100k ops per simulated second (about a
    fifth of its capacity); no ``maintain`` calls.

    At that rate the overwrites outrun what the HDD can destage: the
    background destage backlog on the HDD grows through the window
    (``dev.hdd.utilization`` above 1) without slowing the client.
    """

    name = "scm_hot"
    prefix = "/mux"

    FILE_BYTES = 12 * MIB
    IO = 4 * KIB
    RECORD = 256
    RATE = 100000.0
    WARM_OPS = 4000
    OPS = 30000
    LOG_SHARE = 0.04
    STAT_SHARE = 0.15
    WRITE_SHARE = 0.1
    PATH = "/hot/data"
    LOG = "/hot/log"

    def setup(self) -> None:
        self.stack = build_stack(tiers=["pm", "ssd", "hdd"], cache_write_back=True)
        self.clock = self.stack.clock
        self.fs = vfs = self.stack.vfs
        mux = self.stack.mux
        self.payloads = Payloads(self.rng.fork("payload"), 1 * MIB)
        vfs.mkdir("/mux/hot")
        self.log = vfs.create("/mux" + self.LOG)
        self.model.files[self.LOG] = bytearray()
        handle = vfs.create("/mux" + self.PATH)
        mux.set_placement(self.PATH, self.stack.tier_ids["hdd"])
        data = self.payloads.take(self.FILE_BYTES)
        vfs.write(handle, 0, data)
        vfs.fsync(handle)
        self.model.files[self.PATH] = bytearray(data)
        self.handle = handle
        for off in range(0, self.FILE_BYTES, 64 * KIB):
            if off % (2 * MIB) == 0:
                self.setup_rec.mark()
            vfs.read(handle, off, 64 * KIB)
        # the SCM cache now holds the file; the HDD tier's DRAM copy made
        # while populating it is dropped, as after a drop_caches
        for fs in self.stack.filesystems.values():
            cache = getattr(fs, "page_cache", None)
            if cache is not None:
                cache.drop_clean()
        self._drive(self.rng.fork("warm"), self.WARM_OPS, self.setup_rec, no_span)
        self.warm_errors = self.setup_rec.errors

    def stacks(self) -> list:
        return [self.stack]

    def run(self, rec: Recorder, span: Callable = no_span) -> None:
        self._drive(self.rng.fork("window"), self.OPS, rec, span)

    def _drive(self, rng, count: int, rec: Recorder, span: Callable) -> None:
        vfs = self.fs
        clock = self.clock
        model = self.model
        handle = self.handle
        path = self.PATH
        blocks = self.FILE_BYTES // self.IO
        log_edge = self.LOG_SHARE
        stat_edge = log_edge + self.STAT_SHARE
        write_edge = stat_edge + self.WRITE_SHARE
        rec.start_ns = clock.now_ns
        pace = Pacer(clock, rng, self.RATE, rec)
        for index in range(count):
            if index % self.MARK_EVERY == 0:
                rec.mark()
            off = rng.randint(0, blocks - 1) * self.IO
            draw = rng.random()
            try:
                if draw < log_edge:
                    with span("bench"):
                        record = self.payloads.take(self.RECORD)
                        end = len(model.files[self.LOG])
                        model.write(self.LOG, end, record)
                        rec.user_bytes += len(record)
                    pace.due()
                    vfs.write(self.log, end, record)
                    pace.done("write")
                    pace.due()
                    vfs.fsync(self.log)
                    pace.done("fsync")
                elif draw < stat_edge:
                    pace.due()
                    vfs.getattr("/mux" + path)
                    pace.done("meta")
                elif draw < write_edge:
                    with span("bench"):
                        data = self.payloads.take(self.IO)
                        model.write(path, off, data)
                        rec.user_bytes += len(data)
                    pace.due()
                    vfs.write(handle, off, data)
                    pace.done("write")
                else:
                    pace.due()
                    got = vfs.read(handle, off, self.IO)
                    with span("bench"):
                        pace.check(got, model.expect(path, off, self.IO), f"{path}@{off}")
            except ReproError as exc:
                rec.fail(f"{path}@{off}: {exc!r}")
        rec.end_ns = clock.now_ns
        rec.mark()


# -- cluster_mix ----------------------------------------------------------------------


class ClusterMix(Workload):
    """Multi-tenant zipf load on a 4-shard cluster through ``ClusterRing``.

    Four single-tier HDD shards.  Two hot tenants hash to one shard and
    take half of the traffic; six more spread evenly.  Open loop: 50
    Poisson arrivals per simulated second, one depth-8 ring per tenant;
    16 KiB reads, fsync-bound writes (write then fsync, 25%), stats (16%)
    and rare cross-shard renames of small side files.  Soon after halfway,
    ``rebalance()`` sheds hot subtrees from the loaded shard (see
    ``_hot_shard_loaded``).  The only workload in which the cluster, the
    hash ring and the NFS wire work.

    Renames and the rebalance stand for a separate admin client: the
    arrival schedule stops while they run and resumes after them.  In the
    one generator thread they would otherwise hold up every tenant's
    arrivals for 0.1-0.8 simulated seconds, and the stats among those
    arrivals, a seed-dependent few percent of all metadata samples, would
    decide ``sim_meta_p99_us``.
    """

    name = "cluster_mix"

    SHARDS = 4
    HOT_TENANTS = 2
    COLD_TENANTS = 6
    FILES = 4
    FILE_BYTES = 512 * KIB
    SIDE_FILES = 4
    SIDE_BYTES = 64 * KIB
    IO = 16 * KIB
    RATE = 50.0
    WARM_OPS = 1000
    OPS = 12000
    HOT_SHARE = 0.5
    STAT_SHARE = 0.16
    RENAME_SHARE = 0.00025
    WRITE_SHARE = 0.25

    def setup(self) -> None:
        built = build_cluster(
            shards=self.SHARDS, tiers=["hdd"], capacities={"hdd": 256 * MIB}
        )
        self.built = built
        self.clock = built.clock
        cm = self.fs = built.mux
        self.payloads = Payloads(self.rng.fork("payload"), self.IO)
        hot, _ = colocated_tenant_names(cm.ring, "tenants", self.HOT_TENANTS)
        cold = balanced_tenant_names(cm.ring, "tenants", self.COLD_TENANTS)
        self.tenants = hot + cold
        cm.mkdir("/tenants")
        self.paths: List[List[str]] = []
        for t in self.tenants:
            self.setup_rec.mark()
            cm.mkdir(f"/tenants/{t}")
            paths = [f"/tenants/{t}/f{i}" for i in range(self.FILES)]
            for path in paths:
                data = self.payloads.take(self.FILE_BYTES)
                cm.write_file(path, data)
                self.model.files[path] = bytearray(data)
            self.paths.append(paths)
        self.side: List[str] = []
        for i in range(self.SIDE_FILES):
            path = f"/tenants/{self.tenants[i % len(self.tenants)]}/side{i}"
            data = self.payloads.take(self.SIDE_BYTES)
            cm.write_file(path, data)
            self.model.files[path] = bytearray(data)
            self.side.append(path)
        cm.sync()
        self._open()
        self.rings_ = [cm.open_ring(depth=8) for _ in self.tenants]
        self.file_cdf = zipf_cdf(self.FILES, 0.9)
        self._drive(
            self.rng.fork("warm"), self.WARM_OPS, self.setup_rec, no_span, rebalance=False)
        self.warm_errors = self.setup_rec.errors

    def _open(self) -> None:
        self.handles = [[self.fs.open(p) for p in paths] for paths in self.paths]

    def _close(self) -> None:
        for handles in self.handles:
            for h in handles:
                self.fs.close(h)

    def stacks(self) -> list:
        return self.built.shards

    def rings(self) -> list:
        return self.rings_

    def cluster(self):
        return self.built.mux

    def run(self, rec: Recorder, span: Callable = no_span) -> None:
        self._drive(self.rng.fork("window"), self.OPS, rec, span, rebalance=True)

    def _drive(self, rng, count: int, rec: Recorder, span: Callable, rebalance: bool) -> None:
        cm = self.fs
        clock = self.clock
        model = self.model
        book = RingBook(rec, span)
        ntenants = len(self.tenants)
        stat_edge = self.STAT_SHARE
        rename_edge = stat_edge + self.RENAME_SHARE
        write_edge = rename_edge + self.WRITE_SHARE
        blocks = self.FILE_BYTES // self.IO
        pending = rebalance
        due = rec.start_ns = clock.now_ns
        for index in range(count):
            if index % self.MARK_EVERY == 0:
                rec.mark()
            due += exp_gap_ns(rng, self.RATE)
            if rng.random() < self.HOT_SHARE:
                tid = rng.randint(0, self.HOT_TENANTS - 1)
            else:
                tid = rng.randint(self.HOT_TENANTS, ntenants - 1)
            fid = zipf_pick(rng, self.file_cdf)
            off = rng.randint(0, blocks - 1) * self.IO
            draw = rng.random()
            ring = self.rings_[tid]
            path = self.paths[tid][fid]
            handle = self.handles[tid][fid]
            clock.advance_to(wake_ns(due))
            for r in self.rings_:
                book.harvest(r, r.poll())
            if pending and index >= count // 2 and self._hot_shard_loaded():
                pending = False
                # moved files are unlinked on their old shard: reopen
                paused = clock.now_ns
                self._close()
                cm.rebalance()
                self._open()
                due += clock.now_ns - paused
                continue
            where = f"{path}@{off}"
            if draw < stat_edge:
                self.stat(path, due, rec)
            elif draw < rename_edge:
                rec.lag.append(clock.now_ns - due)
                paused = clock.now_ns
                self._rename(rng, rec, due)
                due += clock.now_ns - paused
            elif draw < write_edge:
                with span("bench"):
                    data = self.payloads.take(self.IO)
                    model.write(path, off, data)
                    rec.user_bytes += len(data)
                book.submitted(ring, ring.submit_write(handle, off, data), due, where)
                book.submitted(ring, ring.submit_fsync(handle), due, where)
            else:
                with span("bench"):
                    want = model.expect(path, off, self.IO)
                book.submitted(ring, ring.submit_read(handle, off, self.IO), due, where, want)
        for r in self.rings_:
            book.harvest(r, r.drain())
        rec.end_ns = clock.now_ns
        rec.mark()

    def _hot_shard_loaded(self) -> bool:
        """Whether ``rebalance()`` would now shed from the hot tenants' shard.

        It acts only when the most loaded shard's pressure gauge reads more
        than twice its least loaded peer's (and above 0.1).  At this load
        the gauges are near zero most of the time, so at a fixed arrival
        it picks a shard, or none, by chance.
        """
        cm = self.fs
        hot = cm.subtree_owner(f"tenants/{self.tenants[0]}")
        loads = cm.shard_loads()
        coldest = min(load for shard, load in loads.items() if shard != hot)
        return (max(loads, key=lambda s: (loads[s], -s)) == hot
                and loads[hot] > max(coldest, 0.05) * 2.0)

    def _rename(self, rng, rec: Recorder, due: int) -> None:
        """Move one side file to a tenant that lives on another shard."""
        cm = self.fs
        i = rng.randint(0, len(self.side) - 1)
        old = self.side[i]
        src_shard = cm.subtree_owner(cm.subtree_key(old))
        others = [t for t in self.tenants if cm.subtree_owner(f"tenants/{t}") != src_shard]
        dst = others[rng.randint(0, len(others) - 1)]
        new = f"/tenants/{dst}/side{i}.{rng.randint(0, 1 << 30)}"
        try:
            cm.rename(old, new)
        except ReproError as exc:
            rec.fail(f"rename {old}: {exc!r}")
            return
        rec.done("meta", self.clock.now_ns - due)
        self.model.files[new] = self.model.files.pop(old)
        self.side[i] = new


WORKLOADS = {cls.name: cls for cls in (ZipfTiered, FsyncSmallfile, ScmHot, ClusterMix)}
