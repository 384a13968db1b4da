"""The per-inode indexes are observationally identical to the whole-structure
scans they replace.

``ScanPageCache`` is the page cache as it was before its ``ino -> pages``
index: every per-inode operation scans the whole LRU.  Seeded random
sequences drive it and the indexed ``PageCache`` side by side, with
writebacks that succeed, refuse (keep-dirty), drop the page after marking
it clean, or raise a transient error.  After every step both must show
the same LRU order, page contents and dirty bits, ``dirty_items``,
writeback calls, clock and stats, and the index must hold exactly the
pages of the LRU.  ``ScanLruTieringPolicy`` does the same for the
policy's recency map: ``forget`` scans it, and ``plan_migrations`` must
return identical orders.
"""

import random
from typing import Iterable, List, Optional, Tuple

import pytest

from repro.core.policies import CHUNK_BLOCKS, LruTieringPolicy
from repro.core.policy import FileView, TierState
from repro.devices.profile import DeviceKind
from repro.errors import DeviceIoError
from repro.fscommon.pagecache import DRAM_PAGE_COPY_NS, Page, PageCache
from repro.sim.clock import SimClock

PAGE = 64  # any size works; small pages keep the test fast
INOS = (1, 2, 3, 4)
FILE_BLOCKS = 16


class ScanPageCache(PageCache):
    """The scan-based page cache, kept as a reference.

    Overrides every method the index changed with its pre-index body, so
    each per-inode operation scans the whole LRU and ``_by_ino`` stays
    unused.  Two deliberate behaviour changes of the indexed cache are
    folded in, so that only the scans are under test: an eviction whose
    writeback raises puts the victim back at the LRU head (instead of
    losing it), and ``flush_inode`` writes in file-block order (instead of
    LRU order).
    """

    def put(self, ino: int, file_block: int, data: bytes, dirty: bool) -> None:
        key = (ino, file_block)
        existing = self._pages.get(key)
        if existing is not None:
            existing.data = data
            existing.dirty = existing.dirty or dirty
            self._pages.move_to_end(key)
        else:
            self._pages[key] = Page(data, dirty)
            self.stats.add("insert")
        self.clock.advance_ns(DRAM_PAGE_COPY_NS)
        self._evict_to_capacity()

    def put_span(self, ino: int, first_block: int, data, dirty: bool) -> None:
        ps = self.page_size
        count = len(data) // ps
        self.clock.advance_ns(count * DRAM_PAGE_COPY_NS)
        for i in range(count):
            key = (ino, first_block + i)
            block = bytes(data[i * ps : (i + 1) * ps])
            existing = self._pages.get(key)
            if existing is not None:
                existing.data = block
                existing.dirty = existing.dirty or dirty
                self._pages.move_to_end(key)
            else:
                self._pages[key] = Page(block, dirty)
                self.stats.add("insert")
            self._evict_to_capacity()

    def _evict_to_capacity(self) -> None:
        attempts = len(self._pages)
        while len(self._pages) > self.capacity_pages and attempts > 0:
            attempts -= 1
            key, page = self._pages.popitem(last=False)
            self.stats.add("evict")
            if page.dirty:
                self.stats.add("evict_dirty")
                try:
                    kept = self._writeback(key[0], key[1], page.data) is False
                except Exception:
                    self._pages[key] = page
                    self._pages.move_to_end(key, last=False)
                    raise
                if kept:
                    self.stats.add("evict_kept")
                    self._pages[key] = page

    def flush_inode(self, ino: int) -> int:
        flushed = 0
        for key, page in sorted(
            (k, p) for k, p in self._pages.items() if k[0] == ino
        ):
            if page.dirty:
                if self._writeback(key[0], key[1], page.data) is False:
                    continue
                page.dirty = False
                flushed += 1
        self.stats.add("fsync_pages", flushed)
        return flushed

    def dirty_items(self, ino: int) -> List[Tuple[int, bytes]]:
        items = [
            (key[1], page.data)
            for key, page in self._pages.items()
            if key[0] == ino and page.dirty
        ]
        items.sort()
        return items

    def mark_clean(self, ino: int, file_blocks: Iterable[int]) -> None:
        for fb in file_blocks:
            page = self._pages.get((ino, fb))
            if page is not None:
                page.dirty = False

    def invalidate_inode(self, ino: int) -> None:
        for key in [k for k in self._pages if k[0] == ino]:
            del self._pages[key]

    def invalidate_range(self, ino: int, first_block: int, count: int) -> None:
        if count >= len(self._pages):
            keys = [
                k
                for k in self._pages
                if k[0] == ino and first_block <= k[1] < first_block + count
            ]
        else:
            keys = [
                (ino, fb)
                for fb in range(first_block, first_block + count)
                if (ino, fb) in self._pages
            ]
        for key in keys:
            del self._pages[key]

    def invalidate_from(self, ino: int, first_block: int) -> None:
        for key in [k for k in self._pages if k[0] == ino and k[1] >= first_block]:
            del self._pages[key]

    def drop_clean(self) -> None:
        for key in [k for k, p in self._pages.items()]:
            del self._pages[key]


class ScriptedWriteback:
    """Writeback callback whose outcomes come from a seeded stream.

    Both caches get one each, seeded alike, so as long as they call it in
    the same order they see the same outcomes.
    """

    OUTCOMES = ("ok", "ok", "ok", "keep", "drop", "raise")

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.calls: List[Tuple[int, int, bytes]] = []
        self.cache = None

    def __call__(self, ino: int, fb: int, data: bytes) -> Optional[bool]:
        self.calls.append((ino, fb, data))
        outcome = self.rng.choice(self.OUTCOMES)
        if outcome == "keep":
            return False
        if outcome == "drop":
            # as the journaled FSes' failure policy does
            self.cache.mark_clean(ino, [fb])
        if outcome == "raise":
            raise DeviceIoError("transient write error", transient=True)
        return None


def make_pair(seed: int, capacity: int):
    caches = []
    for cls in (ScanPageCache, PageCache):
        writeback = ScriptedWriteback(seed)
        cache = cls(SimClock(), capacity, PAGE, writeback)
        writeback.cache = cache
        caches.append(cache)
    return caches


def random_step(rng: random.Random):
    """One (method, args) step over a small space of inodes and blocks."""
    ino = rng.choice(INOS)
    fb = rng.randrange(FILE_BLOCKS)
    count = rng.randint(1, 6)
    tag = rng.randrange(256)
    op = rng.choices(
        (
            "put", "put_span", "get", "get_span", "mark_clean",
            "invalidate_inode", "invalidate_range", "invalidate_from",
            "drop_clean", "flush_inode", "flush_all",
        ),
        weights=(30, 15, 20, 10, 6, 3, 5, 4, 1, 5, 2),
    )[0]
    if op == "put":
        return op, (ino, fb, bytes([tag]) * PAGE, rng.random() < 0.6)
    if op == "put_span":
        data = b"".join(bytes([(tag + i) % 256]) * PAGE for i in range(count))
        return op, (ino, fb, data, rng.random() < 0.6)
    if op in ("get", "invalidate_from"):
        return op, (ino, fb)
    if op in ("get_span", "invalidate_range"):
        return op, (ino, fb, count)
    if op == "mark_clean":
        return op, (ino, rng.sample(range(FILE_BLOCKS), count))
    if op in ("invalidate_inode", "flush_inode"):
        return op, (ino,)
    return op, ()


def apply(cache, op: str, args):
    """Run one step; returns (result, raised exception type)."""
    try:
        if op == "get_span":
            ino, fb, count = args
            n = cache.span_cached(ino, fb, count)
            out = bytearray(n * PAGE)
            cache.get_span(ino, fb, n, out, 0)
            return (n, bytes(out)), None
        return getattr(cache, op)(*args), None
    except DeviceIoError:
        return None, DeviceIoError


def assert_same(ref: ScanPageCache, new: PageCache) -> None:
    assert list(ref._pages) == list(new._pages)
    assert [(p.data, p.dirty) for p in ref._pages.values()] == [
        (p.data, p.dirty) for p in new._pages.values()
    ]
    for ino in INOS:
        assert ref.dirty_items(ino) == new.dirty_items(ino)
    assert ref._writeback.calls == new._writeback.calls
    assert ref.clock.now_ns == new.clock.now_ns
    assert ref.stats.snapshot() == new.stats.snapshot()
    # the index holds exactly the LRU's pages (the same objects), and no
    # inode keeps an empty entry behind
    indexed = {
        (ino, fb): page for ino, pages in new._by_ino.items() for fb, page in pages.items()
    }
    assert indexed.keys() == new._pages.keys()
    assert all(indexed[key] is page for key, page in new._pages.items())
    assert all(new._by_ino.values())


@pytest.mark.parametrize("seed", range(24))
def test_indexed_page_cache_matches_the_scans(seed):
    rng = random.Random(seed)
    ref, new = make_pair(seed, capacity=rng.randint(2, 12))
    for _ in range(400):
        op, args = random_step(rng)
        assert apply(ref, op, args) == apply(new, op, args), (op, args)
        assert_same(ref, new)


def test_every_outcome_is_exercised():
    """The random driver reaches each writeback outcome, including raises
    out of eviction and keep-dirty reinserts."""
    raised = kept = 0
    for seed in range(24):
        rng = random.Random(seed)
        _, new = make_pair(seed, capacity=rng.randint(2, 12))
        for _ in range(400):
            op, args = random_step(rng)
            _, exc = apply(new, op, args)
            raised += exc is not None and op in ("put", "put_span")
        kept += new.stats.get("evict_kept")
    assert raised > 0
    assert kept > 0


class ScanLruTieringPolicy(LruTieringPolicy):
    """``forget`` as a scan of the whole recency map, kept as a reference."""

    def forget(self, ino: int) -> None:
        for key in [k for k in self._recency if k[0] == ino]:
            del self._recency[key]
        self._promotions = [o for o in self._promotions if o.ino != ino]


def tiers(rng: random.Random) -> List[TierState]:
    total = 64 * CHUNK_BLOCKS * 4096
    kinds = (DeviceKind.PERSISTENT_MEMORY, DeviceKind.SOLID_STATE, DeviceKind.HARD_DISK)
    return [
        TierState(
            tier_id=t,
            name=f"t{t}",
            rank=t,
            kind=kinds[t],
            free_bytes=int(total * rng.uniform(0.0, 0.6)),
            total_bytes=total,
        )
        for t in range(3)
    ]


def views(rng: random.Random) -> List[FileView]:
    out = []
    for ino in range(1, 9):
        chunks = rng.randint(1, 6)
        runs = [(c * CHUNK_BLOCKS, CHUNK_BLOCKS, rng.randrange(3)) for c in range(chunks)]
        out.append(FileView(ino, f"/f{ino}", chunks * CHUNK_BLOCKS * 4096, runs=runs))
    return out


@pytest.mark.parametrize("seed", range(12))
def test_chunk_index_matches_the_recency_scan(seed):
    rng = random.Random(seed)
    kwargs = dict(max_orders_per_plan=rng.choice((4, 64)), promote_on_access=seed % 2 == 0)
    ref = ScanLruTieringPolicy(**kwargs)
    new = LruTieringPolicy(**kwargs)
    for step in range(300):
        roll = rng.random()
        if roll < 0.75:
            args = (
                rng.randint(1, 8),
                rng.randrange(6 * CHUNK_BLOCKS),
                rng.randint(1, 2 * CHUNK_BLOCKS),
                rng.randrange(3),
                rng.choice(("read", "write")),
                float(step),
            )
            ref.on_access(*args)
            new.on_access(*args)
        elif roll < 0.9:
            ino = rng.randint(1, 9)
            ref.forget(ino)
            new.forget(ino)
        else:
            state_rng = random.Random(rng.random())
            t, v = tiers(state_rng), views(state_rng)
            assert ref.plan_migrations(t, v) == new.plan_migrations(t, v)
        assert list(ref._recency.items()) == list(new._recency.items())
        assert ref._promotions == new._promotions
        indexed = {(ino, c) for ino, chunks in new._chunks.items() for c in chunks}
        assert indexed == new._recency.keys()
