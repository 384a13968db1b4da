"""DRAM page cache used by the block-device file systems (XFS, Ext4).

The paper's §2.5 observes that "each file system may use DRAM as its page
cache [but] the cache cannot be shared across devices" — this class is that
per-file-system DRAM cache.  NOVA does not instantiate one (DAX bypasses
the page cache); Mux's *shared* SCM cache is a separate component built in
``repro.core.cache``.

Write-back semantics: dirty pages accumulate and are flushed on fsync or
when evicted by LRU pressure.  DRAM hits charge only a copy cost.

One ``OrderedDict`` is the LRU over every cached page.  A per-inode index
(``ino -> {file_block: Page}``) sits next to it, so fsync, unlink and
truncate cost O(pages of that inode) instead of O(cache).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.sim.clock import SimClock
from repro.sim.stats import CounterSet

#: Cost of copying one 4 KiB page from DRAM (~10 GB/s effective + lookup).
DRAM_PAGE_COPY_NS = 400

PageKey = Tuple[int, int]  # (ino, file block index)
#: (ino, file_block, data) -> keep?  A ``False`` return means the write
#: failed under a keep-dirty policy and the page must stay cached; any
#: other return (including None) lets the cache dispose of the page.
WritebackFn = Callable[[int, int, bytes], Optional[bool]]


class Page:
    __slots__ = ("data", "dirty")

    def __init__(self, data: bytes, dirty: bool) -> None:
        self.data = data
        self.dirty = dirty


class PageCache:
    """Fixed-capacity LRU write-back page cache."""

    def __init__(
        self,
        clock: SimClock,
        capacity_pages: int,
        page_size: int,
        writeback: WritebackFn,
    ) -> None:
        if capacity_pages <= 0:
            raise ValueError("page cache needs positive capacity")
        self.clock = clock
        self.capacity_pages = capacity_pages
        self.page_size = page_size
        self._writeback = writeback
        self._pages: "OrderedDict[PageKey, Page]" = OrderedDict()
        #: the same pages by inode; holds exactly the keys of ``_pages``
        self._by_ino: Dict[int, Dict[int, Page]] = {}
        self.stats = CounterSet()

    # -- lookup ------------------------------------------------------------

    def get(self, ino: int, file_block: int) -> Optional[bytes]:
        """Cached page contents or None; a hit charges the DRAM copy cost."""
        key = (ino, file_block)
        page = self._pages.get(key)
        if page is None:
            self.stats.add("miss")
            return None
        self._pages.move_to_end(key)
        self.clock.advance_ns(DRAM_PAGE_COPY_NS)
        self.stats.add("hit")
        return page.data

    def contains(self, ino: int, file_block: int) -> bool:
        return (ino, file_block) in self._pages

    def span_cached(self, ino: int, first_block: int, count: int) -> int:
        """Length of the contiguous cached prefix of the span (no charges)."""
        pages = self._pages
        n = 0
        while n < count and (ino, first_block + n) in pages:
            n += 1
        return n

    def get_span(
        self, ino: int, first_block: int, count: int, out: bytearray, out_off: int
    ) -> None:
        """Copy ``count`` consecutive cached pages into ``out``.

        Every page must be cached (check with :meth:`span_cached` first).
        Timing-equivalent to ``count`` :meth:`get` calls — same LRU touch
        order, same hit stats, same total copy cost — but one clock charge
        and one slice copy per page instead of per-call overhead.
        """
        if count <= 0:
            return
        pages = self._pages
        ps = self.page_size
        pos = out_off
        for i in range(count):
            key = (ino, first_block + i)
            page = pages[key]
            pages.move_to_end(key)
            out[pos : pos + ps] = page.data
            pos += ps
        self.clock.advance_ns(count * DRAM_PAGE_COPY_NS)
        self.stats.add("hit", count)

    # -- insert / update -------------------------------------------------------

    def put(self, ino: int, file_block: int, data: bytes, dirty: bool) -> None:
        """Insert or overwrite a page; may trigger LRU eviction."""
        if len(data) != self.page_size:
            raise ValueError(
                f"page must be exactly {self.page_size} bytes, got {len(data)}"
            )
        key = (ino, file_block)
        existing = self._pages.get(key)
        if existing is not None:
            existing.data = data
            existing.dirty = existing.dirty or dirty
            self._pages.move_to_end(key)
        else:
            self._insert(key, Page(data, dirty))
            self.stats.add("insert")
        self.clock.advance_ns(DRAM_PAGE_COPY_NS)
        self._evict_to_capacity()

    def put_span(self, ino: int, first_block: int, data, dirty: bool) -> None:
        """Insert consecutive pages from block-aligned ``data``.

        Timing-equivalent to one :meth:`put` per page: inserts happen in
        ascending order with the eviction check after each insert (so LRU
        victim sequence is preserved exactly), but the copy cost is charged
        in one clock advance.
        """
        ps = self.page_size
        if len(data) == 0 or len(data) % ps:
            raise ValueError(
                f"span must be a positive multiple of {ps} bytes, got {len(data)}"
            )
        count = len(data) // ps
        src = memoryview(data)
        self.clock.advance_ns(count * DRAM_PAGE_COPY_NS)
        for i in range(count):
            key = (ino, first_block + i)
            block = bytes(src[i * ps : (i + 1) * ps])
            existing = self._pages.get(key)
            if existing is not None:
                existing.data = block
                existing.dirty = existing.dirty or dirty
                self._pages.move_to_end(key)
            else:
                self._insert(key, Page(block, dirty))
                self.stats.add("insert")
            self._evict_to_capacity()

    def _insert(self, key: PageKey, page: Page) -> None:
        """Add a page at the MRU end of the LRU and to its inode's index."""
        self._pages[key] = page
        ino, fb = key
        index = self._by_ino.get(ino)
        if index is None:
            index = self._by_ino[ino] = {}
        index[fb] = page

    def _unindex(self, ino: int, fbs: Iterable[int]) -> None:
        """Drop ``fbs`` of ``ino`` from the LRU and the index."""
        index = self._by_ino[ino]
        pages = self._pages
        for fb in fbs:
            del index[fb]
            del pages[(ino, fb)]
        if not index:
            del self._by_ino[ino]

    def _evict_to_capacity(self) -> None:
        # bound the scan so a cache full of unevictable pages (every
        # writeback refused under a keep-dirty policy) degrades to running
        # over capacity instead of livelocking
        attempts = len(self._pages)
        while len(self._pages) > self.capacity_pages and attempts > 0:
            attempts -= 1
            key, page = self._pages.popitem(last=False)
            ino, fb = key
            index = self._by_ino[ino]
            del index[fb]
            if not index:
                del self._by_ino[ino]
            self.stats.add("evict")
            if page.dirty:
                self.stats.add("evict_dirty")
                try:
                    kept = self._writeback(ino, fb, page.data) is False
                except Exception:
                    # a transient write error propagates to the caller's
                    # retry machinery; the page stays cached and dirty as
                    # the next victim instead of vanishing untracked
                    self._insert(key, page)
                    self._pages.move_to_end(key, last=False)
                    raise
                if kept:
                    # the FS kept the page dirty (failed write under a
                    # keep-dirty policy): reinsert at the MRU end and try
                    # the next victim
                    self.stats.add("evict_kept")
                    self._insert(key, page)

    # -- flushing ---------------------------------------------------------------

    def flush_inode(self, ino: int) -> int:
        """Write back all dirty pages of one inode in file-block order;
        returns pages flushed."""
        flushed = 0
        for fb, page in sorted(self._by_ino.get(ino, {}).items()):
            if page.dirty:
                if self._writeback(ino, fb, page.data) is False:
                    continue  # write refused; the page stays dirty
                page.dirty = False
                flushed += 1
        self.stats.add("fsync_pages", flushed)
        return flushed

    def flush_all(self) -> int:
        """Write back every dirty page."""
        flushed = 0
        for key, page in self._pages.items():
            if page.dirty:
                if self._writeback(key[0], key[1], page.data) is False:
                    continue  # write refused; the page stays dirty
                page.dirty = False
                flushed += 1
        return flushed

    def dirty_items(self, ino: int) -> List[Tuple[int, bytes]]:
        """(file_block, data) for every dirty page of ``ino``, sorted.

        Used by the journaled file systems to batch writeback into large
        contiguous device writes instead of page-at-a-time callbacks.
        """
        index = self._by_ino.get(ino)
        if not index:
            return []
        items = [(fb, page.data) for fb, page in index.items() if page.dirty]
        items.sort()
        return items

    def mark_clean(self, ino: int, file_blocks: Iterable[int]) -> None:
        """Clear the dirty bit on specific pages after a batched writeback."""
        index = self._by_ino.get(ino)
        if not index:
            return
        for fb in file_blocks:
            page = index.get(fb)
            if page is not None:
                page.dirty = False

    def invalidate_inode(self, ino: int) -> None:
        """Drop all pages of an inode (unlink/truncate); dirty pages are lost."""
        pages = self._pages
        for fb in self._by_ino.pop(ino, ()):
            del pages[(ino, fb)]

    def invalidate_range(self, ino: int, first_block: int, count: int) -> None:
        """Drop pages of ``ino`` in [first_block, first_block+count)."""
        index = self._by_ino.get(ino)
        if index:
            end = first_block + count
            self._unindex(ino, [fb for fb in index if first_block <= fb < end])

    def invalidate_from(self, ino: int, first_block: int) -> None:
        """Drop pages of ``ino`` at or beyond ``first_block`` (truncate)."""
        index = self._by_ino.get(ino)
        if index:
            self._unindex(ino, [fb for fb in index if fb >= first_block])

    def drop_clean(self) -> None:
        """Drop every page, dirty ones included: their data is discarded.

        Models the page cache's fate at a crash.  A caller that wants only
        clean pages gone must fsync (or sync) first.
        """
        self._pages.clear()
        self._by_ino.clear()

    # -- introspection ------------------------------------------------------------

    @property
    def cached_pages(self) -> int:
        return len(self._pages)

    @property
    def dirty_pages(self) -> int:
        return sum(1 for p in self._pages.values() if p.dirty)

    def hit_ratio(self) -> float:
        hits = self.stats.get("hit")
        total = hits + self.stats.get("miss")
        return hits / total if total else 0.0
