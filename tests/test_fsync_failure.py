"""Fsync-failure semantics: errseq_t once-per-fd reporting and the
per-FS dirty-page disposition when writeback hits a persistent error.

The matrix under test (mirrors the kernels the paper benchmarks):

| FS   | policy  | after a persistent writeback failure              |
|------|---------|---------------------------------------------------|
| ext4 | clean   | pages marked clean + forgotten; data silently gone |
| XFS  | keep    | pages stay dirty, bounded retries, then dropped    |
| NOVA | none    | DAX: errors surface at write(); nothing to lose    |

Plus the Mux-level ledger: a lost cache destage latches EIO on the
collective inode, each fd observes it once, and fsck reports the lost
intervals.
"""

import errno

import pytest

from repro.core.policy import MigrationOrder
from repro.errors import DeviceIoError, TierUnavailable, WritebackError
from repro.stack import build_stack
from repro.tools.fsck import check_native_fs, reconcile_cache
from repro.vfs.interface import OpenFlags

BS = 4096


def fail_data_writes(fs):
    """Latch a persistent media error on every data-region write.

    Journal-region writes (blocks below ``_data_base``) still succeed, so
    metadata commits keep working — only page writeback fails, which is
    the scenario the errseq machinery exists for.
    """
    real = type(fs.device).write_blocks

    def failing(block_no, data):
        if block_no >= fs._data_base:
            raise DeviceIoError(
                f"latched media error at block {block_no}", transient=False
            )
        return real(fs.device, block_no, data)

    fs.device.write_blocks = failing


def heal(fs):
    del fs.device.write_blocks


def dirty_file(fs, path="/f", blocks=2):
    handle = fs.create(path)
    fs.write(handle, 0, b"D" * (blocks * BS))
    return handle


class TestExt4CleanPolicy:
    def test_failing_fsync_reports_and_drops(self, ext4):
        handle = dirty_file(ext4)
        fail_data_writes(ext4)
        with pytest.raises(DeviceIoError):
            ext4.fsync(handle)
        # mark-clean-and-forget: the pages are gone, the loss is on record
        assert ext4.page_cache.dirty_items(handle.ino) == []
        assert ext4.lost_intervals(handle.ino) == [(handle.ino, 0, 2)]
        assert ext4.stats.get("wb_dropped") == 2
        assert ext4.stats.get("wb_errors") == 1

    def test_same_fd_sees_error_only_through_the_failure(self, ext4):
        handle = dirty_file(ext4)
        fail_data_writes(ext4)
        with pytest.raises(DeviceIoError):
            ext4.fsync(handle)
        heal(ext4)
        # the failing fsync itself was this fd's one observation; with the
        # pages forgotten there is nothing left to write and no new error
        ext4.fsync(handle)

    def test_other_preexisting_fd_sees_eio_exactly_once(self, ext4):
        handle = dirty_file(ext4)
        other = ext4.open("/f")
        fail_data_writes(ext4)
        with pytest.raises(DeviceIoError):
            ext4.fsync(handle)
        heal(ext4)
        with pytest.raises(WritebackError) as excinfo:
            ext4.fsync(other)
        assert excinfo.value.errno == errno.EIO
        ext4.fsync(other)  # errseq advanced: seen once, not twice

    def test_fd_opened_after_failure_sees_nothing(self, ext4):
        handle = dirty_file(ext4)
        fail_data_writes(ext4)
        with pytest.raises(DeviceIoError):
            ext4.fsync(handle)
        heal(ext4)
        late = ext4.open("/f")
        ext4.fsync(late)  # sampled the errseq at open: no stale error

    def test_fsck_reports_the_silent_loss(self, ext4):
        handle = dirty_file(ext4)
        fail_data_writes(ext4)
        with pytest.raises(DeviceIoError):
            ext4.fsync(handle)
        heal(ext4)
        problems = check_native_fs(ext4)
        assert any("never persisted" in p for p in problems)

    def test_data_is_really_gone_after_crash(self, ext4):
        handle = dirty_file(ext4)
        fail_data_writes(ext4)
        with pytest.raises(DeviceIoError):
            ext4.fsync(handle)
        heal(ext4)
        ext4.fsync(handle)  # commits the (now dataless) metadata
        ext4.crash()
        ext4.recover()
        handle = ext4.open("/f")
        # the extents exist but the media never saw the bytes
        assert ext4.read(handle, 0, 2 * BS) == bytes(2 * BS)

    def test_o_sync_write_reports_like_fsync(self, ext4):
        handle = dirty_file(ext4, path="/osync")
        ext4.fsync(handle)
        ext4.close(handle)
        handle = ext4.open("/osync", OpenFlags.RDWR | OpenFlags.SYNC)
        fail_data_writes(ext4)
        with pytest.raises(DeviceIoError):
            ext4.write(handle, 0, b"S" * BS)
        heal(ext4)
        ext4.write(handle, BS, b"T" * BS)  # fd already observed the error


class TestXfsKeepPolicy:
    def test_pages_stay_dirty_and_retry(self, xfs):
        handle = dirty_file(xfs)
        fail_data_writes(xfs)
        with pytest.raises(DeviceIoError):
            xfs.fsync(handle)
        # keep-dirty: nothing dropped yet, nothing lost yet
        assert len(xfs.page_cache.dirty_items(handle.ino)) == 2
        assert xfs.lost_intervals() == []
        assert xfs.stats.get("wb_kept_dirty") == 2
        heal(xfs)
        xfs.fsync(handle)  # the retry lands the data
        assert xfs.page_cache.dirty_items(handle.ino) == []
        assert xfs._wb_retries == {}  # success resets the bound
        xfs.crash()
        xfs.recover()
        handle = xfs.open("/f")
        assert xfs.read(handle, 0, 2 * BS) == b"D" * (2 * BS)

    def test_retry_bound_then_drop(self, xfs):
        handle = dirty_file(xfs, blocks=1)
        fail_data_writes(xfs)
        # wb_retry_limit=3 keep-dirty rounds, the 4th failure drops
        for _ in range(xfs.wb_retry_limit + 1):
            with pytest.raises(DeviceIoError):
                xfs.fsync(handle)
        assert xfs.page_cache.dirty_items(handle.ino) == []
        assert xfs.lost_intervals(handle.ino) == [(handle.ino, 0, 1)]
        assert xfs.stats.get("wb_dropped") == 1
        # with the pages gone, fsync succeeds even on the dead device
        xfs.fsync(handle)

    def test_transient_eviction_error_keeps_the_victim_dirty(self, xfs):
        xfs.page_cache.capacity_pages = 4
        victim = dirty_file(xfs, path="/victim", blocks=1)
        real = type(xfs.device).write_blocks
        failures = []

        def fail_first_data_write(block_no, data):
            if block_no >= xfs._data_base and not failures:
                failures.append(block_no)
                raise DeviceIoError("transient write error", transient=True)
            return real(xfs.device, block_no, data)

        xfs.device.write_blocks = fail_first_data_write
        other = xfs.create("/other")
        # the fifth page evicts /victim's, whose writeback fails once
        with pytest.raises(DeviceIoError):
            xfs.write(other, 0, b"O" * (4 * BS))
        assert failures
        heal(xfs)
        assert xfs.page_cache.dirty_items(victim.ino) == [(0, b"D" * BS)]
        xfs.fsync(victim)
        assert xfs.read(victim, 0, BS) == b"D" * BS
        assert xfs.lost_intervals() == []
        xfs.crash()
        xfs.recover()
        victim = xfs.open("/victim")
        assert xfs.read(victim, 0, BS) == b"D" * BS

    def test_policy_knobs_match_the_matrix(self, nova, xfs, ext4):
        assert ext4.wb_failure_policy == "clean"
        assert xfs.wb_failure_policy == "keep"
        assert xfs.wb_retry_limit == 3
        assert nova.wb_failure_policy == "none"


class TestNovaDaxPath:
    def test_no_writeback_no_loss(self, nova):
        handle = dirty_file(nova)
        nova.fsync(handle)
        # DAX: data persisted at write() return; the ledger never fills
        assert nova.lost_intervals() == []
        assert nova.stats.get("wb_errors") == 0
        nova.crash()
        nova.recover()
        handle = nova.open("/f")
        assert nova.read(handle, 0, 2 * BS) == b"D" * (2 * BS)


def warm_absorbed_file(stack, path="/f", blocks=8):
    """A file demoted to HDD with every block cache-resident and dirty."""
    mux = stack.mux
    handle = mux.create(path)
    mux.write(handle, 0, bytes(blocks * BS))
    mux.engine.migrate_now(
        MigrationOrder(
            handle.ino, 0, blocks, stack.tier_id("pm"), stack.tier_id("hdd")
        )
    )
    mux.read(handle, 0, blocks * BS)
    for fb in range(blocks):
        mux.write(handle, fb * BS, bytes([0x40 + fb]) * BS)
    assert mux.cache.dirty_block_count == blocks
    return handle


class TestMuxErrseq:
    def test_loss_wiring_installed(self):
        wb = build_stack(cache_write_back=True)
        assert wb.mux.cache.on_lost == wb.mux._note_destage_lost

    def test_eviction_loss_latches_eio_once_per_fd(self):
        # a small PM keeps the SCM cache small enough to overflow quickly
        wb = build_stack(cache_write_back=True, capacities={"pm": 2 * 1024 * 1024})
        mux = wb.mux
        handle = warm_absorbed_file(wb)
        other = mux.open("/f")
        # every destage attempt fails: the owner tier is unreachable
        destage_fn = mux.cache.destage_fn

        def refuse(ino, runs):
            raise TierUnavailable("owner tier unreachable")

        mux.cache.destage_fn = refuse
        # stream a cache-sized spill file through: the fills must evict
        # the (oldest, dirty) blocks of /f, and every destage fails
        cap = mux.cache.capacity_blocks
        spill = mux.create("/spill")
        mux.write(spill, 0, bytes(cap * BS))
        mux.engine.migrate_now(
            MigrationOrder(spill.ino, 0, cap, wb.tier_id("pm"), wb.tier_id("hdd"))
        )
        mux.read(spill, 0, cap * BS)
        assert mux.cache.stats.get("destage_lost") >= 1
        assert mux.lost_intervals(handle.ino) != []
        mux.cache.destage_fn = destage_fn
        with pytest.raises(WritebackError) as excinfo:
            mux.fsync(handle)
        assert excinfo.value.errno == errno.EIO
        mux.fsync(handle)  # observed once on this fd
        with pytest.raises(WritebackError):
            mux.fsync(other)  # the other pre-existing fd gets its own EIO
        mux.fsync(other)
        late = mux.open("/f")
        mux.fsync(late)  # opened after the failure: nothing to report

    def test_reconcile_reports_the_lost_intervals(self):
        wb = build_stack(cache_write_back=True)
        mux = wb.mux
        handle = warm_absorbed_file(wb, blocks=2)
        mux.cache._lost.setdefault(handle.ino, []).append((0, 1))
        mux._note_destage_lost(handle.ino, [(0, 1)])
        report = []
        reconcile_cache(mux, report)
        assert any("lost to a failed destage" in line for line in report)
        assert mux.cache.lost_intervals() == []  # reporting drains the ledger

    def test_unlink_clears_the_ledger(self):
        wb = build_stack(cache_write_back=True)
        mux = wb.mux
        handle = warm_absorbed_file(wb, path="/doomed", blocks=2)
        mux._note_destage_lost(handle.ino, [(0, 1)])
        mux.close(handle)
        mux.unlink("/doomed")
        assert mux.lost_intervals() == []


class TestRingCompletionErrno:
    def test_fsync_error_lands_in_cqe_with_errno(self):
        wb = build_stack(cache_write_back=True)
        mux = wb.mux
        handle = warm_absorbed_file(wb, blocks=2)
        mux.fsync(handle)  # destage cleanly first
        mux._note_destage_lost(handle.ino, [(0, 2)])
        ring = mux.open_ring(depth=2)
        done = ring.wait(ring.submit_fsync(handle))
        assert isinstance(done.error, WritebackError)
        assert done.errno == errno.EIO
        # once per fd holds through the ring too
        done = ring.wait(ring.submit_fsync(handle))
        assert done.error is None
        assert done.errno == 0
        mux.close(handle)
