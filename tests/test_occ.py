"""OCC Synchronizer (§2.4): migration never loses or overwrites user
updates, commits only conflict-free copies, retries dirty blocks and falls
back to locking after bounded retries."""

import pytest

from repro.core import calibration as cal
from repro.core.policy import MigrationOrder
from repro.sim.tasks import run_interleaved

BS = 4096


@pytest.fixture
def env(stack_nocache):
    stack = stack_nocache
    mux = stack.mux
    handle = mux.create("/f")
    payload = b"".join(bytes([i + 1]) * BS for i in range(16))
    mux.write(handle, 0, payload)
    return stack, mux, handle


def order(stack, handle, start=0, count=16, src="pm", dst="ssd"):
    return MigrationOrder(
        handle.ino, start, count, stack.tier_id(src), stack.tier_id(dst)
    )


class TestCleanMigration:
    def test_moves_all_blocks(self, env):
        stack, mux, handle = env
        result = mux.engine.migrate_now(order(stack, handle))
        assert result.moved_blocks == 16
        assert result.attempts == 1
        assert result.conflicts == 0
        assert not result.lock_fallback

    def test_data_intact_after_migration(self, env):
        stack, mux, handle = env
        expect = mux.read(handle, 0, 16 * BS)
        mux.engine.migrate_now(order(stack, handle))
        assert mux.read(handle, 0, 16 * BS) == expect

    def test_source_space_released(self, env):
        stack, mux, handle = env
        pm_fs = stack.filesystems["pm"]
        used_before = pm_fs.statfs().used_blocks
        mux.engine.migrate_now(order(stack, handle))
        assert pm_fs.statfs().used_blocks <= used_before - 14

    def test_version_incremented_twice(self, env):
        stack, mux, handle = env
        inode = mux.ns.get(handle.ino)
        v0 = inode.version
        mux.engine.migrate_now(order(stack, handle))
        assert inode.version == v0 + 2
        assert not inode.migration_active

    def test_migrating_holes_is_noop(self, env):
        stack, mux, handle = env
        result = mux.engine.migrate_now(order(stack, handle, start=100, count=8))
        assert result.moved_blocks == 0
        assert result.skipped_blocks == 8

    def test_same_tier_rejected(self, env):
        stack, mux, handle = env
        from repro.errors import MigrationError

        with pytest.raises(MigrationError):
            mux.engine.migrate_now(order(stack, handle, src="pm", dst="pm"))


class TestConcurrentWrites:
    """User writes interleaved with migration steps — the §2.4 races."""

    def test_write_during_migration_not_lost(self, env):
        stack, mux, handle = env
        task = mux.engine.submit(order(stack, handle))
        wrote = {"done": False}

        def user_write(step):
            if step == 0 and not wrote["done"]:
                mux.write(handle, 3 * BS, b"USERDATA")
                wrote["done"] = True

        result = run_interleaved(task, user_write)
        assert wrote["done"]
        # the user's update survived the concurrent migration
        assert mux.read(handle, 3 * BS, 8) == b"USERDATA"

    def test_conflicting_block_retried(self, env):
        stack, mux, handle = env
        inode = mux.ns.get(handle.ino)
        task = mux.engine.submit(order(stack, handle))

        def user_write(step):
            if inode.migration_active and step < 1:
                mux.write(handle, 0, b"CONFLICT")

        result = run_interleaved(task, user_write)
        assert result.conflicts > 0
        assert result.attempts >= 2
        assert mux.read(handle, 0, 8) == b"CONFLICT"

    def test_clean_blocks_commit_despite_conflicts(self, env):
        stack, mux, handle = env
        ssd_id = stack.tier_id("ssd")
        inode = mux.ns.get(handle.ino)
        fired = {"n": 0}
        task = mux.engine.submit(order(stack, handle))

        def user_write(step):
            if step == 0:
                mux.write(handle, 0, b"X")  # dirty only block 0
                fired["n"] += 1

        result = run_interleaved(task, user_write)
        # every block except the conflicted one moved on some attempt
        assert inode.blt.blocks_on(ssd_id) == 16
        assert mux.read(handle, 0, 1) == b"X"

    def test_repeated_conflicts_trigger_lock_fallback(self, env):
        stack, mux, handle = env
        inode = mux.ns.get(handle.ino)
        task = mux.engine.submit(order(stack, handle))

        def hostile_write(step):
            # dirty every block on every interleave point
            if inode.migration_active:
                for fb in range(16):
                    mux.write(handle, fb * BS, bytes([0xEE]))

        result = run_interleaved(task, hostile_write)
        assert result.lock_fallback
        assert result.attempts == cal.OCC_MAX_RETRIES
        # all blocks end up on the destination, with the freshest data
        assert inode.blt.blocks_on(stack.tier_id("ssd")) == 16
        assert mux.read(handle, 0, 1) == bytes([0xEE])

    def test_lock_fallback_bounded(self, env):
        """§2.4: migration completes in finite time (bounded replication lag)."""
        stack, mux, handle = env
        inode = mux.ns.get(handle.ino)
        steps = {"n": 0}
        task = mux.engine.submit(order(stack, handle))

        def hostile_write(step):
            steps["n"] += 1
            if inode.migration_active:
                mux.write(handle, 0, bytes([step % 251]))

        result = run_interleaved(task, hostile_write)
        assert not inode.migration_active
        assert not inode.locked
        assert inode.blt.blocks_on(stack.tier_id("pm")) == 0

    def test_reads_during_migration_consistent(self, env):
        stack, mux, handle = env
        expect = mux.read(handle, 0, 16 * BS)
        task = mux.engine.submit(order(stack, handle))

        def reader(step):
            assert mux.read(handle, 0, 16 * BS) == expect

        run_interleaved(task, reader)
        assert mux.read(handle, 0, 16 * BS) == expect

    def test_write_to_unrelated_file_no_conflict(self, env):
        stack, mux, handle = env
        other = mux.create("/other")
        task = mux.engine.submit(order(stack, handle))

        def unrelated(step):
            mux.write(other, 0, b"noise")

        result = run_interleaved(task, unrelated)
        assert result.conflicts == 0
        assert result.attempts == 1
        mux.close(other)

    def test_append_during_migration_not_lost(self, env):
        stack, mux, handle = env
        task = mux.engine.submit(order(stack, handle))

        def appender(step):
            if step == 0:
                mux.append(handle, b"GROWN")

        run_interleaved(task, appender)
        assert mux.getattr("/f").size == 16 * BS + 5
        assert mux.read(handle, 16 * BS, 5) == b"GROWN"


class TestEngineBookkeeping:
    def test_pair_stats_accumulate(self, env):
        stack, mux, handle = env
        mux.engine.migrate_now(order(stack, handle, count=8))
        pair = (stack.tier_id("pm"), stack.tier_id("ssd"))
        stats = mux.engine.pair_stats[pair]
        assert stats.bytes_moved == 8 * BS
        assert stats.busy_ns > 0
        assert stats.throughput_mb_s() > 0

    def test_supports_every_pair(self, env):
        stack, mux, handle = env
        ids = mux.tier_ids()
        for src in ids:
            for dst in ids:
                assert mux.engine.supports(src, dst) == (src != dst)

    def test_engine_counters(self, env):
        stack, mux, handle = env
        mux.engine.migrate_now(order(stack, handle))
        assert mux.engine.stats.get("migrations") == 1
        assert mux.engine.stats.get("blocks_moved") == 16

    def test_async_tick_progresses(self, env):
        stack, mux, handle = env
        mux.engine.submit(order(stack, handle))
        ticks = 0
        while mux.engine.tick():
            ticks += 1
        assert ticks > 0
        inode = mux.ns.get(handle.ino)
        assert inode.blt.blocks_on(stack.tier_id("ssd")) == 16


class TestClosedCopy:
    """A copy closed mid-flight aborts like any other OCC abort."""

    def test_closed_copy_clears_migration_flag(self, env):
        from repro.tools.fsck import check_mux

        stack, mux, handle = env
        inode = mux.ns.get(handle.ino)
        v0 = inode.version
        copy = mux.engine._run_tracked(inode, order(stack, handle))
        next(copy)
        assert inode.migration_active
        copy.close()
        assert not inode.migration_active
        assert inode.version == v0 + 2
        assert check_mux(mux) == []

    def test_paced_defer_abort_clears_migration_flag(self, env):
        from repro.tools.fsck import check_mux

        stack, mux, handle = env
        # two copy chunks, so the pacer can stall between them
        blocks = 2 * cal.MIGRATION_CHUNK_BLOCKS
        mux.write(handle, 0, b"\x33" * blocks * BS)
        inode = mux.ns.get(handle.ino)
        task = mux.engine.submit(
            order(stack, handle, count=blocks), defer_while_hot=True
        )
        task.step()
        assert inode.migration_active
        # the tiers turn hot mid-copy: the pacer stalls until it gives up
        mux.pressure.instant_load_of = lambda tier_id, now_ns: 5.0
        while not task.done:
            task.step()
        assert mux.engine.stats.get("defer_aborts") == 1
        assert not inode.migration_active
        assert check_mux(mux) == []
        assert mux.read(handle, 0, blocks * BS) == b"\x33" * blocks * BS
