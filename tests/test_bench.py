"""Benchmark harness: workloads are deterministic and systems comparable."""

import pytest

from repro.bench import workloads
from repro.bench.harness import VfsView, build_pinned_mux, build_strata, format_rows, ResultRow
from repro.stack import build_stack

MIB = 1024 * 1024


class TestWorkloads:
    def test_make_file(self):
        stack = build_stack(enable_cache=False)
        handle = workloads.make_file(stack.mux, stack.clock, "/f", 2 * MIB)
        assert stack.mux.getattr("/f").size == 2 * MIB
        stack.mux.close(handle)

    def test_sequential_write_throughput(self):
        stack = build_stack(enable_cache=False)
        res = workloads.sequential_write(
            stack.mux, stack.clock, "/f", 4 * MIB, io_size=MIB
        )
        assert res.bytes_moved == 4 * MIB
        assert res.mb_per_s > 0

    def test_random_write_deterministic(self):
        def run():
            stack = build_stack(enable_cache=False)
            return workloads.random_write(
                stack.mux, stack.clock, "/f", 4 * MIB, 1 * MIB, io_size=16 * 1024
            ).elapsed_s

        assert run() == run()

    def test_random_read_single_byte(self):
        stack = build_stack(enable_cache=False)
        handle = workloads.make_file(stack.mux, stack.clock, "/f", 1 * MIB)
        stack.mux.close(handle)
        res = workloads.random_read_single_byte(
            stack.mux, stack.clock, "/f", 1 * MIB, iterations=50
        )
        assert res.operations == 50
        assert res.mean_us > 0

    def test_hot_set_reads(self):
        stack = build_stack(enable_cache=False)
        handle = workloads.make_file(stack.mux, stack.clock, "/f", 1 * MIB)
        stack.mux.close(handle)
        res = workloads.hot_set_reads(
            stack.mux, stack.clock, "/f", 1 * MIB, 64 * 1024, iterations=40
        )
        assert res.operations == 40


class TestBuilders:
    def test_build_strata(self):
        strata_stack = build_strata(pin_target="ssd")
        assert strata_stack.fs.pin_target == "ssd"
        strata_stack.fs.write_file("/f", b"x")
        assert strata_stack.fs.read_file("/f") == b"x"

    def test_build_pinned_mux(self):
        stack = build_pinned_mux("hdd", enable_cache=False)
        stack.mux.write_file("/f", b"x" * 4096)
        assert stack.vfs.exists("/tiers/hdd/f")

    def test_vfs_view(self):
        stack = build_stack(enable_cache=False)
        view = VfsView(stack.vfs, "/mux")
        handle = view.create("/f")
        view.write(handle, 0, b"through the view")
        assert view.read(handle, 0, 16) == b"through the view"
        assert view.getattr("/f").size == 16
        view.fsync(handle)
        view.truncate(handle, 7)
        view.close(handle)
        view.unlink("/f")
        assert not stack.mux.exists("/f")


class TestReporting:
    def test_format_rows(self):
        rows = [ResultRow("E", "cfg", "metric", "1.0x", "1.1x")]
        text = format_rows(rows, "title")
        assert "title" in text
        assert "metric" in text
        assert "1.1x" in text


class TestTraceCli:
    @pytest.mark.parametrize("argv", [["--ops"], ["--ops", "many"], ["--pressur"]])
    def test_bad_arguments_exit_2(self, argv):
        from repro.bench.trace import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_drr_report(self, capsys):
        from repro.bench.trace import main

        assert main(["--drr"]) == 0
        assert "drr streams:" in capsys.readouterr().out


class TestProfileByLayer:
    def test_layer_of_maps_packages_to_columns(self):
        from repro.bench.profile import layer_of

        assert layer_of("/x/src/repro/fscommon/pagecache.py") == "page cache"
        assert layer_of("/x/src/repro/fscommon/journaledfs.py") == "rest of fscommon"
        assert layer_of("/x/src/repro/devices/base.py") == "devices"
        assert layer_of("/x/src/repro/core/mux.py") == "core"
        assert layer_of("/x/src/repro/sim/clock.py") == "sim"
        assert layer_of("/x/src/repro/fs/xfs.py") == "other"
        assert layer_of("~") == "other"

    def test_shares_sum_to_one_on_a_smoke_run(self):
        import cProfile
        import pstats

        from repro.bench.profile import LAYERS, OTHER, layer_shares
        from repro.bench.wallclock import run_workload

        profiler = cProfile.Profile()
        profiler.runcall(run_workload, "parallel_stripe", True)
        shares = layer_shares(pstats.Stats(profiler))
        assert list(shares) == [label for label, _ in LAYERS] + [OTHER]
        assert sum(shares.values()) == pytest.approx(1.0)
        assert all(share >= 0.0 for share in shares.values())
        assert shares["page cache"] > 0.0 and shares["devices"] > 0.0

    def test_cli_prints_one_table_row(self, capsys):
        from repro.bench.profile import main

        assert main(["parallel_stripe", "--smoke", "--by-layer"]) == 0
        out = capsys.readouterr().out
        assert "| workload | page cache | rest of fscommon | devices | core | sim | other |" in out
        assert "| `parallel_stripe` |" in out
