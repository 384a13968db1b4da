"""Shape assertions for the paper's headline claims, at smoke size.

Each test asserts one named check of a paper-experiment registry entry:
who wins, which pairs are supported, which overheads are positive.
Magnitudes are recorded by ``python -m repro.bench`` and EXPERIMENTS.md.
"""


class TestFig3aShape:
    def test_mux_supports_all_six_pairs(self, paper_check):
        assert paper_check("fig3a", "Mux migrates between all 6 device pairs")

    def test_strata_supports_exactly_two(self, paper_check):
        assert paper_check("fig3a", "Strata migrates exactly pm->ssd and pm->hdd")

    def test_mux_faster_on_shared_pairs(self, paper_check):
        assert paper_check("fig3a", "Mux beats Strata on every pair Strata supports")

    def test_pm_ssd_speedup_direction(self, paper_check):
        """Paper: 2.59x; we require >1.3x (same story, simulator scale)."""
        assert paper_check("fig3a", "Mux/Strata pm->ssd migration speedup > 1.3x")

    def test_throughputs_positive(self, paper_check):
        assert paper_check("fig3a", "every migration throughput > 0")

    def test_fast_destinations_faster(self, paper_check):
        """Migrating into PM beats migrating into HDD from the same source."""
        assert paper_check("fig3a", "Mux ssd->pm beats ssd->hdd")


class TestFig3bShape:
    def test_mux_wins_every_device(self, paper_check):
        assert paper_check(
            "fig3b", "Mux/Strata write throughput > 1.0x on pm, ssd and hdd"
        )

    def test_device_ordering_preserved(self, paper_check):
        """PM > SSD > HDD throughput for both systems."""
        assert paper_check("fig3b", "pm > ssd > hdd throughput for both systems")


class TestOverheadShape:
    def test_read_overhead_positive_everywhere(self, paper_check):
        assert paper_check("read_overhead", "read overhead > 0% on pm, ssd and hdd")

    def test_hdd_overhead_smallest(self, paper_check):
        assert paper_check("read_overhead", "hdd overhead < pm overhead")
        assert paper_check("read_overhead", "hdd overhead < 25%")  # paper: 6.6%

    def test_native_latency_ordering(self, paper_check):
        assert paper_check("read_overhead", "native read latency pm < ssd < hdd")
