"""Figure 3b: per-device I/O throughput, Strata vs Mux.

Paper result: with random writes always directed to one target device,
Mux's throughput is 1.08x / 1.46x / 1.07x Strata's on PM / SSD / HDD —
the indirection layer more than pays for itself because NOVA/XFS/Ext4 are
better at driving their devices than Strata's log-then-digest path.
"""


def test_fig3b_device_io(paper_check):
    assert paper_check(
        "fig3b", "Mux/Strata write throughput > 1.0x on pm, ssd and hdd"
    )
