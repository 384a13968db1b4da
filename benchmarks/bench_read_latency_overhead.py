"""§3.2 read overhead: 1-byte random reads, Mux vs native (no tiering).

Paper result: Mux increases worst-case read latency by +52.4% (NOVA/PM),
+87.3% (XFS/SSD) and +6.6% (Ext4/HDD).  The overhead is Mux's per-call
work (BLT lookup, affinity bookkeeping, OCC check, extra VFS dispatch)
plus the amortized lazy persistence of its own metadata to the metafile.
"""


def test_read_latency_overhead(paper_check):
    for claim in (
        "read overhead > 0% on pm, ssd and hdd",
        "hdd overhead < pm overhead",
    ):
        assert paper_check("read_overhead", claim), claim
