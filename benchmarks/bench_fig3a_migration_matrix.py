"""Figure 3a: migration extensibility + throughput matrix.

Paper result: Mux migrates between *all six* device pairs; Strata supports
only PM→SSD and PM→HDD (everything else N/S).  On the shared PM→SSD path
Mux is 2.59x faster because it delegates to production file systems
instead of Strata's digest-unit device writes under extent-tree locks.
"""


def test_fig3a_migration_matrix(paper_check):
    for claim in (
        "Mux migrates between all 6 device pairs",
        "Strata migrates exactly pm->ssd and pm->hdd",
        "Mux beats Strata on every pair Strata supports",
    ):
        assert paper_check("fig3a", claim), claim
