"""Ablation (§2.4): OCC Synchronizer vs lock-based migration.

The paper's claim: OCC "minimizes the critical path of user requests and
enables the parallel execution of migration without pessimistic blocking".
The ``ablation_occ`` registry entry times a user write issued while a
24 MiB migration is in flight, and races a migration against writes.
"""


def test_ablation_occ_vs_lock(paper_check):
    assert paper_check(
        "ablation_occ", "OCC write completes > 10x sooner than behind the lock"
    )


def test_ablation_occ_retry_cost(paper_check):
    """Conflicting writes force retries; the migration still converges."""
    assert paper_check(
        "ablation_occ",
        "conflicted migration retries (attempts >= 2) or falls back to the lock",
    )
