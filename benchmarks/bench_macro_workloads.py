"""Application-level macro benchmarks: fileserver / webserver / varmail on
HDD-only Ext4, Strata, and Mux.

Not a figure from the paper — these are the workloads the paper's
introduction motivates tiered storage with, used here to sanity-check
that the tiering actually pays off at the application level.
"""

import pytest

from repro.bench.macro import ALL_WORKLOADS

#: beyond "Mux > 0.5x Strata", the claims each workload must also meet
EXTRA_CLAIMS = {
    "fileserver": ["fileserver: Mux > ext4/HDD only"],
    "varmail": ["varmail: Mux > 10x ext4/HDD only"],
}


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_macro_workload(paper_check, name):
    for claim in [f"{name}: Mux > 0.5x Strata", *EXTRA_CLAIMS.get(name, [])]:
        assert paper_check("macro", claim), claim
