"""Fixtures shared by ``tests/`` and ``benchmarks/``.

Several tests assert checks of the same paper-experiment registry entry;
``paper_check`` runs each entry once per session at smoke size.
"""

import functools

import pytest

from repro.bench.experiments import EXPERIMENTS, Report


@pytest.fixture(scope="session")
def smoke_report():
    """``name -> Report`` of a registry entry at smoke size, run once."""

    @functools.lru_cache(maxsize=None)
    def report(name: str) -> Report:
        return EXPERIMENTS[name](True)

    return report


@pytest.fixture(scope="session")
def paper_check(smoke_report):
    """``(name, claim) -> holds`` for one named check of a registry entry."""

    def holds(name: str, claim: str) -> bool:
        return dict(smoke_report(name).checks)[claim]

    return holds
