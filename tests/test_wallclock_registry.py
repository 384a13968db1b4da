"""The wall-clock workload registry and its golden fingerprints.

Every registered workload must have a golden smoke fingerprint in the
committed ``BENCH_wallclock.json`` (and every golden a workload), so the
smoke guard can never silently skip one.
"""

import json
from pathlib import Path

from repro.bench import wallclock
from repro.bench.wallclock import (
    WORKLOADS,
    compare_fingerprints,
    run_workload,
)

BENCH_FILE = Path(__file__).resolve().parents[1] / "BENCH_wallclock.json"


def _golden_smoke():
    with open(BENCH_FILE) as f:
        return json.load(f)["golden_sim_smoke"]


def test_registry_names_match_goldens():
    assert set(WORKLOADS) == set(_golden_smoke())


def test_cheap_smoke_workload_matches_golden():
    result = run_workload("seq_write", smoke=True)
    assert compare_fingerprints(_golden_smoke()["seq_write"], result["fingerprint"]) == []


def test_write_back_cache_pins_its_counters():
    fingerprint = run_workload("cache_writeback", smoke=True)["fingerprint"]
    assert fingerprint == _golden_smoke()["cache_writeback"]
    assert "destaged_blocks" in fingerprint["cache"]


def test_compare_fingerprints_reports_nested_leaf():
    golden = {"now_ns": 5, "devices": {"pm": {"reads": 1, "writes": 2}}, "extra": [1]}
    observed = {"now_ns": 5, "devices": {"pm": {"reads": 1, "writes": 3}}, "extra": [1]}
    assert compare_fingerprints(golden, golden) == []
    assert compare_fingerprints(golden, observed) == ["devices.pm.writes: golden=2 got=3"]
    assert compare_fingerprints({"a": {"b": 1}}, {}) == ["a: golden={'b': 1} got=None"]


def test_smoke_fails_on_missing_or_orphan_golden(tmp_path, monkeypatch, capsys):
    golden = _golden_smoke()
    monkeypatch.setattr(
        wallclock, "WORKLOADS", {n: WORKLOADS[n] for n in ("seq_write", "varmail")}
    )
    bench = tmp_path / "bench.json"
    bench.write_text(
        json.dumps({"golden_sim_smoke": {"seq_write": golden["seq_write"], "gone": {}}})
    )
    assert wallclock.main(["--smoke", "--out", str(bench)]) == 1
    out = capsys.readouterr().out
    assert "seq_write: ok" in out
    assert "varmail: FAIL (no golden recorded)" in out
    assert "gone: FAIL (golden recorded for an unregistered workload)" in out
