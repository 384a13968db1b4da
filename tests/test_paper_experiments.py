"""The paper-experiment registry and its ``python -m repro.bench`` CLI.

Each registered experiment runs once, at smoke size, and every shape
check it reports must hold; EXPERIMENTS.md records the full-size numbers.
"""

import pytest

from repro.bench.__main__ import main
from repro.bench.experiments import EXPERIMENTS, Report


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_shape_checks_hold(name, smoke_report):
    report = smoke_report(name)
    assert report.rows and report.checks
    assert report.failed == []


class TestCli:
    @pytest.mark.parametrize(
        "argv", [["--bogus"], ["--fast"], ["--smok"], ["fig3a", "fig3z"]]
    )
    def test_unknown_argument_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_exit_status_follows_checks(self, monkeypatch, capsys):
        def entry(*checks):
            return lambda smoke: Report(f"== {smoke} ==", [], list(checks))

        monkeypatch.setitem(EXPERIMENTS, "passing", entry(("holds", True)))
        monkeypatch.setitem(EXPERIMENTS, "failing", entry(("breaks", False)))
        assert main(["passing", "--smoke"]) == 0
        assert main(["passing", "failing"]) == 1
        out = capsys.readouterr().out
        assert "== True ==" in out and "== False ==" in out
        assert "ok: holds" in out and "FAIL: breaks" in out
