"""Unit tests for the argument handling of ``benchmarks/reachability.py``.

The audit takes about ten minutes and rewrites ``benchmarks/results/``,
so a mistyped argument must stop it before any workload starts.
"""

import sys

import pytest

from benchmarks import reachability


@pytest.fixture
def nothing_may_run(monkeypatch):
    def fail(*args):
        raise AssertionError("the audit started")

    monkeypatch.setattr(reachability, "defined", fail)
    monkeypatch.setattr(reachability, "run", fail)


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["-h"], 0), (["--seconds", "2"], 2), (["extra"], 2)],
)
def test_arguments_exit_before_the_audit_runs(
    nothing_may_run, monkeypatch, capsys, argv, code
):
    monkeypatch.setattr(sys, "argv", ["reachability.py", *argv])
    with pytest.raises(SystemExit) as exited:
        reachability.main()
    assert exited.value.code == code
    if code == 0:
        assert "module by module" in capsys.readouterr().out
