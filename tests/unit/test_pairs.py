"""Unit tests for the paired base/change benchmark script (``benchmarks/pairs.py``)."""

import pytest

from benchmarks.pairs import RUNNER, run_once, verdict

STEADY = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.0, 10.1, 9.9]
FASTER = [value + 2.0 for value in STEADY]


@pytest.mark.parametrize(
    "base, change, expected",
    [
        ([5.0] * 10, [5.0] * 10, "equal"),
        (STEADY, FASTER, "gain"),
        (STEADY, [0.0, 0.0] + FASTER[2:], "within bound"),  # 8/10 is no gain
        (STEADY, [value - 3.0 for value in STEADY], "regression"),
        ([5.0, 15.0] * 5, [5.0, 15.0] * 5, "unresolved"),
        ([10.0, 10.1] * 5, [10.05, 10.0] * 5, "within bound"),
    ],
)
def test_verdict_table(base, change, expected):
    assert verdict(base, change, bound=0.25) == expected


def test_a_failed_run_names_side_exit_code_and_stderr(tmp_path):
    runner = tmp_path / RUNNER
    runner.parent.mkdir(parents=True)
    runner.write_text(
        "import sys\n"
        "print('exact metric sim.events moved: 1 != 2', file=sys.stderr)\n"
        "sys.exit(2)\n"
    )
    with pytest.raises(SystemExit) as raised:
        run_once("base", tmp_path, "paper_sparse", 1, 1)
    message = str(raised.value)
    assert message.startswith("base run of paper_sparse")
    assert "exited 2" in message
    assert "sim.events moved" in message


def test_a_good_run_returns_its_metrics(tmp_path):
    runner = tmp_path / RUNNER
    runner.parent.mkdir(parents=True)
    runner.write_text(
        "print('warming up')\n"
        "print('{\"failed\": 0, \"attempted\": 3, "
        "\"metrics\": {\"cells_per_s\": {\"value\": 3.5}}}')\n"
    )
    assert run_once("change", tmp_path, "paper_sparse", 1, 1) == {"cells_per_s": 3.5}
