"""Unit tests for the paired base/change benchmark script (``benchmarks/pairs.py``)."""

import json

import pytest

from benchmarks import pairs
from benchmarks.pairs import ROOT, RUNNER, run_once, verdict

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
        ([10.0, 10.1], [12.0, 12.1], "within bound"),  # 2/2 pairs is too few for a gain
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


with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _handle:
    END_TO_END = [metric["name"] for metric in json.load(_handle)["end_to_end"]]


@pytest.mark.parametrize(
    "metric, factor, status",
    [
        ("cells_per_s", 1.0, 0),  # every verdict "equal"
        ("cells_per_s", 1.1, 0),  # better in every pair: "gain"
        ("cells_per_s", 0.5, 1),  # half the throughput: "regression"
        ("latency_ms", 2.0, 1),  # lower is better: twice the latency is "regression"
        ("latency_ms", 1.1, 0),  # worse, but within its 0.25 bound
    ],
)
def test_exit_status_is_one_exactly_on_a_regression(monkeypatch, metric, factor, status):
    def fake_run(side, checkout, workload, seed, seconds):
        values = dict.fromkeys(END_TO_END, 100.0)
        if side == "change":
            values[metric] *= factor
        return values

    monkeypatch.setattr(pairs, "export", lambda ref, into: None)
    monkeypatch.setattr(pairs, "run_once", fake_run)
    assert pairs.main(["--workload", "paper_sparse", "--pairs", "10"]) == status
