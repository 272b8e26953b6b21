"""Conformance verdicts are the oracle's judgement, compared across backends.

No sockets here: ``conformance.run_scenario`` is replaced by a runner
that executes every backend's copy of the spec on the simulator and
damages the ``"asyncio"`` side's result, so each test controls exactly
what one backend got wrong.
"""

import dataclasses

import pytest

from repro.scenarios import (
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    run_conformance,
    run_scenario,
    verdict_of,
)
from repro.scenarios import conformance
from repro.scenarios.oracle import check_safety

RELIABLE = ScenarioSpec(
    name="conformance-one-sided",
    topology=TopologySpec(kind="harary", n=5, k=3),
    f=1,
    seed=3,
)

RCO_CHAIN = ScenarioSpec(
    name="conformance-one-sided-rco",
    topology=TopologySpec(kind="harary", n=5, k=3),
    protocol="rco_cross_layer",
    f=1,
    seed=13,
    workload=WorkloadSpec.causal_chain((0, 2, 4), interval_ms=250.0),
)


def forge(result):
    """Correct process 1 "delivered" an unscheduled broadcast of source 1."""
    metrics = result.metrics
    forged_key = (1, (1, 99))
    patched = dataclasses.replace(
        metrics,
        delivery_times={**metrics.delivery_times, forged_key: 1.0},
        delivered_payloads={**metrics.delivered_payloads, forged_key: b"x"},
    )
    return dataclasses.replace(result, metrics=patched)


def swap_causal_pair(result):
    """One correct process delivers (2, 0) before its predecessor (0, 0)."""
    pid = next(p for p in result.correct_processes if p not in (0, 2))
    times = result.metrics.delivery_times
    entries = list(times.items())
    a = entries.index(((pid, (0, 0)), times[(pid, (0, 0))]))
    b = entries.index(((pid, (2, 0)), times[(pid, (2, 0))]))
    entries[a], entries[b] = entries[b], entries[a]
    patched = dataclasses.replace(result.metrics, delivery_times=dict(entries))
    return dataclasses.replace(result, metrics=patched)


@pytest.fixture()
def damage_asyncio(monkeypatch):
    """Install a socket-free runner that applies ``damage`` to one side."""

    def install(damage):
        def fake_run(spec, backend=None):
            result = run_scenario(spec.with_backend("simulation"))
            return damage(result) if spec.backend == "asyncio" else result

        monkeypatch.setattr(conformance, "run_scenario", fake_run)

    return install


class TestOneSidedSafetyBreach:
    def test_honest_runs_agree(self, damage_asyncio):
        damage_asyncio(lambda result: result)
        report = run_conformance(RELIABLE)
        assert report.mode == "full"
        assert report.agree, report.mismatches()

    @pytest.mark.parametrize("mode", ["auto", "full", "safety"])
    def test_forged_delivery_is_a_mismatch(self, damage_asyncio, mode):
        damage_asyncio(forge)
        report = run_conformance(RELIABLE, mode=mode)
        assert report.mode == ("full" if mode == "auto" else mode)
        assert not report.agree
        (mismatch,) = report.mismatches()
        assert mismatch.startswith("safety: ")
        assert "no_forgery" in mismatch

    @pytest.mark.parametrize("mode", ["auto", "full", "safety"])
    def test_causal_order_breach_is_a_mismatch(self, damage_asyncio, mode):
        damage_asyncio(swap_causal_pair)
        report = run_conformance(RCO_CHAIN, mode=mode)
        assert report.mode == ("full" if mode == "auto" else mode)
        assert not report.agree
        (mismatch,) = report.mismatches()
        assert mismatch.startswith("safety: ")
        assert "causal_order" in mismatch


class TestVerdictOf:
    def test_full_mode_carries_the_safety_verdict_and_more(self):
        result = forge(run_scenario(RELIABLE))
        safety = verdict_of(result, "safety")
        full = verdict_of(result, "full")
        assert safety.safety == full.safety == tuple(
            (v.invariant, v.detail) for v in check_safety(result)
        )
        assert safety.safety, "the forged delivery is a safety violation"
        assert safety.correct_processes == safety.broadcasts == ()
        assert full.correct_processes == tuple(sorted(result.correct_processes))
        assert [(b.source, b.bid) for b in full.broadcasts] == [(0, 0)]
