"""The known liveness failures of ``all``, pinned (ROADMAP item 1).

The paper claims every MD/MBD modification preserves BRB on any
(2f+1)-connected graph.  Two cells contradict it for the ``all``
configuration, and ``totality_expected`` holds on both, so the oracle
reports each missed delivery as a ``totality`` violation:

* ``paper`` — random_regular(31, 10), f = 4, no faults, source 0:
  MBD.2 (single-hop SEND) together with MBD.11 (role restriction)
  starves every process of its quorum; either flag alone delivers.
* ``harary7`` — harary(7, 3), f = 1, one mute process next to the
  source (process 1): ``all`` without MBD.11 delivers, MBD.2 does not
  matter.  ``tests/property/test_scenario_properties.py`` can draw this
  cell at random.

``all`` is a strict xfail on both: once item 1 is fixed the test
XPASSes, which fails the suite, and the marker has to go.  ``lat_bdw``
and ``bdopt`` on the same cells deliver and stay plain tests.
"""

import pytest

from repro.runner.configs import modification_set_for
from repro.scenarios import (
    AdversarySpec,
    DelaySpec,
    ScenarioSpec,
    TopologySpec,
    run_scenario,
)
from repro.scenarios.oracle import check_result, totality_expected

CELLS = {
    "paper": dict(
        topology=TopologySpec("random_regular", n=31, k=10, min_connectivity=9),
        delay=DelaySpec("fixed", mean_ms=50.0),
        f=4,
        payload_size=16,
        seed=202001,
    ),
    "harary7": dict(
        topology=TopologySpec("harary", n=7, k=3),
        delay=DelaySpec("fixed", mean_ms=10.0),
        f=1,
        adversaries=(
            AdversarySpec(behaviour="mute", count=1, placement="articulation_adjacent"),
        ),
    ),
}


def _cell(name, configuration):
    return ScenarioSpec(
        name=f"all-liveness-{name}-{configuration}",
        protocol="cross_layer",
        modifications=modification_set_for(configuration),
        source=0,
        **CELLS[name],
    )


@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize(
    "configuration",
    [
        pytest.param(
            "all",
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 1: MBD.11 in `all` starves the quorums",
            ),
        ),
        "lat_bdw",
        "bdopt",
    ],
)
def test_configuration_delivers_on_the_known_failing_graph(cell, configuration):
    spec = _cell(cell, configuration)
    assert totality_expected(spec)
    assert check_result(run_scenario(spec)) == []
