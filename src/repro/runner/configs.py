"""Named protocol configurations used throughout the evaluation.

The paper compares a number of configurations of the same protocol:

* ``bd`` — the unmodified layered Bracha-Dolev combination;
* ``bdopt`` — Bracha over Dolev with Bonomi et al.'s MD.1–5 (the
  state-of-the-art baseline);
* ``bdopt+mbd1`` — BDopt plus MBD.1, the reference configuration of
  Table 1 for MBD.2–12;
* ``mbd<i>`` — BDopt + MBD.1 + the single modification ``i`` (``mbd1``
  is BDopt + MBD.1 alone);
* ``lat`` / ``bdw`` / ``lat_bdw`` — the composite configurations of
  Sec. 7.4;
* ``all`` — every modification enabled.

:func:`protocol_factory` maps a configuration name to a callable building
one protocol instance per process, which the scenario engine uses.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable

from repro.core.config import SystemConfig
from repro.core.modifications import ModificationSet
from repro.brb.bracha import BrachaBroadcast
from repro.brb.bracha_dolev import BrachaDolevBroadcast
from repro.brb.dolev import DolevBroadcast
from repro.brb.optimized import CrossLayerBrachaDolev
from repro.rco.protocol import RCO_PROTOCOLS, CausalOrderBroadcast

ProtocolBuilder = Callable[[int, SystemConfig, Iterable[int]], object]


def _cross_layer_builder(mods: ModificationSet) -> ProtocolBuilder:
    def build(process_id: int, config: SystemConfig, neighbors: Iterable[int]):
        return CrossLayerBrachaDolev(
            process_id, config, neighbors, modifications=mods
        )

    return build


#: The one table of named configurations: canonical name → modifications.
PROTOCOL_CONFIGURATIONS: Dict[str, ModificationSet] = {
    "bd": ModificationSet.none(),
    "bdopt": ModificationSet.dolev_optimized(),
    "mbd1": ModificationSet.bdopt_with_mbd1(),
    **{f"mbd{i}": ModificationSet.single_mbd(i) for i in range(2, 13)},
    "lat": ModificationSet.latency_optimized(),
    "bdw": ModificationSet.bandwidth_optimized(),
    "lat_bdw": ModificationSet.latency_and_bandwidth_optimized(),
    "all": ModificationSet.all_enabled(),
}

#: Other spellings (after normalisation) of a canonical name.
_ALIASES = {
    "none": "bd",
    "bdopt+mbd1": "mbd1",
    "bdoptmbd1": "mbd1",
    "latency": "lat",
    "bandwidth": "bdw",
    "latbdw": "lat_bdw",
    "lat&bdw": "lat_bdw",
}


def modification_set_for(name: str) -> ModificationSet:
    """The :class:`ModificationSet` of a named configuration.

    Case, spaces, dots and ``-`` for ``_`` do not matter (``"MBD.7"``,
    ``"lat & bdw"``).
    """
    normalized = name.lower().replace(" ", "").replace("-", "_").replace(".", "")
    try:
        return PROTOCOL_CONFIGURATIONS[_ALIASES.get(normalized, normalized)]
    except KeyError:
        raise ValueError(f"unknown configuration name: {name}") from None


def protocol_family(protocol: str) -> str:
    """Message-format family of a protocol name (for crafted adversary traffic).

    An RCO wrapper speaks its inner BRB protocol's wire format — the
    vector clock travels inside the payload — so crafted adversary
    traffic against ``rco_*`` protocols uses the inner family.
    """
    protocol = RCO_PROTOCOLS.get(protocol, protocol)
    if protocol == "bracha":
        return "bracha"
    if protocol in ("bracha_dolev", "dolev"):
        return "bracha_dolev"
    return "cross_layer"


def protocol_factory(protocol: str, mods: ModificationSet = None) -> ProtocolBuilder:
    """Return a builder for one of the protocol families.

    Parameters
    ----------
    protocol:
        ``"cross_layer"`` (the paper's protocol), ``"bracha_dolev"`` (the
        layered combination), ``"bracha"`` (fully connected baseline),
        ``"dolev"`` (reliable communication only), or any of
        :data:`~repro.rco.protocol.RCO_PROTOCOLS` — the causal-order
        wrapper stacked on the named inner BRB protocol.
    mods:
        Modification toggles for the partially-connected protocols.
    """
    mods = mods if mods is not None else ModificationSet.dolev_optimized()
    if protocol in RCO_PROTOCOLS:
        inner_builder = protocol_factory(RCO_PROTOCOLS[protocol], mods)
        return lambda pid, config, neighbors: CausalOrderBroadcast(
            pid, config, neighbors, inner=inner_builder(pid, config, neighbors)
        )
    if protocol == "cross_layer":
        return _cross_layer_builder(mods)
    if protocol == "bracha_dolev":
        return lambda pid, config, neighbors: BrachaDolevBroadcast(
            pid, config, neighbors, modifications=mods
        )
    if protocol == "bracha":
        return lambda pid, config, neighbors: BrachaBroadcast(pid, config, neighbors)
    if protocol == "dolev":
        return lambda pid, config, neighbors: DolevBroadcast(
            pid, config, neighbors, modifications=mods
        )
    raise ValueError(f"unknown protocol family: {protocol}")


__all__ = [
    "PROTOCOL_CONFIGURATIONS",
    "modification_set_for",
    "protocol_factory",
    "protocol_family",
]
