"""Byzantine reliable broadcast protocols.

* :class:`~repro.brb.bracha.BrachaBroadcast` — Bracha's authenticated
  double-echo broadcast on fully connected networks (Algorithm 1).
* :class:`~repro.brb.dolev.DolevBroadcast` — Dolev's reliable
  communication on unknown, partially connected topologies
  (Algorithm 2), optionally with Bonomi et al.'s MD.1–5 optimizations
  (:class:`~repro.brb.dolev.OptimizedDolevBroadcast`).
* :class:`~repro.brb.bracha_dolev.BrachaDolevBroadcast` — the layered
  state-of-the-art combination of the two (*BD*), which becomes *BDopt*
  when the Dolev layer runs MD.1–5.
* :class:`~repro.brb.optimized.CrossLayerBrachaDolev` — the paper's
  contribution: the cross-layer combination supporting the MBD.1–12
  modifications.
"""

from repro.brb.bracha import BrachaBroadcast
from repro.brb.dolev import DolevBroadcast, OptimizedDolevBroadcast
from repro.brb.bracha_dolev import BrachaDolevBroadcast
from repro.brb.optimized import CrossLayerBrachaDolev

__all__ = [
    "BrachaBroadcast",
    "DolevBroadcast",
    "OptimizedDolevBroadcast",
    "BrachaDolevBroadcast",
    "CrossLayerBrachaDolev",
]
