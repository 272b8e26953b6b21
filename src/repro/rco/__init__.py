"""Causally-ordered reliable broadcast (RCO) stacked on BRB.

The paper's cross-layer Bracha–Dolev stack stops at reliable broadcast;
this package layers vector-clock causal order on top of exactly that
primitive.  :class:`~repro.rco.protocol.CausalOrderBroadcast` wraps any
BRB implementation through the sans-io protocol interface, so the same
wrapper runs unchanged on the discrete-event simulator and the asyncio
TCP runtime; :mod:`repro.rco.causal` provides the trace-level causal
delivery predicate the safety oracle asserts (and cross-backend
conformance compares through the oracle).
"""

from repro.rco.causal import (
    causal_dependencies,
    causal_order_violations,
)
from repro.rco.protocol import (
    RCO_PROTOCOLS,
    CausalOrderBroadcast,
    decode_rco_envelope,
    encode_rco_envelope,
)

__all__ = [
    "RCO_PROTOCOLS",
    "CausalOrderBroadcast",
    "encode_rco_envelope",
    "decode_rco_envelope",
    "causal_dependencies",
    "causal_order_violations",
]
