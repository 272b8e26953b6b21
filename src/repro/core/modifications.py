"""Toggles for the MD.1–5 and MBD.1–12 protocol modifications.

The paper evaluates the impact of 17 modifications:

* MD.1–5 — Bonomi et al.'s optimizations of Dolev's reliable communication
  protocol (Sec. 4.2).  The combination of Bracha's protocol with a Dolev
  layer optimized with MD.1–5 is the state-of-the-art baseline, *BDopt*.
* MBD.1–12 — the paper's new modifications of the Bracha-Dolev
  combination (Sec. 6), some cross-layer.

:class:`ModificationSet` holds one boolean per modification and provides
the named presets used throughout the evaluation: the *lat.*, *bdw.* and
*lat. & bdw.* composite configurations of Sec. 7.4, and per-modification
variants used by the Table 1 and Fig. 7–10 reproductions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Iterable, Tuple


@dataclass(frozen=True)
class ModificationSet:
    """Enabled protocol modifications.

    Each attribute corresponds to one modification of Table 2 of the
    paper.  The defaults (everything disabled) describe the unmodified
    layered Bracha-Dolev combination.
    """

    # --- Bonomi et al.'s Dolev optimizations (MD.1-5) -----------------
    md1_deliver_from_source: bool = False
    md2_empty_path_after_delivery: bool = False
    md3_skip_delivered_neighbors: bool = False
    md4_ignore_paths_with_delivered: bool = False
    md5_stop_after_delivery: bool = False

    # --- the paper's Bracha-Dolev modifications (MBD.1-12) ------------
    mbd1_local_payload_ids: bool = False
    mbd2_single_hop_send: bool = False
    mbd3_echo_echo: bool = False
    mbd4_ready_echo: bool = False
    mbd5_optional_fields: bool = False
    mbd6_ignore_echo_after_ready: bool = False
    mbd7_ignore_echo_after_delivery: bool = False
    mbd8_skip_echo_to_ready_neighbors: bool = False
    mbd9_skip_delivered_neighbors: bool = False
    mbd10_ignore_superpaths: bool = False
    mbd11_role_restriction: bool = False
    mbd12_reduced_fanout: bool = False

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "ModificationSet":
        """The unmodified Bracha-Dolev combination (plain *BD*)."""
        return cls()

    @classmethod
    def dolev_optimized(cls) -> "ModificationSet":
        """Only MD.1–5 enabled — the *BDopt* baseline of the paper."""
        return cls(
            md1_deliver_from_source=True,
            md2_empty_path_after_delivery=True,
            md3_skip_delivered_neighbors=True,
            md4_ignore_paths_with_delivered=True,
            md5_stop_after_delivery=True,
        )

    @classmethod
    def bdopt_with_mbd1(cls) -> "ModificationSet":
        """*BDopt* plus MBD.1, the reference point for MBD.2–12 in Table 1."""
        return cls.dolev_optimized().with_enabled("mbd1_local_payload_ids")

    @classmethod
    def all_enabled(cls) -> "ModificationSet":
        """Every modification enabled."""
        values = {f.name: True for f in fields(cls)}
        return cls(**values)

    @classmethod
    def latency_optimized(cls) -> "ModificationSet":
        """The *lat.* configuration of Sec. 7.4.

        Contains the modifications whose median impact decreases latency
        (Fig. 9): MBD.1, MBD.2, MBD.7, MBD.8 and MBD.9, on top of MD.1–5.
        """
        return cls.dolev_optimized().with_enabled(
            "mbd1_local_payload_ids",
            "mbd2_single_hop_send",
            "mbd7_ignore_echo_after_delivery",
            "mbd8_skip_echo_to_ready_neighbors",
            "mbd9_skip_delivered_neighbors",
        )

    @classmethod
    def bandwidth_optimized(cls) -> "ModificationSet":
        """The *bdw.* configuration of Sec. 7.4.

        Contains the modifications whose median impact decreases network
        consumption (Fig. 7): MBD.1, MBD.7, MBD.8, MBD.9 and MBD.11, on
        top of MD.1–5.
        """
        return cls.dolev_optimized().with_enabled(
            "mbd1_local_payload_ids",
            "mbd7_ignore_echo_after_delivery",
            "mbd8_skip_echo_to_ready_neighbors",
            "mbd9_skip_delivered_neighbors",
            "mbd11_role_restriction",
        )

    @classmethod
    def latency_and_bandwidth_optimized(cls) -> "ModificationSet":
        """The *lat. & bdw.* configuration of Sec. 7.4.

        Contains the modifications that decrease both latency and network
        consumption: MBD.1, MBD.7, MBD.8 and MBD.9, on top of MD.1–5.
        """
        return cls.dolev_optimized().with_enabled(
            "mbd1_local_payload_ids",
            "mbd7_ignore_echo_after_delivery",
            "mbd8_skip_echo_to_ready_neighbors",
            "mbd9_skip_delivered_neighbors",
        )

    @classmethod
    def single_mbd(cls, index: int, *, with_mbd1: bool = True) -> "ModificationSet":
        """BDopt plus a single MBD modification, as evaluated in Table 1.

        Parameters
        ----------
        index:
            The MBD modification number, 1–12.
        with_mbd1:
            When true (the default, matching the paper), MBD.2–12 variants
            also enable MBD.1 because Table 1 reports their impact relative
            to BDopt + MBD.1.
        """
        name = _MBD_FIELDS.get(index)
        if name is None:
            raise ValueError(f"unknown MBD modification index: {index}")
        base = cls.dolev_optimized()
        if with_mbd1 and index != 1:
            base = base.with_enabled("mbd1_local_payload_ids")
        return base.with_enabled(name)

    # ------------------------------------------------------------------
    # Manipulation helpers
    # ------------------------------------------------------------------
    def with_enabled(self, *names: str) -> "ModificationSet":
        """Return a copy with the given modification attributes enabled."""
        changes = {}
        valid = {f.name for f in fields(self)}
        for name in names:
            if name not in valid:
                raise ValueError(f"unknown modification: {name}")
            changes[name] = True
        return replace(self, **changes)

    def with_disabled(self, *names: str) -> "ModificationSet":
        """Return a copy with the given modification attributes disabled."""
        changes = {}
        valid = {f.name for f in fields(self)}
        for name in names:
            if name not in valid:
                raise ValueError(f"unknown modification: {name}")
            changes[name] = False
        return replace(self, **changes)

    def enabled_names(self) -> Tuple[str, ...]:
        """Names of the enabled modifications, in declaration order."""
        return tuple(f.name for f in fields(self) if getattr(self, f.name))

    def enabled_mbd_indices(self) -> Tuple[int, ...]:
        """Indices (1–12) of the enabled MBD modifications."""
        return tuple(
            index for index, name in _MBD_FIELDS.items() if getattr(self, name)
        )

    def as_dict(self) -> Dict[str, bool]:
        """Return a plain dictionary view of the modification toggles."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "ModificationSet":
        """Build a set from an iterable of enabled modification names."""
        return cls().with_enabled(*names)

    def describe(self) -> str:
        """Short human-readable description, e.g. ``"MD.1-5 + MBD.1/7"``."""
        md = [i for i, n in _MD_FIELDS.items() if getattr(self, n)]
        mbd = self.enabled_mbd_indices()
        parts = []
        if md:
            parts.append("MD." + "/".join(str(i) for i in md))
        if mbd:
            parts.append("MBD." + "/".join(str(i) for i in mbd))
        return " + ".join(parts) if parts else "unmodified"


_MD_FIELDS = {
    1: "md1_deliver_from_source",
    2: "md2_empty_path_after_delivery",
    3: "md3_skip_delivered_neighbors",
    4: "md4_ignore_paths_with_delivered",
    5: "md5_stop_after_delivery",
}

_MBD_FIELDS = {
    1: "mbd1_local_payload_ids",
    2: "mbd2_single_hop_send",
    3: "mbd3_echo_echo",
    4: "mbd4_ready_echo",
    5: "mbd5_optional_fields",
    6: "mbd6_ignore_echo_after_ready",
    7: "mbd7_ignore_echo_after_delivery",
    8: "mbd8_skip_echo_to_ready_neighbors",
    9: "mbd9_skip_delivered_neighbors",
    10: "mbd10_ignore_superpaths",
    11: "mbd11_role_restriction",
    12: "mbd12_reduced_fanout",
}

#: Mapping from MBD index to attribute name, exported for the benchmarks.
MBD_FIELD_NAMES = dict(_MBD_FIELDS)

#: Mapping from MD index to attribute name.
MD_FIELD_NAMES = dict(_MD_FIELDS)


__all__ = ["ModificationSet", "MBD_FIELD_NAMES", "MD_FIELD_NAMES"]
