"""Unit tests for the modification toggle sets."""

import pytest

from repro.core.modifications import MBD_FIELD_NAMES, MD_FIELD_NAMES, ModificationSet
from repro.runner.configs import modification_set_for


class TestPresets:
    def test_none_has_everything_disabled(self):
        mods = ModificationSet.none()
        assert mods.enabled_names() == ()
        assert mods.describe() == "unmodified"

    def test_dolev_optimized_enables_exactly_md1_to_5(self):
        mods = ModificationSet.dolev_optimized()
        assert set(mods.enabled_names()) == set(MD_FIELD_NAMES.values())

    def test_bdopt_configuration_is_dolev_optimized(self):
        assert modification_set_for("bdopt") == ModificationSet.dolev_optimized()

    def test_bdopt_with_mbd1(self):
        mods = ModificationSet.bdopt_with_mbd1()
        assert mods.mbd1_local_payload_ids
        assert mods.md1_deliver_from_source
        assert not mods.mbd2_single_hop_send

    def test_all_enabled(self):
        mods = ModificationSet.all_enabled()
        assert len(mods.enabled_names()) == len(MD_FIELD_NAMES) + len(MBD_FIELD_NAMES)

    def test_latency_preset_contents(self):
        mods = ModificationSet.latency_optimized()
        assert set(mods.enabled_mbd_indices()) == {1, 2, 7, 8, 9}

    def test_bandwidth_preset_contents(self):
        mods = ModificationSet.bandwidth_optimized()
        assert set(mods.enabled_mbd_indices()) == {1, 7, 8, 9, 11}

    def test_latency_and_bandwidth_preset_is_intersection(self):
        lat = set(ModificationSet.latency_optimized().enabled_mbd_indices())
        bdw = set(ModificationSet.bandwidth_optimized().enabled_mbd_indices())
        both = set(ModificationSet.latency_and_bandwidth_optimized().enabled_mbd_indices())
        assert both == (lat & bdw)

    def test_single_mbd_includes_mbd1_reference(self):
        mods = ModificationSet.single_mbd(7)
        assert set(mods.enabled_mbd_indices()) == {1, 7}

    def test_single_mbd_1_does_not_duplicate(self):
        mods = ModificationSet.single_mbd(1)
        assert set(mods.enabled_mbd_indices()) == {1}

    def test_single_mbd_without_mbd1(self):
        mods = ModificationSet.single_mbd(11, with_mbd1=False)
        assert set(mods.enabled_mbd_indices()) == {11}

    def test_single_mbd_rejects_unknown_index(self):
        with pytest.raises(ValueError):
            ModificationSet.single_mbd(13)


class TestManipulation:
    def test_with_enabled_returns_copy(self):
        base = ModificationSet.none()
        enabled = base.with_enabled("mbd7_ignore_echo_after_delivery")
        assert enabled.mbd7_ignore_echo_after_delivery
        assert not base.mbd7_ignore_echo_after_delivery

    def test_with_enabled_unknown_name(self):
        with pytest.raises(ValueError):
            ModificationSet.none().with_enabled("mbd13_not_a_thing")

    def test_with_disabled(self):
        mods = ModificationSet.all_enabled().with_disabled("mbd11_role_restriction")
        assert not mods.mbd11_role_restriction
        assert mods.mbd12_reduced_fanout

    def test_with_disabled_unknown_name(self):
        with pytest.raises(ValueError):
            ModificationSet.none().with_disabled("whatever")

    def test_from_names(self):
        mods = ModificationSet.from_names(["md1_deliver_from_source", "mbd10_ignore_superpaths"])
        assert mods.md1_deliver_from_source
        assert mods.mbd10_ignore_superpaths
        assert len(mods.enabled_names()) == 2

    def test_as_dict_round_trips(self):
        mods = ModificationSet.latency_optimized()
        rebuilt = ModificationSet(**mods.as_dict())
        assert rebuilt == mods

    def test_describe_mentions_md_and_mbd(self):
        description = ModificationSet.bdopt_with_mbd1().describe()
        assert "MD.1/2/3/4/5" in description
        assert "MBD.1" in description

    def test_enabled_mbd_indices_sorted(self):
        mods = ModificationSet.none().with_enabled(
            "mbd9_skip_delivered_neighbors", "mbd2_single_hop_send"
        )
        assert mods.enabled_mbd_indices() == (2, 9)

    def test_immutability(self):
        mods = ModificationSet.none()
        with pytest.raises(Exception):
            mods.mbd1_local_payload_ids = True
