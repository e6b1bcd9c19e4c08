"""Tests for the CampaignConfig value object."""

import pytest

from repro.dataplane.transmit import SLOT_S
from repro.workload import CampaignConfig, CampaignEngine
from repro.workload.engine import group_digest, group_key


class TestCampaignConfig:
    def test_frozen_and_validated(self):
        config = CampaignConfig(seed=3)
        with pytest.raises(AttributeError):
            config.seed = 4
        # The stream shape is a class constant, not a field.
        assert (config.packets_per_second, config.slot_s) == (420.0, SLOT_S)
        with pytest.raises(TypeError):
            CampaignConfig(packets_per_second=0)
        with pytest.raises(TypeError):
            CampaignConfig(slot_s=-1.0)

    def test_engine_accepts_config(self, small_world):
        engine = CampaignEngine(small_world.service, CampaignConfig(seed=9))
        assert engine.config == CampaignConfig(seed=9)

    def test_legacy_kwargs_are_gone(self, small_world):
        # The deprecated CampaignEngine(seed=..., slot_s=...) shim was
        # removed after its one-release window: plain TypeError now.
        with pytest.raises(TypeError):
            CampaignEngine(small_world.service, seed=5, slot_s=2.5)
        with pytest.raises(TypeError):
            CampaignEngine(small_world.service, CampaignConfig(), seed=5)

    def test_kernel_option_is_gone(self):
        # One kernel, no selector: the field was deleted with the
        # grouped kernel (no shim), so it is an unknown keyword.
        with pytest.raises(TypeError):
            CampaignConfig(kernel="columnar")
        with pytest.raises(TypeError):
            CampaignConfig(kernel="grouped")

    def test_no_kwargs_no_warning(self, small_world, recwarn):
        engine = CampaignEngine(small_world.service)
        assert engine.config == CampaignConfig()
        assert not [w for w in recwarn if w.category is DeprecationWarning]


class TestGroupDigest:
    def test_same_key_same_digest(self, small_world):
        from repro.workload import CallArrivalProcess, UserPopulation

        population = UserPopulation.sample(small_world.topology, 20, seed=3)
        spec = CallArrivalProcess(population, seed=3).generate(days=1)[0]
        key = group_key(spec)
        first = group_digest(7, key)
        assert first == group_digest(7, key)
        assert first != group_digest(8, key)
        assert all(0 <= word < 2**64 for word in first)
