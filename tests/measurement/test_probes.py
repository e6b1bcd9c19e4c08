"""Tests for the last-mile loss probe campaign."""

import numpy as np
import pytest

from repro.geo.regions import WorldRegion
from repro.measurement.probes import (
    PACKETS_PER_ROUND,
    LossProbeCampaign,
    ProbeObservation,
    select_hosts,
)
from repro.measurement.scheduler import Round
from repro.net.asn import ASType


def _host(small_world):
    rng = np.random.default_rng(0)
    return select_hosts(small_world.service, rng, per_type_per_region=1)[0]


class TestSelectHosts:
    def test_buckets_filled(self, small_world):
        rng = np.random.default_rng(0)
        hosts = select_hosts(small_world.service, rng, per_type_per_region=4)
        buckets = {}
        for host in hosts:
            buckets.setdefault((host.region, host.as_type), []).append(host)
        # All 3 regions x 4 types present (the generator guarantees
        # coverage).
        assert len(buckets) == 12
        for bucket in buckets.values():
            assert len(bucket) == 4

    def test_prefix_diversity(self, small_world):
        rng = np.random.default_rng(0)
        hosts = select_hosts(small_world.service, rng, per_type_per_region=4)
        # Hosts should span several distinct prefixes.
        assert len({h.prefix for h in hosts}) > len(hosts) // 2

    def test_explicit_seed_is_deterministic(self, small_world):
        first = select_hosts(
            small_world.service, np.random.default_rng(7), per_type_per_region=2
        )
        second = select_hosts(
            small_world.service, np.random.default_rng(7), per_type_per_region=2
        )
        assert first == second


class TestProbeObservationBoundaries:
    def test_zero_probes_sent(self, small_world):
        obs = ProbeObservation(
            pop_code="AMS",
            host=_host(small_world),
            round=Round(day=0, hour_cet=0.0),
            sent=0,
            lost=0,
        )
        assert obs.loss_fraction == 0.0
        assert obs.loss_percent == 0.0
        assert not obs.had_loss
        assert obs.min_rtt_ms is None

    def test_total_loss(self, small_world):
        obs = ProbeObservation(
            pop_code="AMS",
            host=_host(small_world),
            round=Round(day=0, hour_cet=0.0),
            sent=100,
            lost=100,
        )
        assert obs.loss_fraction == 1.0
        assert obs.loss_percent == 100.0
        assert obs.had_loss


class TestCampaign:
    def test_probe_observation(self, small_world):
        rng = np.random.default_rng(0)
        campaign = LossProbeCampaign(small_world.service.path_local_exit, rng)
        hosts = select_hosts(small_world.service, rng, per_type_per_region=1)
        obs = campaign.probe("AMS", hosts[0], Round(day=0, hour_cet=12.0))
        assert obs is not None
        assert obs.sent == PACKETS_PER_ROUND
        assert 0 <= obs.lost <= PACKETS_PER_ROUND
        assert obs.loss_percent == pytest.approx(100.0 * obs.lost / PACKETS_PER_ROUND)
        # At least one echo came back, so the round's floor RTT is real.
        assert obs.min_rtt_ms is not None and obs.min_rtt_ms > 0.0

    def test_run_counts(self, small_world):
        rng = np.random.default_rng(0)
        campaign = LossProbeCampaign(small_world.service.path_local_exit, rng)
        hosts = select_hosts(small_world.service, rng, per_type_per_region=1)[:4]
        rounds = [Round(day=0, hour_cet=float(h)) for h in (0, 6, 12, 18)]
        observations = campaign.run(["AMS", "SJS"], hosts, rounds)
        assert len(observations) == 2 * 4 * 4

    def test_path_cache_reused(self, small_world):
        rng = np.random.default_rng(0)
        campaign = LossProbeCampaign(small_world.service.path_local_exit, rng)
        hosts = select_hosts(small_world.service, rng, per_type_per_region=1)[:1]
        campaign.probe("AMS", hosts[0], Round(day=0, hour_cet=0.0))
        campaign.probe("AMS", hosts[0], Round(day=0, hour_cet=1.0))
        assert len(campaign._path_cache) == 1
