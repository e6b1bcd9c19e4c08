"""Tests for the ping campaign."""

import numpy as np

from repro.measurement.ping import PingCampaign, PopRttMeasurement
from repro.net.addressing import Prefix


class TestPopRttMeasurement:
    def test_best_pop(self):
        m = PopRttMeasurement(prefix=Prefix.parse("10.0.0.0/20"))
        m.rtt_ms_by_pop = {"AMS": 20.0, "LON": 12.0, "SIN": 200.0}
        assert m.best_pop == "LON"
        assert m.rtt_from("SIN") == 200.0
        assert m.rtt_from("SYD") is None

    def test_empty(self):
        m = PopRttMeasurement(prefix=Prefix.parse("10.0.0.0/20"))
        assert m.best_pop is None


class TestPingCampaign:
    def test_probe_prefix_covers_pops(self, small_world):
        campaign = PingCampaign(small_world.service, np.random.default_rng(0))
        prefix = small_world.topology.prefixes()[0]
        measurement = campaign.probe_prefix(prefix)
        # Every PoP has at least a transit route, so coverage is complete.
        assert len(measurement.rtt_ms_by_pop) == 11

    def test_min_rtt_tracks_geography(self, small_world):
        campaign = PingCampaign(small_world.service, np.random.default_rng(0))
        service = small_world.service
        # A prefix whose true home is in Europe should be RTT-closest to
        # a European PoP far more often than to an AP PoP.
        from repro.geo.regions import PopRegion
        from repro.vns.pop import pop_by_code

        eu_wins = 0
        count = 0
        for prefix in service.topology.prefixes():
            location = service.topology.prefix_location[prefix]
            from repro.geo.cities import region_of_point
            from repro.geo.regions import WorldRegion

            if region_of_point(location) is not WorldRegion.EUROPE:
                continue
            count += 1
            measurement = campaign.probe_prefix(prefix)
            if measurement.best_pop is None:
                continue
            if pop_by_code(measurement.best_pop).region is PopRegion.EU:
                eu_wins += 1
            if count >= 25:
                break
        assert count > 5
        assert eu_wins / count > 0.7
