"""End-to-end integration tests across all subsystems."""

import numpy as np
import pytest

from repro.dataplane.transmit import simulate_stream
from repro.media.codec import PROFILE_1080P
from repro.media.turn import TurnService
from repro.net.asn import ASType
from repro.vns.pop import POPS


class TestFullPipeline:
    def test_world_converged(self, small_world):
        network = small_world.service.network
        assert network.engine.converged
        assert network.total_loc_rib_size() > 0

    def test_every_prefix_routable_from_every_pop(self, small_world):
        service = small_world.service
        prefixes = service.topology.prefixes()
        missing = 0
        for prefix in prefixes:
            for pop in ("AMS", "SJS", "SIN"):
                if service.egress_decision(pop, prefix) is None:
                    missing += 1
        assert missing <= 0.02 * len(prefixes) * 3

    def test_vns_beats_internet_for_long_distance_calls(self, small_world):
        """The headline claim: VNS reduces loss for long-distance calls."""
        service = small_world.service
        rng = np.random.default_rng(99)
        topology = service.topology
        # One EU user, one AP user (edge networks).
        eu = next(
            s
            for s in topology.ases.values()
            if s.as_type is ASType.EC
            and s.home.city.region.value == "Europe"
            and s.prefixes
        )
        ap = next(
            s
            for s in topology.ases.values()
            if s.as_type is ASType.EC
            and s.home.city.region.value == "Asia Pacific"
            and s.prefixes
        )
        call = service.call_paths(
            eu.prefixes[0],
            topology.host_location(eu.prefixes[0], rng),
            ap.prefixes[0],
            topology.host_location(ap.prefixes[0], rng),
        )
        assert call is not None

        def mean_loss(path) -> float:
            losses = [
                simulate_stream(path, rng=rng, hour_cet=float(h % 24)).loss_percent
                for h in range(60)
            ]
            return float(np.mean(losses))

        loss_vns = mean_loss(call.via_vns)
        loss_internet = mean_loss(call.via_internet)
        assert loss_vns < loss_internet

    def test_turn_plus_media_session(self, small_world):
        """TURN allocation, then media both ways over the allocated path."""
        service = small_world.service
        rng = np.random.default_rng(5)
        turn = TurnService(service)
        user = next(
            s
            for s in service.topology.ases.values()
            if s.as_type is ASType.EC and s.prefixes
        )
        allocation, pop = turn.request("alice", user.asn, user.home.location)
        assert allocation is not None
        last_mile = service.last_mile_path(
            user.prefixes[0], user.home.location, pop.code
        )
        pps = PROFILE_1080P.packets_per_second
        outbound = simulate_stream(last_mile, packets_per_second=pps, rng=rng)
        inbound = simulate_stream(last_mile.reversed(), packets_per_second=pps, rng=rng)
        assert outbound.n_slots == inbound.n_slots == 24
        assert inbound.rtt_ms == pytest.approx(outbound.rtt_ms)

    def test_before_after_share_topology(self, small_world_pair):
        before = small_world_pair.before
        after = small_world_pair.service
        assert before.topology is after.topology
        assert before.routing is after.routing

    def test_geo_on_vs_off_disagree(self, small_world_pair):
        """The two deployments must produce materially different egress
        choices — otherwise Fig. 4/5 would be vacuous."""
        after = small_world_pair.service
        before = small_world_pair.before
        differing = 0
        total = 0
        for prefix in after.topology.prefixes():
            d_after = after.egress_decision("LON", prefix)
            d_before = before.egress_decision("LON", prefix)
            if d_after is None or d_before is None:
                continue
            total += 1
            differing += d_after.egress_pop != d_before.egress_pop
        assert total > 0
        assert differing / total > 0.3

    def test_rtt_sanity_across_pops(self, small_world):
        """Internal RTTs roughly match geography (AMS-FRA short,
        AMS-SYD long)."""
        service = small_world.service
        short = service.vns_internal_path("AMS", "FRA").rtt_ms()
        long = service.vns_internal_path("AMS", "SYD").rtt_ms()
        assert short < 15.0
        assert 120.0 < long < 350.0

    def test_loc_ribs_agree_on_egress_pop(self, small_world):
        """All border routers resolve the same egress PoP per prefix —
        no forwarding loops inside VNS."""
        service = small_world.service
        network = service.network
        for prefix in service.topology.prefixes()[:50]:
            egresses = set()
            for pop in POPS:
                decision = network.egress_decision(pop.code, prefix)
                if decision is not None:
                    egresses.add(decision.egress_pop)
            assert len(egresses) <= 1, str(prefix)
