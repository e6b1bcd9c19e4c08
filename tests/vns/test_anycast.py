"""Tests for anycast entry-PoP resolution."""

from repro.geo.regions import PopRegion
from repro.net.asn import ASType
from repro.vns.network import VNS_ASN
from repro.vns.pop import nearest_pop


class TestAnycast:
    def test_entry_path_terminates_at_vns(self, small_world):
        service = small_world.service
        user = next(
            s
            for s in service.topology.ases.values()
            if s.as_type is ASType.EC and s.prefixes
        )
        resolved = service.anycast.entry_path(user.asn, user.home.location)
        assert resolved is not None
        pop, as_path = resolved
        assert as_path[-1] == VNS_ASN
        assert as_path[0] == user.asn

    def test_entry_pop_has_session_with_last_hop(self, small_world):
        service = small_world.service
        for system in service.topology.ases.values():
            if not system.prefixes or system.as_type is not ASType.EC:
                continue
            resolved = service.anycast.entry_path(system.asn, system.home.location)
            assert resolved is not None
            pop, as_path = resolved
            neighbor = as_path[-2]
            assert pop.code in service.deployment.session_pops(neighbor)

    def test_mostly_follows_geography(self, small_world):
        """Across all edge ASes, entries land in the user's PoP region for
        a solid majority — the Fig. 7 headline."""
        service = small_world.service
        matches = 0
        total = 0
        for system in service.topology.ases.values():
            if system.as_type not in (ASType.EC, ASType.CAHP):
                continue
            pop = service.anycast.entry_pop(system.asn, system.home.location)
            if pop is None:
                continue
            total += 1
            if pop.region is system.home.city.pop_region:
                matches += 1
        assert total > 10
        assert matches / total > 0.6

    def test_nearest_pop_ideal(self, small_world):
        from repro.geo.cities import city_by_name

        assert nearest_pop(city_by_name("Paris").location).region is PopRegion.EU
