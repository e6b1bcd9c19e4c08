"""Unit tests for IXPs."""

from repro.geo.cities import city_by_name
from repro.net.ixp import ixp_for_city


class TestIXP:
    def test_well_known_name(self):
        ixp = ixp_for_city(city_by_name("Amsterdam"))
        assert ixp.name == "AMS-IX"

    def test_generated_name(self):
        ixp = ixp_for_city(city_by_name("Kyiv"))
        assert ixp.name == "IX-Kyiv"

    def test_membership(self):
        ixp = ixp_for_city(city_by_name("London"))
        ixp.add_member(64512)
        ixp.add_member(64512)  # idempotent
        assert 64512 in ixp
        assert len(ixp.members) == 1
