"""Unit tests for AS entities."""

import pytest

from repro.geo.cities import city_by_name
from repro.net.asn import ASType, AutonomousSystem, PresencePoint


def make_system(asn: int = 64512, cities=("Amsterdam", "Frankfurt")) -> AutonomousSystem:
    points = [
        PresencePoint(city=city_by_name(name), location=city_by_name(name).location)
        for name in cities
    ]
    return AutonomousSystem(
        asn=asn,
        name=f"TEST-{asn}",
        as_type=ASType.STP,
        home=points[0],
        presence=points,
    )


class TestAutonomousSystem:
    def test_positive_asn_required(self):
        with pytest.raises(ValueError):
            make_system(asn=0)

    def test_presence_defaults_to_home(self):
        home = PresencePoint(
            city=city_by_name("Oslo"), location=city_by_name("Oslo").location
        )
        system = AutonomousSystem(
            asn=1, name="X", as_type=ASType.EC, home=home, presence=[]
        )
        assert system.presence == (home,)

    def test_nearest_presence(self):
        system = make_system(cities=("Amsterdam", "Tokyo"))
        near_eu = city_by_name("London").location
        assert system.nearest_presence(near_eu).city.name == "Amsterdam"
        near_ap = city_by_name("Seoul").location
        assert system.nearest_presence(near_ap).city.name == "Tokyo"

    def test_add_presence_drops_the_memo(self):
        system = make_system(cities=("Amsterdam", "Tokyo"))
        target = city_by_name("London").location
        assert system.nearest_presence(target).city.name == "Amsterdam"
        london = city_by_name("London")
        system.add_presence(PresencePoint(city=london, location=london.location))
        assert system.nearest_presence(target).city.name == "London"

    def test_presence_is_immutable(self):
        system = make_system()
        with pytest.raises(AttributeError):
            system.presence.append(system.home)

    def test_hash_by_asn(self):
        assert hash(make_system(asn=7)) == hash(make_system(asn=7, cities=("Oslo",)))


class TestASType:
    def test_four_types(self):
        assert {t.value for t in ASType} == {"LTP", "STP", "CAHP", "EC"}
