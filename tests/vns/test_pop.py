"""Unit tests for PoP definitions."""

import pytest

from repro.geo.regions import PopRegion
from repro.vns.pop import (
    POPS,
    nearest_pop,
    pop_by_code,
    pops_in_region,
)
from repro.geo.cities import city_by_name


class TestFootprint:
    def test_eleven_pops(self):
        assert len(POPS) == 11

    def test_four_continents(self):
        assert {pop.region for pop in POPS} == set(PopRegion)

    def test_over_twenty_border_routers(self):
        # Sec. 3.2: "over 20 routers in 11 PoPs".
        assert sum(pop.n_border_routers for pop in POPS) > 20

    def test_fig4_constraints(self):
        # PoP 10 is London; 3 and 5 US east coast; 7 AP; 9 EU.
        by_id = {pop.pop_id: pop for pop in POPS}
        assert by_id[10].code == "LON"
        assert by_id[3].region is PopRegion.NA
        assert by_id[5].region is PopRegion.NA
        assert by_id[7].region is PopRegion.AP
        assert by_id[9].region is PopRegion.EU

    def test_unique_ids_and_codes(self):
        assert len({pop.pop_id for pop in POPS}) == 11
        assert len({pop.code for pop in POPS}) == 11

    def test_lookup_roundtrip(self):
        for pop in POPS:
            assert pop_by_code(pop.code) is pop

    def test_unknown_lookups(self):
        with pytest.raises(KeyError):
            pop_by_code("XXX")

    def test_router_ids(self):
        lon = pop_by_code("LON")
        assert lon.router_ids() == ["LON-r1", "LON-r2"]

    def test_regional_clusters(self):
        assert {p.code for p in pops_in_region(PopRegion.EU)} == {
            "OSL",
            "AMS",
            "FRA",
            "LON",
        }
        assert {p.code for p in pops_in_region(PopRegion.OC)} == {"SYD"}

    def test_nearest_pop(self):
        assert nearest_pop(city_by_name("Paris").location).code in ("LON", "AMS", "FRA")
        assert nearest_pop(city_by_name("Melbourne").location).code == "SYD"

    def test_nearest_pop_matches_exact_haversine(self):
        # The cached-trig fast path must agree with the textbook formula
        # for every PoP from a spread of vantage points.
        from repro.geo.coords import great_circle_km

        for city in ("Paris", "Tokyo", "Atlanta", "Singapore", "Oslo"):
            location = city_by_name(city).location
            exact = min(POPS, key=lambda pop: great_circle_km(pop.location, location))
            assert nearest_pop(location) is exact

    def test_nearest_pop_among_subset(self):
        paris = city_by_name("Paris").location
        subset = [pop_by_code("SYD"), pop_by_code("TYO")]
        assert nearest_pop(paris, among=subset).code == "TYO"

    def test_nearest_pop_empty_candidates(self):
        with pytest.raises(ValueError):
            nearest_pop(city_by_name("Paris").location, among=[])
