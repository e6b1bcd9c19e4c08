"""Shape tests for Fig. 11, Table 1 and Fig. 12 (last-mile campaign)."""

import pytest

from repro.experiments import fig11_lastmile, fig12_diurnal, table1_astype
from repro.geo.regions import WorldRegion
from repro.net.asn import ASType

AP = WorldRegion.ASIA_PACIFIC
EU = WorldRegion.EUROPE
NA = WorldRegion.NORTH_CENTRAL_AMERICA


@pytest.fixture(scope="module")
def fig11(lastmile_data):
    return fig11_lastmile.run(lastmile_data)


@pytest.fixture(scope="module")
def table1(lastmile_data):
    return table1_astype.run(lastmile_data)


@pytest.fixture(scope="module")
def fig12(lastmile_data):
    return fig12_diurnal.run(lastmile_data)


class TestFig11:
    def test_ap_destinations_worst(self, fig11):
        """From every PoP, AP destinations lose the most."""
        from repro.experiments.lastmile import LASTMILE_POPS

        for pop_code in LASTMILE_POPS:
            ap = fig11.loss(pop_code, AP)
            eu = fig11.loss(pop_code, EU)
            assert ap > eu, pop_code

    def test_distance_raises_loss_toward_eu(self, fig11):
        """AP PoPs see more loss to EU hosts than EU PoPs do (paper:
        2.1-14.2x, excluding London)."""
        ap_to_eu = fig11.region_average("AP", EU)
        eu_to_eu = fig11.region_average("EU", EU)
        assert ap_to_eu > 1.3 * eu_to_eu

    def test_london_anomaly(self, fig11):
        """LON→EU is worse than the other EU PoPs (US-based upstream)."""
        assert fig11.london_eu_ratio() > 1.1

    def test_all_cells_populated(self, fig11):
        from repro.experiments.lastmile import LASTMILE_POPS

        for pop_code in LASTMILE_POPS:
            for region in (AP, EU, NA):
                assert fig11.loss(pop_code, region) > 0.0

    def test_render(self, fig11):
        text = fig11_lastmile.render(fig11)
        assert "London" in text


class TestTable1:
    def test_ap_ltp_best(self, table1):
        ordering = table1.ordering(AP)
        assert ordering[0] is ASType.LTP
        assert ordering[-1] is ASType.CAHP

    def test_eu_ordering(self, table1):
        ordering = table1.ordering(EU)
        assert ordering[0] is ASType.LTP
        assert ordering[-1] is ASType.CAHP

    def test_na_blurred(self, table1):
        """In North America the difference between AS types is small."""
        assert table1.spread(NA) < table1.spread(AP)
        assert table1.spread(NA) < 3.5

    def test_ap_worse_than_eu_per_type(self, table1):
        for as_type in ASType:
            assert table1.loss(AP, as_type) > table1.loss(EU, as_type)

    def test_magnitudes_near_paper(self, table1):
        """Measured cells should land within a factor ~3 of the paper."""
        from repro.experiments.table1_astype import PAPER_TABLE1

        for region, row in PAPER_TABLE1.items():
            for as_type, paper_value in row.items():
                measured = table1.loss(region, as_type)
                assert measured > paper_value / 4
                assert measured < paper_value * 4

    def test_render(self, table1):
        text = table1_astype.render(table1)
        assert "LTP" in text and "CAHP" in text


def loss_round_count(data, *, pop_code, dest_region, as_type, hour_cet) -> int:
    """Lossy rounds in one CET-hour bucket, one full scan per bucket: the
    oracle for :func:`fig12_diurnal.run`'s single bucketing pass."""
    count = 0
    for observation in data.observations:
        if (
            observation.pop_code == pop_code
            and observation.host.region is dest_region
            and observation.host.as_type is as_type
            and int(observation.round.hour_cet) == hour_cet
            and observation.had_loss
        ):
            count += 1
    return count


class TestFig12:
    def test_series_match_per_bucket_scan(self, fig12, lastmile_data):
        from repro.geo.regions import LAST_MILE_STUDY_REGIONS

        expected = {
            (as_type, region): [
                loss_round_count(
                    lastmile_data,
                    pop_code=fig12_diurnal.VANTAGE,
                    dest_region=region,
                    as_type=as_type,
                    hour_cet=hour,
                )
                for hour in range(24)
            ]
            for as_type in ASType
            for region in LAST_MILE_STUDY_REGIONS
        }
        assert list(fig12.series.items()) == list(expected.items())
        assert sum(map(sum, expected.values())) > 0

    def test_series_shape(self, fig12):
        for as_type in ASType:
            for region in (AP, EU, NA):
                assert len(fig12.hourly(as_type, region)) == 24

    def test_diurnal_swing_exists(self, fig12):
        """Loss frequency must vary clearly over the day for the
        residential-heavy AS types."""
        assert fig12.peak_to_trough(ASType.CAHP, AP) > 1.5

    def test_cahp_peaks_in_local_window(self, fig12):
        """CAHP loss peaks during destination-local waking hours for at
        least two of the three regions (small-sample noise allowed)."""
        hits = sum(
            fig12.peak_within_local_window(ASType.CAHP, region)
            for region in (AP, EU, NA)
        )
        assert hits >= 2

    def test_ap_losses_concentrated_in_ap_hours(self, fig12):
        """AP destinations lose most packets during AP's local day —
        which in CET is roughly 0:00-16:00 (the paper's 'drops as the day
        ends around 3PM CET')."""
        counts = fig12.hourly(ASType.CAHP, AP)
        ap_day = sum(counts[0:16])
        ap_night = sum(counts[16:24])
        assert ap_day > ap_night

    def test_render(self, fig12):
        text = fig12_diurnal.render(fig12)
        assert "peak" in text
