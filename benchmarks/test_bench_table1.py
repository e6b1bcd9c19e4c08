"""Regenerates Table 1: last-mile loss by AS type, from Amsterdam
(Sec. 5.2.3).

Paper values (percent):

    Region   LTP     STP     CAHP    EC
    AP       0.45    1.30    2.80    1.92
    EU       0.11    0.62    1.58    0.52
    NA       0.57    0.49    0.46    0.55

Reproduced shape: orderings per region (AP: LTP < STP < EC < CAHP; EU:
LTP lowest, CAHP highest) and a blurred, flat NA column.
"""

import pytest

from repro.experiments import table1_astype
from repro.experiments.lastmile import run_lastmile_campaign
from repro.geo.regions import WorldRegion
from repro.net.asn import ASType

from .conftest import record_row, run_once

AP = WorldRegion.ASIA_PACIFIC
EU = WorldRegion.EUROPE
NA = WorldRegion.NORTH_CENTRAL_AMERICA


@pytest.fixture(scope="module")
def campaign(medium_world):
    return run_lastmile_campaign(
        medium_world,
        hosts_per_type_per_region=12,
        days=2,
        minutes_between_rounds=30.0,
        pop_codes=("AMS",),
    )


def test_bench_table1_as_types(benchmark, campaign, show):
    result = run_once(benchmark, table1_astype.run, campaign)
    show(table1_astype.render(result))

    # --- shape assertions -----------------------------------------------
    # AP: clear transit-market hierarchy, LTP best, CAHP worst.
    assert result.ordering(AP)[0] is ASType.LTP
    assert result.ordering(AP)[-1] is ASType.CAHP
    # EU: LTP lowest, CAHP highest.
    assert result.ordering(EU)[0] is ASType.LTP
    assert result.ordering(EU)[-1] is ASType.CAHP
    # NA: the hierarchy is blurred — far flatter than AP.
    assert result.spread(NA) < result.spread(AP)
    assert result.spread(NA) < 3.5
    # Every AP cell exceeds its EU counterpart.
    for as_type in ASType:
        assert result.loss(AP, as_type) > result.loss(EU, as_type)
    # Magnitudes within a small factor of the paper's cells.
    for region, row in table1_astype.PAPER_TABLE1.items():
        for as_type, paper_value in row.items():
            measured = result.loss(region, as_type)
            assert paper_value / 4 < measured < paper_value * 4, (region, as_type)
    record_row(
        "table1",
        ap_spread=result.spread(AP),
        na_spread=result.spread(NA),
        ap_cahp_loss_pct=result.loss(AP, ASType.CAHP),
        eu_ltp_loss_pct=result.loss(EU, ASType.LTP),
    )
