"""Unit tests for path segments and their loss sampling."""

import numpy as np
import pytest

from repro.dataplane.link import (
    KIND_CODE,
    LOSS_TABLE,
    PathSegment,
    SegmentKind,
    degrade_segment,
    intern_segment,
)
from repro.geo.cities import city_by_name
from repro.geo.regions import WorldRegion
from repro.net.asn import ASType

AMS = city_by_name("Amsterdam").location
FRA = city_by_name("Frankfurt").location
SIN = city_by_name("Singapore").location
SJS = city_by_name("San Jose").location
ATL = city_by_name("Atlanta").location
HK = city_by_name("Hong Kong").location


def seg(kind=SegmentKind.TRANSIT, start=AMS, end=SIN, **kwargs) -> PathSegment:
    return PathSegment(kind=kind, start=start, end=end, **kwargs)


class TestGeometry:
    def test_distance_and_long_haul(self):
        assert seg().is_long_haul
        assert not seg(end=FRA).is_long_haul

    def test_regions(self):
        s = seg()
        assert s.start_region is WorldRegion.EUROPE
        assert s.end_region is WorldRegion.ASIA_PACIFIC

    def test_delay_includes_per_hop_constant(self):
        zero = seg(end=AMS)
        assert zero.delay_ms() > 0.0

    def test_vns_lower_inflation(self):
        transit = seg(kind=SegmentKind.TRANSIT)
        vns = seg(kind=SegmentKind.VNS_L2)
        assert vns.delay_ms() < transit.delay_ms()


class TestSampling:
    def test_vector_shape_and_bounds(self, rng):
        rates = seg().sample_slot_rates(24, 12.0, rng)
        assert rates.shape == (24,)
        assert (rates >= 0).all() and (rates <= 0.95).all()

    def test_invalid_slots(self, rng):
        with pytest.raises(ValueError):
            seg().sample_slot_rates(0, 12.0, rng)

    def test_invalid_duration(self, rng):
        with pytest.raises(ValueError):
            seg().sample_slot_rates(1, 12.0, rng, duration_s=0.0)

    def test_peering_lossless(self, rng):
        rates = seg(kind=SegmentKind.PEERING).sample_slot_rates(24, 12.0, rng)
        assert (rates == 0).all()

    def test_vns_intra_nearly_lossless(self, rng):
        s = seg(kind=SegmentKind.VNS_L2, start=AMS, end=FRA)
        total = sum(s.sample_slot_rates(24, 12.0, rng).sum() for _ in range(200))
        assert total < 0.05

    def test_vns_long_haul_minor_loss_only(self, rng):
        s = seg(kind=SegmentKind.VNS_L2, start=AMS, end=SIN)
        rates = np.concatenate(
            [s.sample_slot_rates(24, 12.0, rng) for _ in range(500)]
        )
        # Mean well below 0.1% ("minor loss (<0.01%)" typical).
        assert rates.mean() < 1e-3
        assert rates.max() < 5e-3

    def test_transit_ap_worse_than_eu(self, rng):
        ap = seg(start=HK, end=SIN)
        eu_pair = seg(start=AMS, end=city_by_name("Moscow").location)
        mean_ap = np.mean(
            [ap.sample_slot_rates(24, 12.0, rng).mean() for _ in range(800)]
        )
        mean_eu = np.mean(
            [eu_pair.sample_slot_rates(24, 12.0, rng).mean() for _ in range(800)]
        )
        assert mean_ap > mean_eu

    def test_premium_trunk_loses_less(self, rng):
        premium = seg(owner_type=ASType.LTP)
        small = seg(owner_type=ASType.STP)
        mean_premium = np.mean(
            [premium.sample_slot_rates(24, 12.0, rng).mean() for _ in range(800)]
        )
        mean_small = np.mean(
            [small.sample_slot_rates(24, 12.0, rng).mean() for _ in range(800)]
        )
        assert mean_small > mean_premium

    def test_west_coast_discount(self):
        west = seg(start=SJS, end=HK)
        east = seg(start=ATL, end=HK)
        west_prob = west._derive_loss_params(12.0).spread_prob
        assert west_prob < east._derive_loss_params(12.0).spread_prob

    def test_access_mean_tracks_base(self, rng):
        s = seg(kind=SegmentKind.ACCESS, start=SIN, end=SIN, as_type=ASType.CAHP)
        samples = np.concatenate(
            [s.sample_slot_rates(24, h % 24, rng) for h in range(2000)]
        )
        # CAHP in AP has base 1.8%; the diurnal-averaged mean should land
        # in the same ballpark.
        assert 0.008 < samples.mean() < 0.035

    def test_access_is_episodic(self, rng):
        s = seg(kind=SegmentKind.ACCESS, start=SIN, end=SIN, as_type=ASType.CAHP)
        samples = np.concatenate(
            [s.sample_slot_rates(24, 12.0, rng) for _ in range(200)]
        )
        zero_fraction = (samples == 0).mean()
        assert zero_fraction > 0.5  # most slots clean

    def test_access_type_ordering_ap(self, rng):
        def mean_for(as_type):
            s = seg(kind=SegmentKind.ACCESS, start=SIN, end=SIN, as_type=as_type)
            return np.mean(
                [s.sample_slot_rates(24, 12.0, rng).mean() for _ in range(2000)]
            )

        ltp, stp, cahp = mean_for(ASType.LTP), mean_for(ASType.STP), mean_for(ASType.CAHP)
        assert ltp < stp < cahp

    def test_short_haul_transit_has_no_spread(self, rng):
        s = seg(start=AMS, end=FRA)
        rates = np.concatenate(
            [s.sample_slot_rates(24, 12.0, rng) for _ in range(300)]
        )
        # Only the floor and rare bursts; typical slot is clean.
        assert np.median(rates) < 1e-5


class TestLossTable:
    """Segment ids and parameter rows are keyed by segment *value*."""

    def test_equal_values_intern_to_one_id(self):
        a, b = seg(owner_type=ASType.LTP), seg(owner_type=ASType.LTP)
        assert a is not b and a == b
        assert LOSS_TABLE.segment_id(a) == LOSS_TABLE.segment_id(b)
        assert LOSS_TABLE.segment_id(a) != LOSS_TABLE.segment_id(seg(owner_type=ASType.STP))

    def test_assembly_shares_one_object_per_value(self):
        a = intern_segment(SegmentKind.VNS_L2, AMS, FRA, label="AMS==FRA")
        assert intern_segment(SegmentKind.VNS_L2, AMS, FRA, label="AMS==FRA") is a
        twin = seg(kind=SegmentKind.VNS_L2, end=FRA, label="AMS==FRA")
        assert LOSS_TABLE.segment_id(twin) == LOSS_TABLE.segment_id(a)
        assert LOSS_TABLE.segments[LOSS_TABLE.segment_id(a)] is a

    def test_degraded_never_shares_a_row_with_its_healthy_twin(self):
        healthy = seg(owner_type=ASType.LTP)
        degraded = degrade_segment(healthy, extra_loss=0.04)
        # Even a zero impairment is its own value: repairing a fault goes
        # back to the healthy segment, never through a shared row.
        nominal = degrade_segment(healthy)
        sids = tuple(map(LOSS_TABLE.segment_id, (healthy, degraded, nominal)))
        assert len(set(sids)) == 3
        rows = LOSS_TABLE.rows(sids, 20.5)
        assert len(set(rows)) == 3 and min(rows) >= 1
        assert LOSS_TABLE.rows(sids, 20.5) == rows  # rows are stable
        assert set(LOSS_TABLE.rows(sids, 4.5)).isdisjoint(rows)  # per hour
        columns = LOSS_TABLE.columns
        assert list(columns.extra_loss[rows]) == [0.0, 0.04, 0.0]
        assert columns.spread_prob[rows[0]] == columns.spread_prob[rows[1]]

    def test_rows_hold_the_one_derivation(self):
        segments = [
            seg(kind=SegmentKind.ACCESS, start=SIN, end=SIN, as_type=ASType.CAHP),
            seg(owner_type=ASType.STP),
            seg(end=FRA),
            seg(kind=SegmentKind.VNS_L2),
            seg(kind=SegmentKind.PEERING, end=AMS),
        ]
        sids = tuple(map(LOSS_TABLE.segment_id, segments))
        columns_of = lambda: LOSS_TABLE.columns  # noqa: E731 - re-read after growth
        for hour in (3.5, 12.5, 21.5):
            for segment, row in zip(segments, LOSS_TABLE.rows(sids, hour)):
                params = segment._derive_loss_params(hour)
                stored = [column[row] for column in columns_of()]
                assert stored[0] == KIND_CODE[params.kind]
                assert stored[1:] == list(params[1:])

    def test_table_grows_past_its_first_allocation(self):
        segment = seg(label="grows")
        sid = LOSS_TABLE.segment_id(segment)
        hours = [0.001 * k for k in range(600)]
        rows = [LOSS_TABLE.rows((sid,), hour)[0] for hour in hours]
        assert rows == list(range(rows[0], rows[0] + 600))
        columns = LOSS_TABLE.columns
        assert columns.kind[0] == 0  # the padding row
        assert (columns.kind[rows] == KIND_CODE[SegmentKind.TRANSIT]).all()
        expected = [segment._derive_loss_params(hour).burst_scale_120s for hour in hours]
        assert list(columns.burst_scale_120s[rows]) == expected

    def test_pickle_carries_the_value_not_the_process_ids(self):
        import pickle

        for original in (seg(label="x"), degrade_segment(seg(label="x"), extra_loss=0.1)):
            LOSS_TABLE.segment_id(original)
            clone = pickle.loads(pickle.dumps(original))
            assert clone == original and type(clone) is type(original)
            assert clone._sid == -1 and hash(clone) == hash(original)
            assert LOSS_TABLE.segment_id(clone) == LOSS_TABLE.segment_id(original)
