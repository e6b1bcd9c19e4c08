"""Unit tests for path segments and their loss sampling."""

import numpy as np
import pytest

from repro.dataplane.link import (
    KIND_CODE,
    LOSS_TABLE,
    PathSegment,
    SegmentKind,
    SegmentLossParams,
    degrade_segment,
    intern_segment,
    satellite_segment,
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


def param_columns(sids: np.ndarray, hours: tuple[float, ...]):
    """The columns of every id at every hour, hour-major."""
    return LOSS_TABLE.param_columns(
        np.tile(sids, len(hours)), np.repeat(np.arange(len(hours)), len(sids)), np.array(hours)
    )


def assert_columns_are_the_derivation(segments, hours) -> None:
    """Every field of ``segments``' columns at ``hours`` is the scalar one."""
    sids = np.array([LOSS_TABLE.segment_id(s) for s in segments], dtype=np.intp)
    derived = param_columns(sids, hours)
    scalar = [s._derive_loss_params(h) for h in hours for s in segments]
    assert derived.kind.tolist() == [KIND_CODE[p.kind] for p in scalar]
    for name in SegmentLossParams._fields[1:]:
        assert getattr(derived, name).tolist() == [getattr(p, name) for p in scalar], name


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
    """Segment ids, and with them parameters, are keyed by segment *value*."""

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

    def test_degraded_never_shares_parameters_with_its_healthy_twin(self):
        healthy = seg(owner_type=ASType.LTP)
        degraded = degrade_segment(healthy, extra_loss=0.04)
        # Even a zero impairment is its own value: repairing a fault goes
        # back to the healthy segment, never through a shared id.
        nominal = degrade_segment(healthy)
        sids = np.array([LOSS_TABLE.segment_id(s) for s in (healthy, degraded, nominal)])
        assert len(set(sids.tolist())) == 3
        evening = param_columns(sids, (20.5,))
        assert list(evening.extra_loss) == [0.0, 0.04, 0.0]
        assert evening.spread_prob[0] == evening.spread_prob[1]
        assert all(  # a pure function of (value, hour)
            np.array_equal(a, b) for a, b in zip(param_columns(sids, (20.5,)), evening)
        )
        night = param_columns(sids, (4.5,))  # per hour
        assert (night.burst_scale_120s != evening.burst_scale_120s).all()

    def test_columns_hold_the_one_derivation(self):
        segments = [
            seg(kind=SegmentKind.ACCESS, start=SIN, end=SIN, as_type=ASType.CAHP),
            seg(kind=SegmentKind.ACCESS, start=AMS, end=AMS),  # untyped: EC
            seg(owner_type=ASType.STP),
            seg(end=FRA),
            seg(kind=SegmentKind.VNS_L2),
            seg(kind=SegmentKind.VNS_L2, end=FRA),
            seg(kind=SegmentKind.PEERING, end=AMS),
        ]
        assert_columns_are_the_derivation(segments, (3.5, 12.5, 21.5))

    def test_static_arrays_grow_with_the_ids(self):
        first = LOSS_TABLE.static_arrays()
        assert first.kind.size == len(LOSS_TABLE.segments)
        segments = [seg(label=f"grows-{k}") for k in range(600)]
        sids = np.array([LOSS_TABLE.segment_id(s) for s in segments])
        arrays = LOSS_TABLE.static_arrays()
        assert arrays.kind.size == len(LOSS_TABLE.segments) >= first.kind.size + 600
        assert LOSS_TABLE.static_arrays() is arrays  # nothing new: no copy
        for array, column in zip(arrays, LOSS_TABLE.static):
            assert array.tolist() == column
        hours = tuple(0.001 * k for k in range(600))
        derived = LOSS_TABLE.param_columns(sids, np.arange(600), np.array(hours))
        expected = [s._derive_loss_params(h).burst_scale_120s for s, h in zip(segments, hours)]
        assert derived.burst_scale_120s.tolist() == expected
        assert (derived.kind == KIND_CODE[SegmentKind.TRANSIT]).all()

    def test_pickle_carries_the_value_not_the_process_ids(self):
        import pickle

        for original in (seg(label="x"), degrade_segment(seg(label="x"), extra_loss=0.1)):
            LOSS_TABLE.segment_id(original)
            clone = pickle.loads(pickle.dumps(original))
            assert clone == original and type(clone) is type(original)
            assert clone._sid == -1 and hash(clone) == hash(original)
            assert LOSS_TABLE.segment_id(clone) == LOSS_TABLE.segment_id(original)


class TestCampaignColumns:
    """A day's kernel parameters are the scalar derivation, and cost no call of it."""

    @staticmethod
    def day_segments(scale: str, monkeypatch) -> tuple[list[PathSegment], int]:
        """The segments a fresh seed-7 day simulates, and how many times
        :meth:`PathSegment._derive_loss_params` was called during it."""
        from repro.experiments.common import build_world
        from repro.workload import CallArrivalProcess, CampaignConfig, CampaignEngine
        from repro.workload import UserPopulation, engine

        service = build_world(scale, seed=7).service
        population = UserPopulation.sample(service.topology, 1200, seed=7)
        calls = CallArrivalProcess(population, calls_per_user_day=9.0, seed=7).generate(days=1)
        sids: set[int] = set()
        derivations = []
        simulate_table, derive = engine.simulate_table, PathSegment._derive_loss_params

        def spy_table(views, *args, **kwargs):
            for view in views:
                sids.update(view[0])
            return simulate_table(views, *args, **kwargs)

        def spy_derive(self, hour_cet):
            derivations.append(hour_cet)
            return derive(self, hour_cet)

        with monkeypatch.context() as patch:
            patch.setattr(engine, "simulate_table", spy_table)
            patch.setattr(PathSegment, "_derive_loss_params", spy_derive)
            CampaignEngine(service, CampaignConfig(seed=7)).run(calls)
        return [LOSS_TABLE.segments[sid] for sid in sorted(sids)], len(derivations)

    @pytest.mark.parametrize("scale", ["small", pytest.param("medium", marks=pytest.mark.slow)])
    def test_every_id_of_a_day_at_every_hour_bin(self, scale, monkeypatch):
        segments, derivations = self.day_segments(scale, monkeypatch)
        assert derivations == 0  # the kernel derives its rows as columns
        assert len(segments) > 1000
        variants = [degrade_segment(s, extra_loss=0.03, extra_delay_ms=2.0) for s in segments]
        variants += [satellite_segment(s) for s in segments]
        kinds = {s.kind for s in segments}
        assert kinds == set(SegmentKind)
        assert_columns_are_the_derivation(
            segments + variants, tuple(h + 0.5 for h in range(24))
        )
