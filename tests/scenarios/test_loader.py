"""Loader tests: the path model, fault application, and world hygiene."""

import pickle
from dataclasses import replace

import pytest

from repro.dataplane.link import DegradedSegment, PathSegment, SegmentKind
from repro.dataplane.path import DataPath
from repro.faults.events import (
    LinkDown,
    LinkUp,
    PopDown,
    TransitDegrade,
    TransitRestore,
    events_from_json,
    events_to_json,
)
from repro.geo.coords import GeoPoint
from repro.net.asn import ASType
from repro.scenarios import (
    STEERING_POLICIES,
    ScenarioPathModel,
    ScenarioSpec,
    WorldSpec,
    apply_scenario_faults,
    canned_scenario,
    compose_scenario,
    load_scenario,
    run_scenario,
    scenario_calls,
)

LON = GeoPoint(51.5, -0.12)
NYC = GeoPoint(40.7, -74.0)
EU_NA = ("Europe", "North and Central America")


def synthetic_path() -> DataPath:
    """ACCESS(EU) -> TRANSIT(EU->NA) -> ACCESS(NA)."""
    return DataPath(
        segments=[
            PathSegment(
                kind=SegmentKind.ACCESS, start=LON, end=LON, as_type=ASType.EC
            ),
            PathSegment(
                kind=SegmentKind.TRANSIT, start=LON, end=NYC, owner_type=ASType.LTP
            ),
            PathSegment(
                kind=SegmentKind.ACCESS, start=NYC, end=NYC, as_type=ASType.EC
            ),
        ],
        description="synthetic EU->NA",
    )


class TestScenarioPathModel:
    def test_satellite_rehomes_only_the_first_access_segment(self):
        model = ScenarioPathModel(
            last_mile="geo_satellite", satellite_delay_ms=270.0, satellite_loss=0.012
        )
        path = synthetic_path()
        out = model.transform(path, "internet", entry_pop="LON")
        assert isinstance(out.segments[0], DegradedSegment)
        assert out.segments[0].extra_delay_ms == pytest.approx(270.0)
        assert out.segments[0].extra_loss == pytest.approx(0.012)
        # The transit leg and the far-end access leg stay terrestrial.
        assert not isinstance(out.segments[1], DegradedSegment)
        assert not isinstance(out.segments[2], DegradedSegment)
        assert out.rtt_ms() == pytest.approx(path.rtt_ms() + 2 * 270.0)

    def test_degradation_hits_matching_transit_corridor(self):
        model = ScenarioPathModel(
            degradations=(
                TransitDegrade(
                    time_s=0.0, regions=EU_NA, extra_loss=0.05, extra_delay_ms=40.0
                ),
            )
        )
        out = model.transform(synthetic_path(), "internet", entry_pop="LON")
        assert isinstance(out.segments[1], DegradedSegment)
        assert out.segments[1].extra_delay_ms == pytest.approx(40.0)
        assert not isinstance(out.segments[0], DegradedSegment)

    def test_degradation_ignores_other_corridors(self):
        model = ScenarioPathModel(
            degradations=(
                TransitDegrade(time_s=0.0, regions=("Europe", "Africa")),
            )
        )
        path = synthetic_path()
        assert model.transform(path, "internet", entry_pop="LON") is path

    def test_pop_overload_hits_vns_and_detour_but_not_internet(self):
        model = ScenarioPathModel(pop_overload=(("LON", 1.0),))
        path = synthetic_path()
        for transport in ("vns", "detour"):
            out = model.transform(path, transport, entry_pop="LON")
            assert isinstance(out.segments[0], DegradedSegment), transport
            assert out.segments[0].extra_delay_ms > 0.0
        assert model.transform(path, "internet", entry_pop="LON") is path
        # A different (uncongested) entry PoP is untouched.
        assert model.transform(path, "vns", entry_pop="ASH") is path

    def test_overload_units_are_clamped(self):
        mild = ScenarioPathModel(pop_overload=(("LON", 4.0),))
        wild = ScenarioPathModel(pop_overload=(("LON", 400.0),))
        path = synthetic_path()
        assert (
            mild.transform(path, "vns", entry_pop="LON").segments[0].extra_delay_ms
            == wild.transform(path, "vns", entry_pop="LON").segments[0].extra_delay_ms
        )

    def test_noop_model_returns_the_same_object(self):
        model = ScenarioPathModel()
        assert model.is_noop
        path = synthetic_path()
        assert model.transform(path, "vns", entry_pop="LON") is path

    def test_model_pickles_and_transforms_identically(self):
        model = ScenarioPathModel(
            last_mile="geo_satellite",
            satellite_delay_ms=270.0,
            satellite_loss=0.012,
            degradations=(TransitDegrade(time_s=0.0, regions=EU_NA),),
            pop_overload=(("LON", 0.5),),
        )
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model
        a = model.transform(synthetic_path(), "vns", entry_pop="LON")
        b = clone.transform(synthetic_path(), "vns", entry_pop="LON")
        assert a.segments == b.segments


class TestFaultApplication:
    def test_pops_down_become_active_faults(self, scenario_world):
        spec = ScenarioSpec(name="x", world=WorldSpec(pops_down=("SYD",)))
        applied = apply_scenario_faults(scenario_world.service, spec)
        try:
            assert [type(e).__name__ for e in applied.active] == ["PopDown"]
        finally:
            applied.restore()

    def test_matched_up_events_clear_the_active_list(self, scenario_world):
        spec = ScenarioSpec(
            name="x",
            faults=(
                LinkDown(time_s=0.0, a="LON", b="ASH"),
                LinkUp(time_s=30.0, a="ASH", b="LON"),
            ),
        )
        applied = apply_scenario_faults(scenario_world.service, spec)
        try:
            assert applied.active == []
        finally:
            applied.restore()

    def test_transit_events_stay_out_of_the_control_plane(self, scenario_world):
        spec = ScenarioSpec(
            name="x",
            faults=(
                TransitDegrade(time_s=0.0, regions=EU_NA),
                TransitDegrade(time_s=1.0, regions=("Europe", "Africa")),
                TransitRestore(time_s=2.0, regions=("Europe", "Africa")),
            ),
        )
        applied = apply_scenario_faults(scenario_world.service, spec)
        try:
            assert applied.active == []
            assert [d.regions for d in applied.degradations] == [EU_NA]
        finally:
            applied.restore()

    def test_transit_restore_matches_the_corridor_unordered(self, scenario_world):
        spec = ScenarioSpec(
            name="x",
            faults=(
                TransitDegrade(time_s=0.0, regions=("Europe", "Asia Pacific")),
                TransitRestore(time_s=1.0, regions=("Asia Pacific", "Europe")),
            ),
        )
        applied = apply_scenario_faults(scenario_world.service, spec)
        try:
            assert applied.degradations == []
        finally:
            applied.restore()

    def test_restore_is_idempotent(self, scenario_world):
        spec = ScenarioSpec(name="x", faults=(PopDown(time_s=0.0, pop="SIN"),))
        applied = apply_scenario_faults(scenario_world.service, spec)
        applied.restore()
        applied.restore()

    def test_load_run_restore_leaves_reports_byte_identical(self, scenario_world):
        """The world-hygiene contract, functionally.

        A baseline campaign must produce byte-identical reports before
        and after a faulted scenario ran on the same world.
        """
        probe = ScenarioSpec(name="probe", n_users=20, calls_per_user_day=1.0)

        def probe_report() -> str:
            loaded = load_scenario(probe, base_world=scenario_world)
            try:
                return loaded.run().report.to_json()
            finally:
                loaded.restore()

        before = probe_report()
        outage = ScenarioSpec(
            name="outage",
            n_users=20,
            calls_per_user_day=1.0,
            faults=(
                PopDown(time_s=0.0, pop="SIN"),
                LinkDown(time_s=1.0, a="SJS", b="HK"),
            ),
        )
        loaded = load_scenario(outage, base_world=scenario_world)
        try:
            loaded.run()
        finally:
            loaded.restore()
        assert probe_report() == before

    def test_round_tripped_faults_run_identically(self, scenario_world):
        faults = (
            PopDown(time_s=0.0, pop="SIN"),
            LinkDown(time_s=1.0, a="SJS", b="HK"),
        )
        restored = events_from_json(events_to_json(faults))
        a = ScenarioSpec(name="a", n_users=20, calls_per_user_day=1.0, faults=faults)
        b = ScenarioSpec(name="b", n_users=20, calls_per_user_day=1.0, faults=restored)
        reports = []
        for spec in (a, b):
            loaded = load_scenario(spec, base_world=scenario_world)
            try:
                reports.append(loaded.run().report.to_json())
            finally:
                loaded.restore()
        assert reports[0] == reports[1]

    def test_mismatched_base_world_scale_rejected(self, scenario_world):
        spec = ScenarioSpec(name="x", world=WorldSpec(scale="medium"))
        with pytest.raises(ValueError, match="medium.*small|small.*medium"):
            load_scenario(spec, base_world=scenario_world)


class TestComposition:
    def test_flash_crowd_overlays_the_diurnal_background(self, scenario_world):
        diurnal = ScenarioSpec(name="d", n_users=30, calls_per_user_day=1.5)
        crowd = ScenarioSpec(
            name="c",
            n_users=30,
            calls_per_user_day=1.5,
            arrival_profile="flash_crowd",
            flash_attendees=80,
        )
        base = scenario_calls(diurnal, scenario_world)
        overlaid = scenario_calls(crowd, scenario_world)
        assert len(overlaid) == len(base) + 80
        ids = [call.call_id for call in overlaid]
        assert len(set(ids)) == len(ids)
        keys = [(call.day, call.start_hour_cet) for call in overlaid]
        assert keys == sorted(keys)

    def test_uncongested_capacity_gives_no_path_model(self, scenario_world):
        spec = ScenarioSpec(
            name="x",
            n_users=20,
            calls_per_user_day=1.0,
            world=WorldSpec(pop_capacity=(("*", 1e9),)),
        )
        loaded = compose_scenario(spec, scenario_world)
        assert loaded.path_model is None

    def test_exhausted_capacity_congests_entry_pops(self, scenario_world):
        spec = canned_scenario("pop_exhaustion")
        loaded = compose_scenario(spec, scenario_world)
        assert loaded.path_model is not None
        assert loaded.path_model.pop_overload
        assert all(units > 0 for _, units in loaded.path_model.pop_overload)

    def test_steering_policy_by_name(self, scenario_world):
        spec = ScenarioSpec(
            name="x",
            n_users=20,
            calls_per_user_day=1.0,
            steering_policy="always_vns",
        )
        loaded = compose_scenario(spec, scenario_world)
        assert loaded.steering is not None
        run = loaded.run()
        assert run.report.steering is not None


class TestSteeredPopDown:
    """A steered scenario with a PoP down probes only the PoPs still up."""

    @pytest.mark.parametrize("policy", [p for p in STEERING_POLICIES if p])
    def test_runs_under_every_policy(self, policy):
        spec = replace(canned_scenario("regional_outage"), steering_policy=policy)
        run = run_scenario(spec)
        assert run.report.steering is not None
        assert run.report.n_calls > 0
