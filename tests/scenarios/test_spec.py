"""Spec schema tests: byte-stable JSON round trips, loud rejection."""

import json

import pytest

from repro.faults.events import LinkDown, PopDown, TransitDegrade
from repro.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    WorldSpec,
    canned_names,
    canned_scenario,
)


def full_spec() -> ScenarioSpec:
    """A spec exercising every field (faults, capacity, satellite)."""
    return ScenarioSpec(
        name="kitchen-sink",
        world=WorldSpec(
            scale="medium",
            seed=7,
            geoip_errors=True,
            pops_down=("SYD",),
            pop_capacity=(("LON", 0.5), ("*", 1.25)),
        ),
        seed=3,
        n_users=64,
        calls_per_user_day=2.5,
        days=2,
        multiparty_fraction=0.2,
        arrival_profile="flash_crowd",
        flash_attendees=99,
        flash_hosts=3,
        flash_hour_cet=17.25,
        flash_window_h=0.75,
        steering_policy="cost_budgeted",
        last_mile="geo_satellite",
        satellite_delay_ms=300.0,
        satellite_loss=0.02,
        faults=(
            PopDown(time_s=0.0, pop="SIN"),
            LinkDown(time_s=1.0, a="SJS", b="HK"),
            TransitDegrade(
                time_s=2.0,
                regions=("Europe", "North and Central America"),
                extra_loss=0.03,
                extra_delay_ms=25.0,
            ),
        ),
        description="every knob at once",
    )


class TestRoundTrip:
    @pytest.mark.parametrize("name", canned_names())
    def test_canned_specs_round_trip_byte_stably(self, name):
        spec = canned_scenario(name)
        text = spec.to_json()
        assert ScenarioSpec.from_json(text).to_json() == text
        assert ScenarioSpec.from_json(text) == spec

    def test_full_spec_round_trips_byte_stably(self):
        spec = full_spec()
        text = spec.to_json()
        restored = ScenarioSpec.from_json(text)
        assert restored == spec
        assert restored.to_json() == text

    def test_world_spec_round_trips_byte_stably(self):
        world = full_spec().world
        text = world.to_json()
        assert WorldSpec.from_dict(json.loads(text)).to_json() == text

    def test_restored_faults_are_event_objects(self):
        restored = ScenarioSpec.from_json(full_spec().to_json())
        assert isinstance(restored.faults[0], PopDown)
        assert isinstance(restored.faults[2], TransitDegrade)
        assert restored.faults[2].regions == (
            "Europe",
            "North and Central America",
        )

    def test_specs_are_hashable(self):
        assert {full_spec(): 1}[full_spec()] == 1

    def test_list_inputs_normalise_to_tuples(self):
        spec = ScenarioSpec(
            name="x", world=WorldSpec(pops_down=["SIN"], pop_capacity=[["LON", 1.0]])
        )
        assert spec.world.pops_down == ("SIN",)
        assert spec.world.pop_capacity == (("LON", 1.0),)


class TestRejection:
    def test_unknown_scenario_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field.*not_a_knob"):
            ScenarioSpec.from_dict({"name": "x", "not_a_knob": 1})

    def test_unknown_world_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field.*popz"):
            WorldSpec.from_dict({"popz": ["SIN"]})

    def test_error_lists_accepted_fields(self):
        with pytest.raises(ValueError, match="accepted.*steering_policy"):
            ScenarioSpec.from_dict({"name": "x", "bogus": 1})

    def test_missing_name_rejected(self):
        with pytest.raises(ValueError, match="'name'"):
            ScenarioSpec.from_dict({"seed": 1})

    def test_non_object_payload_rejected(self):
        with pytest.raises(ValueError, match="object"):
            ScenarioSpec.from_dict(["baseline"])

    @pytest.mark.parametrize(
        "field, value, accepted",
        [
            ("arrival_profile", "bursty", "flash_crowd"),
            ("last_mile", "leo_satellite", "geo_satellite"),
            ("steering_policy", "always_internet", "always_vns"),
        ],
    )
    def test_unknown_enum_values_rejected(self, field, value, accepted):
        with pytest.raises(ValueError, match=f"{value}|{accepted}"):
            ScenarioSpec(name="x", **{field: value})

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="huge"):
            WorldSpec(scale="huge")

    def test_unknown_pop_down_rejected(self):
        with pytest.raises(ValueError, match="XXX"):
            WorldSpec(pops_down=("XXX",))

    def test_unknown_capacity_pop_rejected(self):
        with pytest.raises(ValueError, match="XXX"):
            WorldSpec(pop_capacity=(("XXX", 1.0),))

    def test_duplicate_capacity_entry_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WorldSpec(pop_capacity=(("LON", 1.0), ("LON", 2.0)))

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            WorldSpec(pop_capacity=(("LON", 0.0),))

    def test_malformed_capacity_pairs_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            WorldSpec.from_dict({"pop_capacity": [["LON", 1.0, 9]]})

    def test_bad_fault_entries_rejected(self):
        with pytest.raises(ValueError, match="fault"):
            ScenarioSpec(name="x", faults=("LinkDown",))

    def test_bad_fault_json_rejected(self):
        with pytest.raises(ValueError, match="array"):
            ScenarioSpec.from_dict({"name": "x", "faults": "LinkDown"})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "x", "n_users": 1},
            {"name": "x", "days": 0},
            {"name": "x", "calls_per_user_day": 0.0},
            {"name": "x", "multiparty_fraction": 1.5},
            {"name": "x", "flash_window_h": 0.0},
            {"name": "x", "satellite_delay_ms": -1.0},
            {"name": "x", "satellite_loss": 1.0},
        ],
    )
    def test_out_of_range_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioSpec(**kwargs)

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"name": "x", "seed": "7"}, "ScenarioSpec.seed"),
            ({"name": "x", "seed": -1}, "ScenarioSpec.seed"),
            ({"name": "x", "n_users": "120"}, "ScenarioSpec.n_users"),
            ({"name": "x", "days": True}, "ScenarioSpec.days"),
            ({"name": "x", "calls_per_user_day": None}, "ScenarioSpec.calls_per_user_day"),
            ({"name": "x", "flash_hour_cet": float("nan")}, "ScenarioSpec.flash_hour_cet"),
            ({"name": ["x"]}, "ScenarioSpec.name"),
            ({"name": "x", "world": {"pops_down": "LON"}}, "WorldSpec.pops_down"),
            ({"name": "x", "world": {"seed": 1.5}}, "WorldSpec.seed"),
            ({"name": "x", "world": {"geoip_errors": 1}}, "WorldSpec.geoip_errors"),
            ({"name": "x", "world": {"pop_capacity": [["LON", None]]}}, "pop_capacity"),
        ],
    )
    def test_wrong_kind_is_named(self, payload, field):
        with pytest.raises(ValueError, match=field):
            ScenarioSpec.from_json(json.dumps(payload))


class TestRegistry:
    def test_registry_covers_roadmap_classes(self):
        assert set(SCENARIOS) >= {
            "baseline",
            "geo_satellite",
            "flash_crowd",
            "regional_outage",
            "pop_exhaustion",
        }

    def test_builders_return_fresh_specs(self):
        assert canned_scenario("baseline") is not canned_scenario("baseline")

    def test_unknown_name_lists_registry(self):
        with pytest.raises(KeyError, match="baseline"):
            canned_scenario("no_such_scenario")
