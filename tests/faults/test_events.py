"""Unit tests for fault events, their wire format, and the simulated clock."""

import json

import pytest

from repro.faults.events import (
    FaultEvent,
    LinkDown,
    LinkUp,
    PopDown,
    PopUp,
    SessionDown,
    SessionUp,
    SimulatedClock,
    TransitDegrade,
    TransitRestore,
    event_from_dict,
    event_to_dict,
    events_from_json,
    events_to_json,
)

EU_NA = ("Europe", "North and Central America")


class TestClock:
    def test_starts_at_zero_and_advances(self):
        clock = SimulatedClock()
        assert clock.now_s == 0.0
        clock.advance_to(12.5)
        assert clock.now_s == 12.5

    def test_advance_to_same_time_is_allowed(self):
        clock = SimulatedClock(now_s=5.0)
        clock.advance_to(5.0)
        assert clock.now_s == 5.0

    def test_cannot_go_backwards(self):
        clock = SimulatedClock(now_s=60.0)
        with pytest.raises(ValueError):
            clock.advance_to(59.9)


class TestDescribe:
    def test_describe_lines(self):
        lines = [
            event.describe()
            for event in (
                LinkDown(time_s=60.0, a="LON", b="ASH"),
                PopDown(time_s=90.0, pop="SIN"),
                SessionDown(time_s=120.0, asn=101),
                TransitDegrade(
                    time_s=150.0, regions=("Europe", "Asia Pacific"), extra_loss=0.05
                ),
            )
        ]
        assert "link-down" in lines[0] and "LON==ASH" in lines[0]
        assert "pop-down" in lines[1] and "SIN" in lines[1]
        assert "AS101@all-sessions" in lines[2]
        assert "+5.0% loss" in lines[3]


class TestEventSerialisation:
    EVENTS = (
        LinkDown(time_s=10.0, a="LON", b="ASH"),
        LinkUp(time_s=30.0, a="LON", b="ASH"),
        PopDown(time_s=5.0, pop="SIN"),
        PopUp(time_s=50.0, pop="SIN"),
        SessionDown(time_s=1.0, asn=64512, router_id="r1.lon"),
        SessionDown(time_s=1.0, asn=64512),
        SessionUp(time_s=9.0, asn=64512, router_id=None),
        TransitDegrade(
            time_s=0.0, regions=EU_NA, extra_loss=0.05, extra_delay_ms=40.0
        ),
        TransitRestore(time_s=600.0, regions=EU_NA),
    )

    @pytest.mark.parametrize("event", EVENTS, ids=lambda e: type(e).__name__)
    def test_round_trip_is_exact(self, event):
        restored = event_from_dict(event_to_dict(event))
        assert restored == event
        assert type(restored) is type(event)

    def test_regions_tuple_restored_from_json_list(self):
        event = TransitDegrade(time_s=0.0, regions=EU_NA)
        payload = json.loads(json.dumps(event_to_dict(event)))
        restored = event_from_dict(payload)
        assert restored.regions == EU_NA
        assert isinstance(restored.regions, tuple)

    def test_events_json_round_trip_is_byte_stable(self):
        text = events_to_json(self.EVENTS)
        restored = events_from_json(text)
        assert restored == self.EVENTS
        assert events_to_json(restored) == text

    def test_unknown_type_rejected_with_known_list(self):
        with pytest.raises(ValueError, match="LinkDowm.*LinkDown"):
            event_from_dict({"type": "LinkDowm", "time_s": 0.0, "a": "A", "b": "B"})

    def test_missing_type_rejected(self):
        with pytest.raises(ValueError, match="'type'"):
            event_from_dict({"time_s": 0.0, "a": "A", "b": "B"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="pop_code"):
            event_from_dict({"type": "PopDown", "time_s": 0.0, "pop_code": "SIN"})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ValueError, match="PopDown"):
            event_from_dict({"type": "PopDown", "time_s": 0.0})

    def test_non_object_payload_rejected(self):
        with pytest.raises(ValueError, match="object"):
            event_from_dict(["PopDown"])

    def test_non_array_events_json_rejected(self):
        with pytest.raises(ValueError, match="array"):
            events_from_json('{"type": "PopDown"}')

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"type": "LinkDown", "time_s": "soon", "a": "LON", "b": "AMS"}, "time_s"),
            ({"type": "PopDown", "time_s": -5, "pop": "LON"}, "time_s"),
            ({"type": "PopDown", "time_s": True, "pop": "LON"}, "time_s"),
            ({"type": "PopDown", "time_s": 0.0, "pop": ""}, "pop"),
            ({"type": "LinkUp", "time_s": 0.0, "a": "LON", "b": 7}, "b"),
            ({"type": "SessionDown", "time_s": 0.0, "asn": "x"}, "asn"),
            ({"type": "SessionUp", "time_s": 0.0, "asn": 1, "router_id": ""}, "router_id"),
            ({"type": "TransitDegrade", "time_s": 0.0, "regions": ["Europe"]}, "regions"),
            (
                {"type": "TransitDegrade", "time_s": 0.0, "regions": ["Mars", "Venus"]},
                "regions",
            ),
            (
                {"type": "TransitDegrade", "time_s": 0.0, "regions": list(EU_NA),
                 "extra_loss": 3.0},
                "extra_loss",
            ),
            (
                {"type": "TransitDegrade", "time_s": 0.0, "regions": list(EU_NA),
                 "extra_delay_ms": float("inf")},
                "extra_delay_ms",
            ),
            ({"type": ["PopDown"], "time_s": 0.0, "pop": "LON"}, "type"),
        ],
    )
    def test_hostile_field_is_named(self, payload, field):
        with pytest.raises(ValueError, match=field):
            events_from_json(json.dumps([payload]))

    def test_unregistered_event_type_rejected_on_write(self):
        class Bogus(FaultEvent):
            pass

        with pytest.raises(TypeError):
            event_to_dict(Bogus(time_s=0.0))
