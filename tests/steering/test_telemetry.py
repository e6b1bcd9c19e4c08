"""Tests for the dual-transport probe telemetry."""

from repro.steering import SteeringTelemetry, Transport


def _collect(small_world, seed=11):
    telemetry = SteeringTelemetry(small_world.service, seed=seed)
    return telemetry, telemetry.collect(
        days=1, minutes_between_rounds=480.0, hosts_per_type_per_region=1
    )


class TestSteeringTelemetry:
    def test_collect_fills_both_transports(self, small_world):
        telemetry, table = _collect(small_world)
        assert telemetry.stats.rounds == 3
        assert telemetry.stats.probes > 0
        corridors = table.corridors()
        assert corridors  # probing covered at least one corridor
        served = 0
        for src, dst in corridors:
            for transport in Transport:
                entry = table.lookup(src, dst, transport, t_hours=4.0)
                if entry is not None:
                    assert entry.rtt_ms > 0.0
                    served += 1
        assert served > 0

    def test_same_seed_reproduces_table(self, small_world):
        _, first = _collect(small_world, seed=11)
        _, second = _collect(small_world, seed=11)
        assert first.to_dict() == second.to_dict()

    def test_different_seed_changes_table(self, small_world):
        _, first = _collect(small_world, seed=11)
        _, second = _collect(small_world, seed=12)
        assert first.to_dict() != second.to_dict()
