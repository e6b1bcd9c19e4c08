"""Unit tests for the perf counter/timer layer."""

import pytest

from repro import perf


@pytest.fixture(autouse=True)
def clean_perf():
    """Every test starts disabled and empty, and leaves no residue."""
    perf.disable()
    perf.reset()
    yield
    perf.disable()
    perf.reset()


class TestSwitch:
    def test_off_by_default(self):
        assert not perf.is_enabled()

    def test_enable_disable(self):
        perf.enable()
        assert perf.is_enabled()
        perf.disable()
        assert not perf.is_enabled()

    def test_disabled_probes_record_nothing(self):
        perf.incr("x")
        with perf.timer("y"):
            pass
        snap = perf.snapshot()
        assert snap.counters == {}
        assert snap.timers == {}


class TestCounters:
    def test_incr_accumulates(self):
        perf.enable()
        perf.incr("a")
        perf.incr("a", 4)
        assert perf.counter("a") == 5

    def test_unknown_counter_is_zero(self):
        assert perf.counter("never") == 0

    def test_reset_clears(self):
        perf.enable()
        perf.incr("a")
        perf.reset()
        assert perf.counter("a") == 0


class TestTimers:
    def test_timer_context_manager(self):
        perf.enable()
        with perf.timer("region"):
            sum(range(1000))
        snap = perf.snapshot().timers["region"]
        assert snap["calls"] == 1
        assert snap["total_s"] >= 0.0

    def test_timer_records_on_exception(self):
        perf.enable()
        with pytest.raises(RuntimeError):
            with perf.timer("boom"):
                raise RuntimeError("x")
        assert perf.snapshot().timers["boom"]["calls"] == 1


class TestWiring:
    def test_engine_run_is_instrumented(self):
        from repro.bgp.engine import BgpEngine
        from repro.bgp.router import BgpRouter

        engine = BgpEngine()
        engine.add_router(BgpRouter("a", 65000))
        perf.enable()
        engine.run()
        snap = perf.snapshot()
        assert "bgp.engine.run" in snap.timers

    def test_geo_assign_counts_memo_hits(self):
        from repro.bgp.attributes import Route
        from repro.geo.coords import GeoPoint
        from repro.geo.geoip import GeoIPDatabase
        from repro.net.addressing import Prefix
        from repro.vns.geo_rr import GeoRouteReflector

        prefix = Prefix.parse("203.0.113.0/24")
        geoip = GeoIPDatabase()
        geoip.register(prefix, GeoPoint(51.9, 4.5), "NL")
        rr = GeoRouteReflector(
            "RR", 65000, geoip=geoip, router_locations={"A": GeoPoint(52.37, 4.90)}
        )
        route = Route(prefix=prefix, as_path=(100,), next_hop="A")
        perf.enable()
        rr.assign_geo_preference(route)
        rr.assign_geo_preference(route)
        assert perf.counter("geo.assign.calls") == 2
        assert perf.counter("geo.assign.memo_hits") == 1


class TestPerfSnapshot:
    def _populated(self) -> perf.PerfSnapshot:
        perf.enable()
        perf.incr("events.seen", 3)
        for _ in range(4):
            perf.add_time("phase.run", 0.5, cpu_seconds=0.375)
        return perf.snapshot()

    def test_snapshot_shape(self):
        snap = self._populated()
        assert snap.counters == {"events.seen": 3}
        assert snap.timers == {
            "phase.run": {"calls": 4, "total_s": 2.0, "cpu_s": 1.5}
        }

    def test_diff_is_the_delta_and_drops_empty_rows(self):
        before = self._populated()
        perf.incr("events.seen", 2)
        perf.incr("events.other")
        perf.add_time("phase.run", 1.0, cpu_seconds=0.5)
        delta = perf.snapshot().diff(before)
        assert delta.counters == {"events.seen": 2, "events.other": 1}
        assert delta.timers["phase.run"] == {
            "calls": 1,
            "total_s": 1.0,
            "cpu_s": 0.5,
        }
        # nothing new since the second snapshot -> empty diff
        empty = perf.snapshot().diff(perf.snapshot())
        assert empty.counters == {} and empty.timers == {}

    def test_restore_resets_registry(self):
        before = self._populated()
        perf.incr("events.seen", 10)
        perf.add_time("phase.extra", 1.0)
        perf.restore(before)
        assert perf.snapshot().to_dict() == before.to_dict()

    def test_timers_record_cpu_seconds(self):
        perf.enable()
        with perf.timer("spin"):
            total = 0
            for i in range(20000):
                total += i * i
        entry = perf.snapshot().timers["spin"]
        assert entry["cpu_s"] > 0.0
        assert entry["total_s"] >= entry["cpu_s"] * 0.5  # sane magnitudes
