"""Tests for the failover drills: one measured replay over fault timelines."""

import numpy as np
import pytest

from repro.experiments import failover
from repro.experiments.common import build_world
from repro.faults.drills import canned_drills, link_cut, resolve_corridor
from repro.faults.events import LinkDown, LinkUp, PopUp
from repro.faults.injector import FaultInjector
from repro.faults.recovery import DETECTION_S, DRILL_STREAM_S, Drill, run_drill
from repro.scenarios.registry import canned_scenario

#: Positions in :func:`canned_drills` (six long-haul cuts come first).
SIN_SYD_CUT, POP_FAILURE, REGIONAL, FLAPPING, DEGRADATION = 5, 6, 7, 8, 9


def drill_rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="module")
def canned(fault_world):
    return canned_drills(fault_world.service)


def run(world, drill):
    return run_drill(world.service, drill_rng(), drill)


class TestResolveCorridor:
    def test_direct_circuit_is_the_corridor(self, fault_world):
        assert resolve_corridor(fault_world.service, "SJS", "HK") == ("SJS", "HK")

    def test_indirect_corridor_picks_long_haul_on_path(self, fault_world):
        # AMS->ASH has no direct circuit; it rides the trans-Atlantic one.
        assert resolve_corridor(fault_world.service, "AMS", "ASH") == ("LON", "ASH")


class TestSingleLinkCut:
    def test_acceptance_criteria(self, fault_world):
        service = fault_world.service
        result = run(fault_world, link_cut(service, "AMS", "ASH"))

        assert result.name == "single-link-cut:LON==ASH"
        # (a) Converged without ConvergenceError (we got here) and the
        #     engine is quiet again.
        assert service.network.engine.converged
        # (b) No prefix is left without a valid egress at any point: the
        #     production mesh is biconnected around this corridor.
        for impact in result.impacts:
            assert not impact.blackholes_during
            assert not impact.blackholes_after
            assert not impact.routes_lost
        assert not result.permanent_blackholes
        # (c) Media loss during failover is bounded and recovers.
        media = result.media
        assert media.failover_loss_percent < 25.0
        assert media.failover_loss_percent >= media.steady_loss_percent
        assert abs(media.recovered_loss_percent - media.steady_loss_percent) < 1.0
        # Traffic actually rerouted while the circuit was dark.
        assert result.during.route != result.before.route
        assert result.after.route == result.before.route
        # The drill repaired everything it touched.
        assert result.restored

    def test_determinism_across_fresh_worlds(self):
        results = []
        for _ in range(2):
            world = build_world("small", seed=42)
            results.append(run(world, link_cut(world.service, "AMS", "ASH")))
        one, two = results
        assert one.event_log == two.event_log
        assert [i.messages for i in one.impacts] == [i.messages for i in two.impacts]
        assert [sorted(i.shifted) for i in one.impacts] == [
            sorted(i.shifted) for i in two.impacts
        ]
        assert one.media.steady_loss_percent == two.media.steady_loss_percent
        assert one.media.failover_loss_percent == two.media.failover_loss_percent
        assert (one.before, one.during, one.after) == (two.before, two.during, two.after)

    def test_partitioning_cut_takes_the_stream_down_for_its_duration(
        self, fault_world, canned
    ):
        # SIN==SYD is Oceania's only circuit: SIN->SYD has no route while
        # it is dark, so the failover stream is the outage itself.
        result = run(fault_world, canned[SIN_SYD_CUT])
        assert result.name == "single-link-cut:SIN==SYD"
        assert result.before.route == ("SIN", "SYD")
        assert result.during.route is None
        assert result.after.route == result.before.route
        media = result.media
        assert media.window_s == DRILL_STREAM_S
        assert media.failover_loss_percent == 100.0
        assert abs(media.recovered_loss_percent - media.steady_loss_percent) < 1.0
        assert result.restored


class TestPopFailure:
    def test_recatchment_and_repair(self, fault_world, canned):
        result = run(fault_world, canned[POP_FAILURE])

        assert result.name == "pop-failure:SIN"
        down, up = result.impacts
        # Losing a whole PoP opens a real mid-failover blackhole window...
        assert down.blackholes_during
        # ...but convergence clears it: every prefix finds another egress
        # (SYD-entry cells excepted only *while* stranded; after repair
        # nothing stays dark).
        assert not result.permanent_blackholes
        # Anycast re-catchment moved the failed PoP's users elsewhere.
        served_by_sin = [
            asn for asn, pop in result.before.entries.items() if pop == "SIN"
        ]
        assert served_by_sin
        assert all(
            result.during.entries[asn] not in ("SIN", None) for asn in served_by_sin
        )
        assert result.after.entries == result.before.entries
        assert result.restored


class TestFlappingUpstream:
    def test_flaps_are_identical_and_state_restores(self, fault_world, canned):
        result = run(fault_world, canned[FLAPPING])
        assert result.name.startswith("flapping-upstream:AS")
        assert result.media is None
        messages = [impact.messages for impact in result.impacts]
        per_flap = [down + up for down, up in zip(messages[::2], messages[1::2])]
        assert len(per_flap) == 2
        # Every flap replays the same table: identical message bills.
        assert len(set(per_flap)) == 1 and per_flap[0] > 0
        assert result.restored


class TestTransitDegradation:
    def test_pure_data_plane(self, fault_world, canned):
        result = run(fault_world, canned[DEGRADATION])
        assert result.name.startswith("transit-degradation:")
        assert result.total_messages == 0
        media = result.media
        # No BGP message, so no outage window: only the impaired path.
        assert media.window_s == 0.0
        assert media.failover.rtt_ms > media.steady.rtt_ms
        assert media.failover_loss_percent > media.steady_loss_percent
        assert result.restored


class TestEveryCannedDrill:
    @pytest.mark.parametrize("index", range(10))
    def test_leaves_the_world_as_found(self, fault_world, canned, index):
        assert len(canned) == 10
        result = run(fault_world, canned[index])
        assert result.restored
        assert not result.permanent_blackholes
        assert result.after == result.before
        assert fault_world.service.network.engine.converged


class TestDrillsAreData:
    def test_a_scenario_spec_timeline_plus_its_repairs_is_a_drill(self, fault_world):
        """``ScenarioSpec.faults`` and ``Drill.events`` are one type."""
        faults = canned_scenario("regional_outage").faults
        drill = Drill(
            "regional-outage-and-back",
            faults + (LinkUp(2.0, "SJS", "HK"), PopUp(3.0, "SIN")),
            media=("SJS", "TYO"),
        )
        result = run(fault_world, drill)
        assert [impact.event for impact in result.impacts] == list(drill.events)
        assert result.event_log == tuple(e.describe() for e in drill.events)
        # The window closes before the first repair: both faults count.
        down_messages = sum(i.messages for i in result.impacts[: len(faults)])
        assert result.media.window_s == pytest.approx(1.0 + 0.005 * down_messages)
        assert result.restored

    def test_a_cut_that_moves_no_route_still_costs_its_detection(self, fault_world):
        # The circuit is already down, so cutting it again delivers no BGP
        # message — but a control-plane fault is never free for a stream.
        service = fault_world.service
        FaultInjector(service).apply(LinkDown(0.0, "SJS", "HK"))
        drill = Drill(
            "cut-again",
            (LinkDown(60.0, "SJS", "HK"), LinkUp(660.0, "SJS", "HK")),
            media=("SJS", "HK"),
        )
        result = run(fault_world, drill)
        assert result.impacts[0].messages == 0
        assert result.media.window_s == DETECTION_S
        assert result.media.failover.slot_losses[0] == 2100  # one blanked slot
        assert not service.network.down_links  # the drill's repair healed it

    def test_a_timeline_that_never_repairs_is_not_a_drill(self, fault_world):
        with pytest.raises(ValueError, match="never repairs"):
            run(fault_world, Drill("cut-only", (LinkDown(1.0, "SJS", "HK"),)))
        assert not fault_world.service.network.down_links

    def test_a_rejected_event_undoes_the_faults_before_it(self, fault_world):
        network = fault_world.service.network
        typo = Drill(
            "typo-in-the-repair",
            (LinkDown(1.0, "SJS", "HK"), LinkUp(2.0, "SJS", "HKG")),
            media=("SJS", "HK"),
        )
        with pytest.raises(ValueError, match="no L2 circuit SJS-HKG"):
            run(fault_world, typo)
        assert not network.down_links and network.engine.converged
        assert run(fault_world, link_cut(fault_world.service, "SJS", "HK")).restored

    def test_suite_runs_the_drills_it_is_given(self, fault_world, canned):
        result = failover.run(fault_world, drills=canned[:2])
        assert [drill.name for drill in result.drills] == [
            "single-link-cut:LON==ASH",
            "single-link-cut:AMS==SIN",
        ]
        assert result.to_row()["scenarios"] == 2
        assert result.to_row()["fault_events"] == 4
