"""Unit tests for the steering policies and the decision engine."""

import pickle

import pytest

from repro.steering import (
    AlwaysVnsPolicy,
    CostBudgetedPolicy,
    PathCandidates,
    PathChoice,
    PathHealthTable,
    SteeringContext,
    SteeringEngine,
    SteeringPolicy,
    ThresholdOffloadPolicy,
    Transport,
    call_unit_draw,
    make_policy,
    stream_payload_bytes,
)
from repro.steering.health import HealthEntry


def _healthy_table(
    *, vns_rtt=80.0, inet_rtt=85.0, vns_loss=0.001, inet_loss=0.001
) -> PathHealthTable:
    table = PathHealthTable()
    for _ in range(3):
        table.observe(
            "EU", "NA", Transport.VNS, rtt_ms=vns_rtt, loss_fraction=vns_loss, t_hours=1.0
        )
        table.observe(
            "EU",
            "NA",
            Transport.INTERNET,
            rtt_ms=inet_rtt,
            loss_fraction=inet_loss,
            t_hours=1.0,
        )
    return table


def _ctx(table, *, candidates=None, call_id=0, t_hours=1.0):
    return SteeringContext(
        src_region="EU",
        dst_region="NA",
        t_hours=t_hours,
        seed=7,
        call_id=call_id,
        candidates=candidates,
        vns_health=table.lookup("EU", "NA", Transport.VNS, t_hours=t_hours),
        internet_health=table.lookup("EU", "NA", Transport.INTERNET, t_hours=t_hours),
    )


class TestHelpers:
    def test_stream_payload_bytes_matches_slot_accounting(self):
        # 12 s at 420 pps in 5 s slots: 2 full slots (2100 packets each)
        # plus a 2 s final slot (840 packets), 1200 bytes per packet.
        assert stream_payload_bytes(12.0, 420.0, 5.0) == (2100 * 2 + 840) * 1200

    def test_call_unit_draw_deterministic_and_uniformish(self):
        draws = [call_unit_draw(7, "EU", "NA", i) for i in range(200)]
        assert draws == [call_unit_draw(7, "EU", "NA", i) for i in range(200)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 0.3 < sum(draws) / len(draws) < 0.7
        # Different seeds decorrelate.
        assert call_unit_draw(8, "EU", "NA", 0) != call_unit_draw(7, "EU", "NA", 0)

    def test_make_policy_registry(self):
        assert make_policy("always_vns").name == "always_vns"
        assert make_policy("threshold_offload").rtt_delta_ms == 15.0
        with pytest.raises(KeyError):
            make_policy("nope")

    def test_policies_satisfy_protocol(self):
        for name in ("always_vns", "threshold_offload", "cost_budgeted"):
            assert isinstance(make_policy(name), SteeringPolicy)


class TestAlwaysVns:
    def test_never_offloads(self):
        policy = AlwaysVnsPolicy()
        decision = policy.decide(_ctx(_healthy_table()))
        assert decision.choice is PathChoice.VNS
        assert not decision.offloaded


class TestThresholdOffload:
    def test_no_telemetry_stays_on_vns(self):
        decision = ThresholdOffloadPolicy().decide(_ctx(PathHealthTable()))
        assert decision.choice is PathChoice.VNS
        assert decision.reason == "no_telemetry"

    def test_loss_gate(self):
        table = _healthy_table(inet_loss=0.02)  # +1.9pp over VNS
        decision = ThresholdOffloadPolicy().decide(_ctx(table))
        assert decision.reason == "loss_gate"

    def test_probed_rtt_gate(self):
        table = _healthy_table(inet_rtt=140.0)
        decision = ThresholdOffloadPolicy().decide(_ctx(table))
        assert decision.reason == "probed_rtt_gate"

    def test_offloads_comparable_call(self):
        candidates = PathCandidates(vns_rtt_ms=80.0, internet_rtt_ms=88.0)
        decision = ThresholdOffloadPolicy().decide(
            _ctx(_healthy_table(), candidates=candidates)
        )
        assert decision.choice is PathChoice.INTERNET
        assert decision.offloaded

    def test_per_call_rtt_gate_bounds_regression(self):
        # Corridor telemetry passes, but this call's own Internet path is
        # 40 ms worse — the per-call gate keeps it on VNS.
        candidates = PathCandidates(vns_rtt_ms=80.0, internet_rtt_ms=120.0)
        decision = ThresholdOffloadPolicy().decide(
            _ctx(_healthy_table(), candidates=candidates)
        )
        assert decision.choice is PathChoice.VNS
        assert decision.reason == "path_rtt_gate"

    def test_detour_rescues_bad_direct_path(self):
        candidates = PathCandidates(
            vns_rtt_ms=80.0,
            internet_rtt_ms=120.0,
            detour_rtt_ms=90.0,
            detour_pop="AMS",
        )
        decision = ThresholdOffloadPolicy().decide(
            _ctx(_healthy_table(), candidates=candidates)
        )
        assert decision.choice is PathChoice.POP_DETOUR
        assert decision.detour_pop == "AMS"
        assert decision.offloaded


class TestCostBudgeted:
    def test_decide_before_prepare_raises(self):
        with pytest.raises(RuntimeError):
            CostBudgetedPolicy().decide(_ctx(_healthy_table()))

    def test_validation(self):
        with pytest.raises(ValueError):
            CostBudgetedPolicy(budget_bytes=-1)

    def test_unmeasured_corridor_priced_last(self):
        policy = CostBudgetedPolicy()
        healthy = _healthy_table()
        cheap = policy.offload_penalty(
            healthy.lookup("EU", "NA", Transport.VNS, t_hours=1.0),
            healthy.lookup("EU", "NA", Transport.INTERNET, t_hours=1.0),
        )
        assert cheap < policy.offload_penalty(None, None)

    def test_zero_budget_offloads_everything(self):
        policy = CostBudgetedPolicy(budget_bytes=0)
        plan = policy.prepare({("EU", "NA"): 1000, ("AP", "EU"): 500}, _healthy_table())
        assert plan == {("EU", "NA"): 1.0, ("AP", "EU"): 1.0}

    def test_infinite_budget_keeps_everything(self):
        policy = CostBudgetedPolicy(budget_bytes=10_000)
        plan = policy.prepare({("EU", "NA"): 1000}, _healthy_table())
        assert plan == {}
        decision = policy.decide(_ctx(_healthy_table()))
        assert decision.reason == "within_budget"

    def test_marginal_corridor_split_fractionally(self):
        # One corridor, budget covers half its bytes: the plan offloads a
        # 0.5 fraction, and the per-call draws realise roughly that share.
        policy = CostBudgetedPolicy(budget_bytes=500)
        plan = policy.prepare({("EU", "NA"): 1000}, _healthy_table())
        assert plan[("EU", "NA")] == pytest.approx(0.5)
        table = _healthy_table()
        offloaded = sum(
            policy.decide(_ctx(table, call_id=i)).offloaded for i in range(400)
        )
        assert 120 < offloaded < 280

    def test_decisions_are_order_free(self):
        policy = CostBudgetedPolicy(budget_bytes=500)
        policy.prepare({("EU", "NA"): 1000}, _healthy_table())
        table = _healthy_table()
        forward = [policy.decide(_ctx(table, call_id=i)).choice for i in range(50)]
        backward = [
            policy.decide(_ctx(table, call_id=i)).choice for i in reversed(range(50))
        ]
        assert forward == list(reversed(backward))


class TestSteeringEngine:
    def test_unknown_prefix_decides_as_vns(self):
        engine = SteeringEngine(health=_healthy_table(), policy=ThresholdOffloadPolicy())
        # A corridor nobody probed has no telemetry.
        decision = engine.decide_for_regions("??", "??", 1.0)
        assert decision.reason == "no_telemetry"

    def test_engine_pickles(self):
        engine = SteeringEngine(
            health=_healthy_table(), policy=ThresholdOffloadPolicy(), seed=3
        )
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.decide_for_regions("EU", "NA", 1.0) == engine.decide_for_regions(
            "EU", "NA", 1.0
        )
