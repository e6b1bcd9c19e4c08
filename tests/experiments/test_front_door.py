"""The campaign front doors, pinned byte for byte.

``campaign.run``, ``steering.run`` and ``load_scenario(...).run()`` are
three ways in to the same machinery, and the paper's Sec. 5 comparisons
only mean something if "the same campaign" is the same bytes through
every one of them.  This file pins sha256 digests of their reports on a
private SMALL world at two world seeds, and the identity between the
doors; the digests were recorded before the doors were folded into one
(``ScenarioSpec`` composed by ``scenarios/loader.py``) and must never be
edited by a change that claims to keep behaviour.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import campaign, steering
from repro.experiments.common import build_world
from repro.experiments.steering import corridor_payload_bytes
from repro.scenarios import (
    ScenarioSpec,
    canned_names,
    canned_scenario,
    load_scenario,
    run_scenario,
)
from repro.workload import CampaignConfig

#: The campaign every door is asked for (``ScenarioSpec`` field names;
#: the multiparty fraction is the spec's 0.15 throughout).
FIELDS = dict(n_users=120, calls_per_user_day=4.0, days=1, seed=5)

#: ``(world seed, what)`` -> first 16 hex digits of the report's sha256.
DIGESTS = {
    (7, "campaign"): "c0ff6e45bfd3fa0b",
    (7, "steering"): "b86a14cd29d2de98",
    (7, "baseline"): "9a3d7311a78849eb",
    (7, "geo_satellite"): "9ed71ec8b084d0a5",
    (7, "flash_crowd"): "29c363e9a9f88983",
    (7, "regional_outage"): "a8b6cfce1b4a8bd3",
    (7, "pop_exhaustion"): "6f0797d831468503",
    (42, "campaign"): "a34acdbfde6a496c",
    (42, "steering"): "8cf0da54955b63e4",
    (42, "baseline"): "8fb55a27514f8c82",
    (42, "geo_satellite"): "74daf07734baddf8",
    (42, "flash_crowd"): "37adcb777afc8f49",
    (42, "regional_outage"): "d7dea88075367f64",
    (42, "pop_exhaustion"): "be8f0dec80bb5bd0",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module", params=(7, 42))
def world(request):
    """A private world: the canned outage faults (and restores) it."""
    return build_world("small", seed=request.param)


@pytest.fixture(scope="module")
def plain(world):
    return campaign.run(world, **FIELDS)


@pytest.fixture(scope="module")
def comparison(world):
    """Default telemetry size, all three policies."""
    return steering.run(world, **FIELDS)


class TestPinnedDigests:
    def test_campaign(self, world, plain):
        assert digest(plain.report.to_json()) == DIGESTS[world.seed, "campaign"]

    def test_steering(self, world, comparison):
        assert tuple(comparison.runs) == steering.POLICIES
        assert digest(comparison.to_json()) == DIGESTS[world.seed, "steering"]

    @pytest.mark.parametrize("name", canned_names())
    def test_canned_scenario(self, world, name):
        loaded = load_scenario(canned_scenario(name), base_world=world)
        try:
            report = loaded.run().report.to_json()
        finally:
            loaded.restore()
        assert digest(report) == DIGESTS[world.seed, name]


class TestOneCampaignThroughEveryDoor:
    def test_campaign_run_is_the_bare_spec(self, world, plain):
        spec = ScenarioSpec(name="front-door", **FIELDS)
        through_spec = run_scenario(spec, base_world=world)
        assert through_spec.report.to_json() == plain.report.to_json()

    def test_always_vns_is_the_campaign_plus_a_steering_block(
        self, plain, comparison
    ):
        steered = comparison.runs["always_vns"].report.to_dict()
        assert steered["steering"]["policy"] == "always_vns"
        unsteered = {k: v for k, v in steered.items() if k != "steering"}
        unsteered["pairs"] = {
            key: {k: v for k, v in pair.items() if k != "steering"}
            for key, pair in steered["pairs"].items()
        }
        assert unsteered == plain.report.to_dict()

    def test_each_policy_is_the_spec_with_that_policy(self, world, comparison):
        for name in steering.POLICIES:
            spec = ScenarioSpec(name="front-door", steering_policy=name, **FIELDS)
            through_spec = run_scenario(spec, base_world=world)
            assert (
                through_spec.report.to_json()
                == comparison.runs[name].report.to_json()
            ), name


class TestBytesAreConserved:
    """Projected corridor bytes == what the always-VNS campaign carried,
    and every policy's report accounts for the bytes its calls were
    offered and the bytes its offloads saved."""

    def test_projection_equals_backbone_bytes_under_always_vns(self, comparison):
        run = comparison.runs["always_vns"]
        results = run.results
        projected = corridor_payload_bytes(list(results.specs), CampaignConfig())
        steering_block = run.report.steering
        assert steering_block["backbone_bytes_saved"] == 0
        assert (
            sum(projected.values())
            == int(results.backbone_bytes.sum())
            == steering_block["backbone_bytes"]
        )
        for (src, dst), planned in projected.items():
            pair = run.report.pairs[f"{src}->{dst}"]["steering"]
            assert pair["backbone_bytes"] == planned, (src, dst)

    @pytest.mark.parametrize("policy", steering.POLICIES)
    def test_offered_bytes_do_not_depend_on_the_policy(self, comparison, policy):
        run = comparison.runs[policy]
        projected = corridor_payload_bytes(list(run.results.specs), CampaignConfig())
        assert run.report.steering["backbone_bytes"] == sum(projected.values())
        assert int(run.results.backbone_bytes.sum()) == sum(projected.values())
        for key, pair in run.report.pairs.items():
            src, dst = key.split("->")
            assert pair["steering"]["backbone_bytes"] == projected.get((src, dst), 0), key

    @pytest.mark.parametrize("policy", steering.POLICIES)
    def test_saved_bytes_are_the_offloaded_calls_bytes(self, comparison, policy):
        run = comparison.runs[policy]
        results = run.results
        offloaded = [decision.offloaded for decision in results.decisions]
        block = run.report.steering
        assert block["offloaded_calls"] == sum(offloaded)
        assert block["backbone_bytes_saved"] == int(results.backbone_bytes[offloaded].sum())
        assert (block["backbone_bytes_saved"] == 0) == (block["offloaded_calls"] == 0)
        # Per pair: the projection of the offloaded calls alone.
        saved = corridor_payload_bytes(
            [spec for spec, off in zip(results.specs, offloaded) if off], CampaignConfig()
        )
        for key, pair in run.report.pairs.items():
            src, dst = key.split("->")
            block = pair["steering"]
            assert block["backbone_bytes_saved"] == saved.get((src, dst), 0), key
            assert (block["backbone_bytes_saved"] == 0) == (block["offloaded_calls"] == 0), key
