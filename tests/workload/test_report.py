"""Tests for campaign aggregation and the stable report."""

import json

import numpy as np
import pytest

from repro.dataplane.transmit import StreamResult
from repro.geo.coords import GeoPoint
from repro.geo.regions import WorldRegion
from repro.net.addressing import Prefix
from repro.workload.arrivals import CallSpec
from repro.workload.engine import CallResult
from repro.workload.population import User
from repro.workload import LOSSY_SLOT_THRESHOLD
from repro.workload.report import (
    REGION_CODE,
    CampaignAggregator,
    PairAccumulator,
)


def make_user(user_id: int, region: WorldRegion) -> User:
    return User(
        user_id=user_id,
        prefix=Prefix.parse(f"10.{user_id}.0.0/20"),
        asn=65100 + user_id,
        location=GeoPoint(0.0, 0.0),
        region=region,
    )


def make_stream(
    loss_per_slot: list[int], *, packets_per_slot: int = 100, rtt_ms: float = 50.0
) -> StreamResult:
    return StreamResult(
        packets_sent=packets_per_slot * len(loss_per_slot),
        slot_losses=np.array(loss_per_slot),
        jitter_p95_ms=3.0,
        rtt_ms=rtt_ms,
    )


def make_result(
    call_id: int,
    src: WorldRegion,
    dst: WorldRegion,
    *,
    vns_losses: list[int],
    inet_losses: list[int],
    vns_rtt: float = 50.0,
    inet_rtt: float = 80.0,
    multiparty: bool = False,
) -> CallResult:
    spec = CallSpec(
        call_id=call_id,
        caller=make_user(2 * call_id, src),
        callee=make_user(2 * call_id + 1, dst),
        day=0,
        start_hour_cet=12.0,
        duration_s=5.0 * len(vns_losses),
        multiparty=multiparty,
    )
    return CallResult(
        spec=spec,
        entry_pop="AMS",
        egress_pop="ASH",
        via_vns=make_stream(vns_losses, rtt_ms=vns_rtt),
        via_internet=make_stream(inet_losses, rtt_ms=inet_rtt),
    )


class TestPairAccumulator:
    def test_win_rates_and_counts(self):
        aggregator = CampaignAggregator()
        # VNS wins delay both times, loses loss once.
        aggregator.add(
            make_result(
                0,
                WorldRegion.EUROPE,
                WorldRegion.EUROPE,
                vns_losses=[0, 0],
                inet_losses=[5, 5],
                multiparty=True,
            )
        )
        aggregator.add(
            make_result(
                1,
                WorldRegion.EUROPE,
                WorldRegion.EUROPE,
                vns_losses=[8, 8],
                inet_losses=[0, 0],
            )
        )
        summary = aggregator.pairs[("EU", "EU")].summary()
        assert summary["calls"] == 2
        assert summary["multiparty"] == 1
        assert summary["vns_delay_win_rate"] == pytest.approx(1.0)
        assert summary["vns_loss_win_rate"] == pytest.approx(0.5)

    def test_lossy_slot_threshold(self):
        # 100 packets/slot: 1 lost is below the 2% threshold, 2 is at it.
        assert LOSSY_SLOT_THRESHOLD == pytest.approx(0.02)
        accumulator = PairAccumulator(src="EU", dst="EU")
        accumulator.add(
            make_result(
                0,
                WorldRegion.EUROPE,
                WorldRegion.EUROPE,
                vns_losses=[0, 1, 2, 50],
                inet_losses=[0, 0, 0, 0],
            )
        )
        summary = accumulator.summary()
        assert summary["vns"]["lossy_slot_fraction"] == pytest.approx(0.5)
        assert summary["internet"]["lossy_slot_fraction"] == pytest.approx(0.0)

    def test_merge_mismatched_pairs_rejected(self):
        a = PairAccumulator(src="EU", dst="EU")
        b = PairAccumulator(src="EU", dst="NA")
        with pytest.raises(ValueError):
            a.merge(b)


class TestShardMerge:
    def test_sharded_equals_unsharded(self):
        results = [
            make_result(
                i,
                WorldRegion.EUROPE,
                WorldRegion.ASIA_PACIFIC if i % 3 else WorldRegion.EUROPE,
                vns_losses=[i % 4, (i * 7) % 5],
                inet_losses=[(i * 3) % 6, i % 2],
                vns_rtt=40.0 + i,
                inet_rtt=60.0 + (i * 13) % 30,
                multiparty=i % 5 == 0,
            )
            for i in range(60)
        ]
        whole = CampaignAggregator()
        for result in results:
            whole.add(result)
        shard_a, shard_b = CampaignAggregator(), CampaignAggregator()
        for i, result in enumerate(results):
            (shard_a if i % 2 else shard_b).add(result)
        shard_a.merge(shard_b)
        merged = shard_a.report(seed=1).to_dict()
        reference = whole.report(seed=1).to_dict()
        assert merged == reference


class TestReport:
    def test_json_stable_and_sorted(self):
        aggregator = CampaignAggregator()
        aggregator.add(
            make_result(
                0,
                WorldRegion.NORTH_CENTRAL_AMERICA,
                WorldRegion.EUROPE,
                vns_losses=[1, 2],
                inet_losses=[3, 4],
            )
        )
        report = aggregator.report(seed=4, n_failed=2, turn_allocations=1)
        text = report.to_json()
        assert text == aggregator.report(
            seed=4, n_failed=2, turn_allocations=1
        ).to_json()
        parsed = json.loads(text)
        assert parsed["seed"] == 4
        assert parsed["n_calls"] == 1
        assert parsed["n_failed"] == 2
        assert parsed["turn_allocations"] == 1
        assert list(parsed["pairs"]) == ["NA->EU"]
        assert report.pair("NA", "EU") is not None
        assert report.pair("EU", "NA") is None

    def test_region_codes_cover_all_regions(self):
        assert set(REGION_CODE) == set(WorldRegion)
        assert len(set(REGION_CODE.values())) == len(WorldRegion)


class TestPartialFinalSlot:
    """A 12 s stream is 2,100 + 2,100 + 840 packets: the lossy-slot rule
    thresholds the last slot against the 840 it carried, not against the
    mean slot size (2% of the mean is 34 packets, of the slot itself 17)."""

    SLOT_PACKETS = np.array([2100, 2100, 840])

    def test_rule_uses_each_slots_own_packets(self):
        from repro.dataplane.transmit import count_heavy_loss_slots

        assert count_heavy_loss_slots(np.array([41, 42, 16]), self.SLOT_PACKETS) == 1
        assert count_heavy_loss_slots(np.array([41, 42, 17]), self.SLOT_PACKETS) == 2
        assert list(
            count_heavy_loss_slots(np.array([[0, 0, 17], [42, 42, 0]]), self.SLOT_PACKETS)
        ) == [1, 2]

    def test_campaign_folds_the_simulators_count(self):
        from repro.dataplane.columnar import StreamColumnSpec, simulate_stream_columns
        from repro.dataplane.link import PathSegment, SegmentKind, degrade_segment
        from repro.dataplane.path import DataPath
        from repro.dataplane.transmit import simulate_stream

        location = GeoPoint(52.37, 4.9)
        # A flat 3% impairment: every slot loses about 3% of what it
        # carried, so the 840-packet tail loses ~25 — lossy by its own
        # size, not by the mean slot's.
        path = DataPath(
            segments=[
                degrade_segment(
                    PathSegment(kind=SegmentKind.PEERING, start=location, end=location),
                    extra_loss=0.03,
                )
            ]
        )
        spec = StreamColumnSpec(path, 40, 12.0, 12.5, (1, 2))
        streams = simulate_stream_columns([spec])[0]
        streams.append(
            simulate_stream(path, duration_s=12.0, rng=np.random.default_rng(3))
        )
        by_own_size = [
            int((s.slot_losses / self.SLOT_PACKETS >= LOSSY_SLOT_THRESHOLD).sum())
            for s in streams
        ]
        by_mean_size = [
            int((s.slot_losses / (s.packets_sent / 3) >= LOSSY_SLOT_THRESHOLD).sum())
            for s in streams
        ]
        assert [s.heavy_loss_slots for s in streams] == by_own_size
        assert by_own_size != by_mean_size  # the case the old rule got wrong

        accumulator = PairAccumulator(src="EU", dst="EU")
        lossless = make_stream([0, 0, 0])
        for call_id, stream in enumerate(streams):
            result = make_result(
                call_id,
                WorldRegion.EUROPE,
                WorldRegion.EUROPE,
                vns_losses=[0, 0, 0],
                inet_losses=[0, 0, 0],
            )
            result.via_vns, result.via_internet = stream, lossless
            accumulator.add(result)
        assert accumulator.vns_lossy_slots == sum(by_own_size)
        assert accumulator.vns_slots == 3 * len(streams)
        assert accumulator.inet_lossy_slots == 0
