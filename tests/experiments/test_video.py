"""The Sec. 5.1 video campaign on the columnar kernel.

Distribution identity against the scalar oracle on the campaign's own
paths, and the structural facts counter keying buys: a session's draws
depend on its labels and day only, never on which other sessions run.
"""

import numpy as np
import pytest
from scipy import stats

from repro.dataplane.columnar import StreamColumnSpec, simulate_columns, spec_digest
from repro.dataplane.transmit import simulate_stream
from repro.experiments import fig9_video_loss, fig10_loss_nature, video
from repro.experiments.video import CLIENT_POPS, SERVER_POPS, run_video_campaign
from repro.media.codec import PROFILE_1080P, PROFILE_720P

#: Every column a session row carries besides its profile code.
ROW_COLUMNS = (
    "client",
    "server",
    "region",
    "transport",
    "day",
    "hour",
    "loss_percent",
    "lossy_slots",
    "n_slots",
    "jitter_p95_ms",
)


def assert_same_rows(a, rows_a, b, rows_b) -> None:
    for name in ROW_COLUMNS:
        assert np.array_equal(getattr(a, name)[rows_a], getattr(b, name)[rows_b]), name


def two_proportion_z(hits_a: int, hits_b: int, n: int) -> float:
    pooled = (hits_a + hits_b) / (2 * n)
    if pooled in (0.0, 1.0):
        return 0.0
    return (hits_a - hits_b) / n / np.sqrt(pooled * (1 - pooled) * 2 / n)


class TestKernelMatchesScalarOnCampaignPaths:
    """Each forward path of the campaign: 400 kernel vs 400 scalar streams."""

    N = 400
    HOUR = 20.5

    def forward_paths(self, world):
        service = world.service
        return [
            (client, server, transport, path)
            for client in CLIENT_POPS
            for server in SERVER_POPS
            for transport, path in (
                ("I", service.vns_internal_path(client, server)),
                ("T", service.path_between_pops_via_upstream(client, server)),
            )
        ]

    def kernel_sample(self, paths):
        specs = [
            StreamColumnSpec(
                path, self.N, 120.0, self.HOUR, spec_digest(f"{client}|{server}|{transport}")
            )
            for client, server, transport, path in paths
        ]
        columns = simulate_columns(specs, packets_per_second=PROFILE_1080P.packets_per_second)
        loss = 100.0 * columns.packets_lost / columns.packets_sent
        lossy = columns.lossy_slots()
        return [
            (loss[rows], lossy[rows], columns.jitter_p95_ms[rows])
            for rows in (slice(i * self.N, (i + 1) * self.N) for i in range(len(specs)))
        ]

    def scalar_sample(self, paths):
        rng = np.random.default_rng(2013)
        out = []
        for *_, path in paths:
            streams = [
                simulate_stream(
                    path,
                    packets_per_second=PROFILE_1080P.packets_per_second,
                    hour_cet=self.HOUR,
                    rng=rng,
                )
                for _ in range(self.N)
            ]
            out.append(
                (
                    np.array([s.loss_percent for s in streams]),
                    np.array([s.lossy_slots for s in streams]),
                    np.array([s.jitter_p95_ms for s in streams]),
                )
            )
        return out

    def test_loss_and_jitter_in_distribution(self, small_world):
        paths = self.forward_paths(small_world)
        assert len(paths) == 48
        for label, kernel, scalar in zip(
            paths, self.kernel_sample(paths), self.scalar_sample(paths)
        ):
            (k_loss, k_slots, k_jitter), (s_loss, s_slots, s_jitter) = kernel, scalar
            over = two_proportion_z(
                int((k_loss > 0.15).sum()), int((s_loss > 0.15).sum()), self.N
            )
            spread = two_proportion_z(
                int((k_slots >= 4).sum()), int((s_slots >= 4).sum()), self.N
            )
            assert abs(over) <= 4.5, (label[:3], over)
            assert abs(spread) <= 4.5, (label[:3], spread)
            assert stats.ks_2samp(k_jitter, s_jitter).pvalue >= 1e-3, label[:3]


class TestCampaignStructure:
    def test_ams_rows_are_the_ams_only_run(self, small_world):
        full = run_video_campaign(small_world, days=2, minutes_between_rounds=60.0)
        alone = fig10_loss_nature.run(small_world, days=2, minutes_between_rounds=60.0)
        from_full = fig10_loss_nature.analyze(full)
        assert from_full.points == alone.points
        assert from_full.counts == alone.counts
        assert alone.sessions("T") == 2 * 24 * len(SERVER_POPS)

    def test_a_shorter_campaign_is_a_prefix_of_a_longer_one(self, small_world):
        two = run_video_campaign(small_world, days=2, minutes_between_rounds=120.0)
        three = run_video_campaign(small_world, days=3, minutes_between_rounds=120.0)
        assert len(three) == len(two) * 3 // 2
        assert_same_rows(two, slice(None), three, three.day < 2)

    def test_profile_order_changes_no_row(self, small_world):
        kwargs = dict(days=2, minutes_between_rounds=120.0)
        ab = run_video_campaign(small_world, profiles=(PROFILE_1080P, PROFILE_720P), **kwargs)
        ba = run_video_campaign(small_world, profiles=(PROFILE_720P, PROFILE_1080P), **kwargs)
        for profile in (PROFILE_1080P, PROFILE_720P):
            assert_same_rows(
                ab, ab.mask(profile=profile), ba, ba.mask(profile=profile)
            )

    def test_one_kernel_call_per_profile(self, small_world, monkeypatch):
        calls = []

        def counting(specs, **kwargs):
            calls.append(len(specs))
            return simulate_columns(specs, **kwargs)

        monkeypatch.setattr(video, "simulate_columns", counting)
        campaign = run_video_campaign(
            small_world, days=3, profiles=(PROFILE_1080P, PROFILE_720P)
        )
        # Forward and echoed spec per (client, server, transport, hour).
        specs = len(CLIENT_POPS) * len(SERVER_POPS) * 2 * 12
        assert calls == [2 * specs, 2 * specs]
        assert len(campaign) == 2 * specs * 3

    def test_days_must_be_positive(self, small_world):
        with pytest.raises(ValueError, match="n_streams must be positive"):
            run_video_campaign(small_world, days=0)


class TestFig9PlotsItsProfile:
    def test_1080p_curves_ignore_the_720p_streams(self, small_world):
        kwargs = dict(days=2, minutes_between_rounds=60.0)
        both = fig9_video_loss.run(small_world, include_720p=True, **kwargs)
        alone = fig9_video_loss.run(small_world, **kwargs)
        for client in fig9_video_loss.FIGURE_CLIENTS:
            for region in video.REGIONS:
                for transport in ("I", "T"):
                    values = both.campaign.loss_values(client, region, transport)
                    assert len(values) == 2 * 24 * 2
                    assert values == alone.campaign.loss_values(client, region, transport)
