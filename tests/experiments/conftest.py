"""Shared experiment-campaign fixtures (expensive; session-scoped)."""

import pytest

from repro.experiments.common import build_world
from repro.experiments.lastmile import LastMileData, run_lastmile_campaign
from repro.experiments.video import VideoCampaignResult, run_video_campaign
from repro.media.codec import PROFILE_1080P, PROFILE_720P

#: SMALL world seeds every Fig. 9 / Fig. 10 directional test runs at.
VIDEO_SEEDS = (42, 7, 11)


@pytest.fixture(scope="session", params=VIDEO_SEEDS)
def video_campaign(request) -> VideoCampaignResult:
    """The Sec. 5.1 campaign at the paper's size, one per world seed.

    Both profiles, half-hourly for two weeks: 1,344 sessions per Fig. 9
    curve.  At two days (96 a curve) a seed's draw can reverse the
    ~4-point AP-over-EU transit gap by chance.
    """
    seed = request.param
    world = (
        request.getfixturevalue("small_world")
        if seed == 42
        else build_world("small", seed=seed)
    )
    return run_video_campaign(
        world,
        days=14,
        minutes_between_rounds=30.0,
        profiles=(PROFILE_1080P, PROFILE_720P),
    )


@pytest.fixture(scope="session")
def lastmile_data(small_world) -> LastMileData:
    """A scaled-down Sec. 5.2 campaign."""
    return run_lastmile_campaign(
        small_world,
        hosts_per_type_per_region=6,
        days=2,
        minutes_between_rounds=60.0,
    )
