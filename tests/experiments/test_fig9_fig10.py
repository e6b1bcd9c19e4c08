"""Shape tests for Fig. 9 (video loss CCDFs) and Fig. 10 (loss nature)."""

import pytest

from repro.experiments import fig10_loss_nature, fig9_video_loss
from repro.experiments.fig10_loss_nature import LossClass, classify
from repro.experiments.fig9_video_loss import Fig9Result
from repro.geo.regions import PopRegion
from repro.measurement.stats import fraction_exceeding
from repro.media.codec import PROFILE_1080P, PROFILE_720P


@pytest.fixture(scope="module")
def fig9(video_campaign) -> Fig9Result:
    return Fig9Result(campaign=video_campaign)


class TestFig9:
    def test_vns_dominates_transit(self, fig9):
        """VNS streams must lose less than transit streams for every
        (client, region) pair with data (Fig. 9's headline)."""
        for client in ("AMS", "SJS", "SYD"):
            for region in (PopRegion.AP, PopRegion.EU, PopRegion.NA):
                transit = fig9.fraction_over(client, region, "T")
                vns = fig9.fraction_over(client, region, "I")
                assert vns <= transit

    def test_ap_transit_is_worst(self, fig9):
        """All clients experience significant extra loss to AP through
        upstreams."""
        for client in ("AMS", "SJS"):
            ap = fig9.fraction_over(client, PopRegion.AP, "T")
            eu = fig9.fraction_over(client, PopRegion.EU, "T")
            assert ap > eu

    def test_sydney_to_ap_heavy_loss(self, fig9):
        # Paper: 43% of Sydney->AP transit streams exceed 0.15% loss.
        assert fig9.fraction_over("SYD", PopRegion.AP, "T") > 0.2

    def test_intra_region_vns_lossless(self, fig9):
        # "There is no loss from Sydney to AP, no loss from Amsterdam to
        # EU" through VNS — intra/nearby regions stay clean.
        assert fig9.fraction_over("AMS", PopRegion.EU, "I") < 0.02

    def test_vns_nearly_never_above_1pct(self, fig9):
        for client in ("AMS", "SJS", "SYD"):
            for region in PopRegion:
                values = fig9.campaign.loss_values(client, region, "I")
                assert fraction_exceeding(values, 1.0) < 0.02

    def test_ccdf_accessor(self, fig9):
        ccdf = fig9.ccdf("AMS", PopRegion.AP, "T")
        assert ccdf is not None
        assert ccdf.at(0.0) > 0.0
        assert fig9.ccdf("AMS", PopRegion.AP, "X") is None

    def test_jitter_summary(self, fig9):
        # Sec. 5.1.1: jitter <= 10 ms in 99% (1080p) / 97% (720p).
        j1080 = fig9.jitter_fraction_below(PROFILE_1080P, 10.0)
        j720 = fig9.jitter_fraction_below(PROFILE_720P, 10.0)
        assert j1080 > 0.93
        assert j720 > 0.90
        assert j1080 >= j720 - 0.02

    def test_jitter_below_20ms_nearly_always(self, fig9):
        # "Measured jitter is mostly below 20ms".
        assert fig9.jitter_fraction_below(PROFILE_1080P, 20.0) > 0.985

    def test_render(self, fig9):
        text = fig9_video_loss.render(fig9)
        assert ">0.15%" in text and "jitter" in text


class TestClassify:
    def test_no_loss(self):
        assert classify(0.0, 0) is LossClass.NO_LOSS

    def test_random_baseline(self):
        assert classify(0.01, 6) is LossClass.RANDOM_BASELINE

    def test_short_burst(self):
        assert classify(2.0, 2) is LossClass.SHORT_BURST

    def test_long_burst(self):
        assert classify(3.0, 24) is LossClass.LONG_BURST

    def test_mid_spread_large_loss_is_random(self):
        assert classify(0.5, 10) is LossClass.RANDOM_BASELINE


class TestFig10:
    @pytest.fixture(scope="class")
    def fig10(self, video_campaign):
        return fig10_loss_nature.analyze(video_campaign)

    def test_transit_has_random_baseline(self, fig10):
        assert fig10.count("T", LossClass.RANDOM_BASELINE) > 0

    def test_transit_has_bursty_outliers(self, fig10):
        bursts = fig10.count("T", LossClass.SHORT_BURST) + fig10.count(
            "T", LossClass.LONG_BURST
        )
        assert bursts > 0

    def test_vns_eliminates_outliers(self, fig10):
        assert fig10.count("I", LossClass.SHORT_BURST) == 0
        assert fig10.count("I", LossClass.LONG_BURST) == 0

    def test_vns_eliminates_multi_slot_loss(self, fig10):
        assert fig10.multi_slot_loss_fraction("I") < fig10.multi_slot_loss_fraction("T")

    def test_vns_mostly_lossless(self, fig10):
        sessions = fig10.sessions("I")
        assert fig10.count("I", LossClass.NO_LOSS) / sessions > 0.85

    def test_scatter_available(self, fig10):
        assert len(fig10.scatter("T")) == fig10.sessions("T")

    def test_render(self, fig10):
        text = fig10_loss_nature.render(fig10)
        assert "short-burst" in text
