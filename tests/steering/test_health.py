"""Unit tests for the path-health telemetry store."""

import pytest

from repro.steering.health import (
    AGGREGATE_BUCKET,
    EWMA_ALPHA,
    MAX_AGE_HOURS,
    MIN_SAMPLES,
    HealthEntry,
    PathHealthTable,
    Transport,
    bucket_of,
)


def _fill(table, src="EU", dst="NA", transport=Transport.INTERNET, n=3, t0=0.0):
    for i in range(n):
        table.observe(
            src,
            dst,
            transport,
            rtt_ms=100.0 + i,
            loss_fraction=0.01,
            t_hours=t0 + float(i),
        )


class TestHealthEntry:
    def test_first_sample_seeds_ewma(self):
        entry = HealthEntry()
        entry.observe(80.0, 0.02, t_hours=1.0)
        assert entry.rtt_ms == 80.0
        assert entry.loss_fraction == 0.02
        assert entry.samples == 1

    def test_ewma_moves_toward_new_observations(self):
        entry = HealthEntry()
        entry.observe(100.0, 0.0, t_hours=0.0)
        entry.observe(200.0, 0.1, t_hours=1.0)
        assert entry.rtt_ms == pytest.approx(100.0 + EWMA_ALPHA * 100.0)
        assert entry.loss_fraction == pytest.approx(EWMA_ALPHA * 0.1)

    def test_staleness(self):
        entry = HealthEntry()
        entry.observe(100.0, 0.0, t_hours=10.0)
        assert not entry.is_stale(now_hours=10.0 + MAX_AGE_HOURS)
        assert entry.is_stale(now_hours=10.0 + MAX_AGE_HOURS + 1.0)

    def test_loss_percent(self):
        entry = HealthEntry(loss_fraction=0.015)
        assert entry.loss_percent == pytest.approx(1.5)


class TestPathHealthTable:
    def test_observe_fills_bucket_and_aggregate(self):
        table = PathHealthTable()
        table.observe(
            "EU", "NA", Transport.VNS, rtt_ms=90.0, loss_fraction=0.0, t_hours=5.0
        )
        assert len(table) == 2  # bucket 1 plus the all-day aggregate
        assert bucket_of(5.0) == 1

    def test_lookup_needs_confidence(self):
        table = PathHealthTable()
        _fill(table, n=MIN_SAMPLES - 1)
        assert table.lookup("EU", "NA", Transport.INTERNET, t_hours=2.0) is None
        _fill(table, n=1, t0=2.0)
        assert table.lookup("EU", "NA", Transport.INTERNET, t_hours=2.0) is not None

    def test_lookup_falls_back_to_aggregate_bucket(self):
        table = PathHealthTable()
        # Observations land in the morning bucket; an evening query has
        # no bucket entry and must serve the all-day aggregate.
        _fill(table, n=3, t0=1.0)
        evening = table.lookup("EU", "NA", Transport.INTERNET, t_hours=20.0)
        assert evening is not None
        morning = table.lookup("EU", "NA", Transport.INTERNET, t_hours=2.0)
        assert morning is not None
        # The aggregate saw the same three samples here, but the morning
        # hit resolves to the bucket entry, not the fallback.
        key_bucket = ("EU", "NA", Transport.INTERNET.value, bucket_of(2.0))
        assert morning is table._entries[key_bucket]
        assert evening is table._entries[("EU", "NA", "internet", AGGREGATE_BUCKET)]

    def test_stale_entries_not_served(self):
        table = PathHealthTable()
        _fill(table, n=3, t0=0.0)
        assert table.lookup("EU", "NA", Transport.INTERNET, t_hours=5.0) is not None
        stale = 2.0 + MAX_AGE_HOURS + 1.0  # the last sample was at hour 2
        assert table.lookup("EU", "NA", Transport.INTERNET, t_hours=stale) is None

    def test_transports_tracked_independently(self):
        table = PathHealthTable()
        _fill(table, transport=Transport.VNS, n=3)
        assert table.lookup("EU", "NA", Transport.INTERNET, t_hours=1.0) is None
        assert table.lookup("EU", "NA", Transport.VNS, t_hours=1.0) is not None

    def test_to_dict_aggregates_only(self):
        table = PathHealthTable()
        _fill(table, n=3)
        view = table.to_dict()
        assert list(view) == ["EU->NA"]
        assert view["EU->NA"]["internet"]["samples"] == 3
