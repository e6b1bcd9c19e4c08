"""Unit tests for propagation delay."""

import pytest

from repro.dataplane.latency import propagation_delay_ms


class TestPropagationDelay:
    def test_zero_distance(self):
        assert propagation_delay_ms(0.0) == 0.0

    def test_scale(self):
        # ~1000 km of inflated fibre is around 7.5 ms one way.
        delay = propagation_delay_ms(1000.0)
        assert 4.0 < delay < 12.0

    def test_monotone_in_distance(self):
        assert propagation_delay_ms(2000.0) > propagation_delay_ms(1000.0)

    def test_inflation_floor(self):
        with pytest.raises(ValueError):
            propagation_delay_ms(100.0, inflation=0.9)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            propagation_delay_ms(-1.0)

    def test_transatlantic_rtt_plausible(self):
        # AMS-NYC is ~5900 km; one-way inflated delay should put the RTT
        # in the familiar 70-100 ms window.
        one_way = propagation_delay_ms(5900.0)
        assert 35.0 < one_way < 50.0
