"""Unit tests for measurement statistics."""

import numpy as np
import pytest

from repro.measurement.stats import (
    Ccdf,
    Cdf,
    fraction_at_most,
    fraction_exceeding,
    percentiles,
)


class TestCdf:
    def test_basic(self):
        cdf = Cdf.of([1.0, 2.0, 3.0, 4.0])
        assert cdf.at(0.5) == 0.0
        assert cdf.at(2.0) == 0.5
        assert cdf.at(10.0) == 1.0

    def test_quantile(self):
        cdf = Cdf.of(range(1, 101))
        assert cdf.quantile(0.5) == 50
        assert cdf.quantile(1.0) == 100

    def test_quantile_validation(self):
        cdf = Cdf.of([1.0])
        with pytest.raises(ValueError):
            cdf.quantile(0.0)
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cdf.of([])

    def test_series_monotone(self):
        cdf = Cdf.of([3.0, 1.0, 2.0])
        series = cdf.series()
        xs = [x for x, _ in series]
        ps = [p for _, p in series]
        assert xs == sorted(xs)
        assert ps == sorted(ps)
        assert ps[-1] == pytest.approx(1.0)

    def test_len(self):
        assert len(Cdf.of([1, 2, 3])) == 3


class TestCcdf:
    def test_complementarity(self):
        values = [1.0, 2.0, 3.0, 4.0]
        cdf = Cdf.of(values)
        ccdf = Ccdf.of(values)
        for x in (0.5, 1.5, 2.5, 3.5, 4.5):
            assert ccdf.at(x) == pytest.approx(1.0 - cdf.at(x))

    def test_at_threshold(self):
        ccdf = Ccdf.of([0.1, 0.2, 0.3, 0.4])
        assert ccdf.at(0.15) == pytest.approx(0.75)

    def test_series_agrees_with_at_everywhere(self):
        # One convention: series() is P(X > x), the same strict
        # inequality at() evaluates — including at every sample point.
        values = [0.1, 0.2, 0.3, 0.7, 0.9]
        ccdf = Ccdf.of(values)
        for x, p in ccdf.series():
            assert p == pytest.approx(ccdf.at(x))

    def test_ties_agree_at_last_occurrence(self):
        # Tied samples keep one series row per sample (step plotting);
        # the full step — the value at() evaluates — sits on the last row
        # of the tie.
        ccdf = Ccdf.of([0.1, 0.2, 0.2, 0.3])
        series = ccdf.series()
        assert series[2] == (pytest.approx(0.2), pytest.approx(ccdf.at(0.2)))

    def test_max_sample_has_probability_zero(self):
        # Strict P(X > x): nothing exceeds the largest sample.
        ccdf = Ccdf.of([1.0, 2.0, 5.0])
        assert ccdf.series()[-1][1] == pytest.approx(0.0)
        assert ccdf.at(5.0) == 0.0

    def test_agrees_with_fraction_exceeding(self):
        values = [0.0, 0.1, 0.15, 0.3, 0.9]
        ccdf = Ccdf.of(values)
        for t in (0.0, 0.1, 0.15, 0.2, 1.0):
            assert ccdf.at(t) == pytest.approx(fraction_exceeding(values, t))


class TestFractions:
    def test_fraction_exceeding(self):
        values = [0.0, 0.1, 0.2, 0.3]
        assert fraction_exceeding(values, 0.15) == 0.5
        assert fraction_exceeding(values, 0.3) == 0.0
        assert fraction_exceeding([], 1.0) == 0.0

    def test_fraction_at_most(self):
        values = [0.0, 0.1, 0.2, 0.3]
        assert fraction_at_most(values, 0.1) == 0.5
        assert fraction_at_most([], 1.0) == 0.0

    def test_complementary(self):
        values = [1.0, 2.0, 5.0, 7.0]
        for t in (0.0, 2.0, 6.0, 9.0):
            assert fraction_at_most(values, t) + fraction_exceeding(values, t) == 1.0


class TestPercentile:
    def test_median(self):
        assert percentiles([1, 2, 3, 4, 5], (50,)) == (3.0,)
        assert percentiles([1, 2, 3, 4, 5], (50, 95, 0)) == (3.0, 4.8, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            percentiles([], (50,))
        with pytest.raises(ValueError):
            percentiles([1], (50, 101))

    def test_one_call_equals_one_call_per_q(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 7, 30, 101):
            values = rng.exponential(3.0, size=n).tolist()
            together = percentiles(values, (50, 95))
            alone = tuple(float(np.percentile(np.asarray(values), q)) for q in (50, 95))
            assert together == alone

