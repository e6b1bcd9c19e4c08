"""Property-based tests for statistics and loss-model invariants."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.dataplane.transmit import combine_rates
from repro.measurement.stats import Cdf, Ccdf, fraction_at_most, fraction_exceeding

samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)


class TestCdfProperties:
    @given(samples)
    def test_cdf_monotone(self, values):
        cdf = Cdf.of(values)
        assert (np.diff(cdf.ps) >= -1e-12).all()

    @given(samples, st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_cdf_ccdf_complement(self, values, x):
        cdf = Cdf.of(values)
        ccdf = Ccdf.of(values)
        assert cdf.at(x) + ccdf.at(x) == 1.0

    @given(samples)
    def test_cdf_bounds(self, values):
        cdf = Cdf.of(values)
        assert cdf.at(min(values) - 1) == 0.0
        assert cdf.at(max(values)) == 1.0

    @given(samples, st.floats(min_value=0.01, max_value=1.0))
    def test_quantile_is_sample(self, values, q):
        assert Cdf.of(values).quantile(q) in values

    @given(samples, st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_fraction_helpers_complement(self, values, threshold):
        assert fraction_at_most(values, threshold) + fraction_exceeding(
            values, threshold
        ) == 1.0


class TestCcdfProperties:
    @given(samples)
    def test_ccdf_non_increasing_and_zero_at_the_max(self, values):
        ccdf = Ccdf.of(values)
        assert (np.diff(ccdf.xs) >= 0.0).all()
        assert (np.diff(ccdf.ps) <= 0.0).all()
        assert ccdf.ps[0] <= 1.0
        assert ccdf.ps[-1] == 0.0
        assert ccdf.at(max(values)) == 0.0
        assert ccdf.series()[-1] == (max(values), 0.0)


class TestCombineRatesProperties:
    rate_vectors = st.lists(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=4,
            max_size=4,
        ),
        min_size=1,
        max_size=5,
    )

    @given(rate_vectors)
    def test_bounds(self, vectors):
        arrays = [np.array(v) for v in vectors]
        combined = combine_rates(arrays)
        assert ((combined >= -1e-12) & (combined <= 1.0 + 1e-12)).all()

    @given(rate_vectors)
    def test_at_least_max_segment(self, vectors):
        arrays = [np.array(v) for v in vectors]
        combined = combine_rates(arrays)
        stacked = np.vstack(arrays)
        assert (combined >= stacked.max(axis=0) - 1e-9).all()

    @given(rate_vectors)
    def test_at_most_sum(self, vectors):
        arrays = [np.array(v) for v in vectors]
        combined = combine_rates(arrays)
        stacked = np.vstack(arrays)
        assert (combined <= stacked.sum(axis=0) + 1e-9).all()
