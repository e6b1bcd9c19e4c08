"""Tests for the diurnal Poisson call-arrival process."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import _TOPOLOGY_CONFIGS, WorldScale
from repro.net.topology import generate_topology
from repro.workload.arrivals import (
    DURATION_CHOICES_S,
    DURATION_WEIGHTS,
    CallArrivalProcess,
    CallSpec,
    call_rate_profile,
)
from repro.workload.population import UserPopulation


@pytest.fixture(scope="module")
def population(small_world):
    return UserPopulation.sample(small_world.topology, 100, seed=21)


class TestGeneration:
    def test_deterministic_under_seed(self, population):
        a = CallArrivalProcess(population, seed=5).generate(days=1)
        b = CallArrivalProcess(population, seed=5).generate(days=1)
        assert a == b

    def test_different_seeds_differ(self, population):
        a = CallArrivalProcess(population, seed=5).generate(days=1)
        b = CallArrivalProcess(population, seed=6).generate(days=1)
        assert a != b

    def test_volume_matches_rate(self, population):
        process = CallArrivalProcess(population, calls_per_user_day=4.0, seed=1)
        calls = process.generate(days=2)
        expected = len(population) * 4.0 * 2
        # Poisson: 4 sigma around the mean.
        assert abs(len(calls) - expected) < 4 * np.sqrt(expected)

    def test_spec_fields_well_formed(self, population):
        calls = CallArrivalProcess(population, seed=2).generate(days=2)
        assert [spec.call_id for spec in calls] == list(range(len(calls)))
        for spec in calls:
            assert spec.callee.user_id != spec.caller.user_id
            assert 0.0 <= spec.start_hour_cet < 24.0
            assert spec.day in (0, 1)
            assert spec.duration_s in DURATION_CHOICES_S

    def test_calls_sorted_by_start(self, population):
        calls = CallArrivalProcess(population, seed=2).generate(days=2)
        starts = [spec.day * 24.0 + spec.start_hour_cet for spec in calls]
        assert starts == sorted(starts)

    def test_multiparty_fraction_respected(self, population):
        process = CallArrivalProcess(
            population, calls_per_user_day=8.0, multiparty_fraction=0.3, seed=4
        )
        calls = process.generate(days=2)
        fraction = sum(spec.multiparty for spec in calls) / len(calls)
        assert fraction == pytest.approx(0.3, abs=0.07)

    def test_zero_multiparty(self, population):
        calls = CallArrivalProcess(
            population, multiparty_fraction=0.0, seed=4
        ).generate(days=1)
        assert not any(spec.multiparty for spec in calls)

    def test_callee_popularity_is_skewed(self, population):
        """Zipf callees: the busiest callee attracts far more than 1/N."""
        calls = CallArrivalProcess(
            population, calls_per_user_day=10.0, seed=9
        ).generate(days=1)
        counts: dict[int, int] = {}
        for spec in calls:
            counts[spec.callee.user_id] = counts.get(spec.callee.user_id, 0) + 1
        top_share = max(counts.values()) / len(calls)
        assert top_share > 3.0 / len(population)


class TestDiurnalShape:
    def test_hourly_rates_normalised(self, population):
        process = CallArrivalProcess(population, calls_per_user_day=4.0, seed=1)
        region = next(iter(population.by_region()))
        n_users = len(population.users_in_region(region))
        rates = process._hourly_rates(region, n_users)
        assert rates.shape == (24,)
        assert rates.sum() == pytest.approx(n_users * 4.0)

    def test_rates_swing_with_the_clock(self, population):
        """Business hours carry several times the night-floor rate."""
        process = CallArrivalProcess(population, seed=1)
        region = next(iter(population.by_region()))
        rates = process._hourly_rates(region, 100)
        assert rates.max() > 2.0 * rates.min()

    def test_profile_region_specific(self):
        from repro.geo.regions import WorldRegion

        profiles = {
            region: call_rate_profile(region).amplitude for region in WorldRegion
        }
        assert len(set(profiles.values())) > 1


class TestValidation:
    def test_too_small_population(self, small_world):
        lone = UserPopulation.sample(small_world.topology, 1, seed=1)
        with pytest.raises(ValueError):
            CallArrivalProcess(lone)

    def test_bad_rate_and_fraction(self, population):
        with pytest.raises(ValueError):
            CallArrivalProcess(population, calls_per_user_day=0.0)
        with pytest.raises(ValueError):
            CallArrivalProcess(population, multiparty_fraction=1.5)

    def test_bad_days(self, population):
        with pytest.raises(ValueError):
            CallArrivalProcess(population, seed=1).generate(days=0)

    @pytest.mark.parametrize("days", [1.5, 1.0, True, False, "1", None])
    def test_days_must_be_an_int(self, population, days):
        """A fractional day used to reach ``range`` (a ``TypeError``) and
        ``True`` silently ran one day."""
        with pytest.raises(ValueError, match="days must be a positive int"):
            CallArrivalProcess(population, seed=1).generate(days=days)


def reference_generate(process: CallArrivalProcess, days: int) -> list[CallSpec]:
    """The per-call generator ``generate`` replaced, kept as its oracle.

    One ``Generator.choice(p=...)`` per callee draw (a self-call draws
    again) and per duration, then one ``random()`` for the multiparty
    flag, call by call in start order.
    """
    rng = np.random.default_rng(process.seed)
    durations = np.array(DURATION_CHOICES_S)
    duration_probs = np.array(DURATION_WEIGHTS) / sum(DURATION_WEIGHTS)
    population = process.population
    regions = sorted(population.by_region(), key=lambda r: r.value)
    calls = []
    for region in regions:
        users = population.users_in_region(region)
        rates = process._hourly_rates(region, len(users))
        for day in range(days):
            for hour in range(24):
                n_calls = int(rng.poisson(rates[hour]))
                if n_calls == 0:
                    continue
                offsets = rng.random(n_calls)
                callers = rng.integers(0, len(users), size=n_calls)
                for offset, caller_idx in zip(offsets, callers):
                    start = day * 24.0 + hour + float(offset)
                    calls.append((start, users[int(caller_idx)]))
    calls.sort(key=lambda item: item[0])
    everyone = population.users
    specs = []
    for call_id, (start, caller) in enumerate(calls):
        while True:
            callee = everyone[int(rng.choice(len(everyone), p=process._callee_probs))]
            if callee.user_id != caller.user_id:
                break
        duration = float(durations[int(rng.choice(len(durations), p=duration_probs))])
        specs.append(
            CallSpec(
                call_id=call_id,
                caller=caller,
                callee=callee,
                day=int(start // 24.0),
                start_hour_cet=start % 24.0,
                duration_s=duration,
                multiparty=bool(rng.random() < process.multiparty_fraction),
            )
        )
    return specs


class TestBlockDrawOracle:
    """``generate`` draws its per-call uniforms in blocks; every call list
    must equal the per-call reference's, call for call."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_users=st.one_of(st.integers(2, 3), st.integers(2, 150)),
        days=st.integers(1, 3),
        rate=st.sampled_from([0.5, 4.0, 9.0]),
        multiparty=st.sampled_from([0.0, 0.15, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_reference(self, tiny_topology, seed, n_users, days, rate, multiparty):
        population = UserPopulation.sample(tiny_topology, n_users, seed=seed % 997)
        process = CallArrivalProcess(
            population,
            calls_per_user_day=rate,
            multiparty_fraction=multiparty,
            seed=seed,
        )
        assert process.generate(days=days) == reference_generate(process, days)

    def test_two_users_reject_self_calls_often(self, tiny_topology):
        """Two users: about half the callee draws are self-calls, so the
        oracle above exercises rejection (and block refills) heavily."""
        population = UserPopulation.sample(tiny_topology, 2, seed=3)
        process = CallArrivalProcess(population, calls_per_user_day=40.0, seed=8)
        calls = process.generate(days=3)
        assert len(calls) > 100
        assert calls == reference_generate(process, 3)

    @pytest.mark.parametrize("scale", ["small", pytest.param("medium", marks=pytest.mark.slow)])
    @pytest.mark.parametrize("seed", [7, 11, 0])
    def test_bench_day_equals_reference(self, scale, seed):
        """The 1,200-user, 9-calls-per-user day on the seed-7 world."""
        topology = generate_topology(
            _TOPOLOGY_CONFIGS[WorldScale(scale)], np.random.default_rng(7)
        )
        population = UserPopulation.sample(topology, 1200, seed=seed)
        process = CallArrivalProcess(population, calls_per_user_day=9.0, seed=seed)
        calls = process.generate(days=1)
        assert len(calls) > 10_000
        assert calls == reference_generate(process, 1)
