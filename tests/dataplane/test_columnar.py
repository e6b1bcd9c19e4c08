"""Columnar stream-simulation kernel: identity, determinism, accounting.

:func:`repro.dataplane.transmit.simulate_stream` is the distribution
oracle: every columnar stream must be distributed exactly as one scalar
call over the same path.  On top of that the kernel makes promises the
scalar path never did — counter-based determinism independent of spec
order, chunking and co-resident specs — which are asserted bitwise.
"""

import numpy as np
import pytest

from repro.dataplane.columnar import (
    StreamColumnSpec,
    _binom_quantile,
    _group_rows,
    simulate_columns,
    simulate_stream_columns,
)
from repro.dataplane.link import PathSegment, SegmentKind, degrade_segment
from repro.dataplane.path import DataPath, path_view
from repro.dataplane.transmit import simulate_stream
from repro.geo.cities import city_by_name
from repro.net.asn import ASType

AMS = city_by_name("Amsterdam").location
SIN = city_by_name("Singapore").location

#: an arbitrary 128-bit group signature split into two words.
DIGEST = (0x0123456789ABCDEF, 0xFEDCBA9876543210)
OTHER_DIGEST = (0x1111111111111111, 0x2222222222222222)


def access_only_path() -> DataPath:
    return DataPath(
        segments=[
            PathSegment(kind=SegmentKind.ACCESS, start=AMS, end=AMS, as_type=ASType.EC)
        ],
        description="access",
    )


def transit_long_path() -> DataPath:
    return DataPath(
        segments=[
            PathSegment(kind=SegmentKind.TRANSIT, start=AMS, end=SIN, owner_type=ASType.LTP)
        ],
        description="transit-long",
    )


def transit_short_path() -> DataPath:
    return DataPath(
        segments=[
            PathSegment(kind=SegmentKind.TRANSIT, start=AMS, end=AMS, owner_type=ASType.STP)
        ],
        description="transit-short",
    )


def vns_path() -> DataPath:
    return DataPath(
        segments=[PathSegment(kind=SegmentKind.VNS_L2, start=AMS, end=SIN)],
        description="vns",
    )


def peering_path() -> DataPath:
    return DataPath(
        segments=[PathSegment(kind=SegmentKind.PEERING, start=AMS, end=AMS)],
        description="peering",
    )


def mixed_path() -> DataPath:
    return DataPath(
        segments=[
            PathSegment(kind=SegmentKind.ACCESS, start=AMS, end=AMS, as_type=ASType.EC),
            PathSegment(kind=SegmentKind.PEERING, start=AMS, end=AMS),
            PathSegment(kind=SegmentKind.TRANSIT, start=AMS, end=SIN, owner_type=ASType.LTP),
            PathSegment(kind=SegmentKind.ACCESS, start=SIN, end=SIN, as_type=ASType.CAHP),
        ],
        description="mixed",
    )


def degraded_transit_path(extra_loss: float = 0.04) -> DataPath:
    base = transit_long_path()
    return DataPath(
        segments=[degrade_segment(base.segments[0], extra_loss=extra_loss)],
        description="degraded",
    )


def columnar_batch(path, n, *, duration_s=120.0, hour_cet=20.0, salt=0, **kwargs):
    spec = StreamColumnSpec(
        path=path,
        n_streams=n,
        duration_s=duration_s,
        hour_cet=hour_cet,
        digest=DIGEST,
        salt=salt,
    )
    return simulate_stream_columns([spec], **kwargs)[0]


def scalar_batch(path, n, *, duration_s=120.0, hour_cet=20.0, seed=999):
    rng = np.random.default_rng(seed)
    return [
        simulate_stream(path, duration_s=duration_s, hour_cet=hour_cet, rng=rng)
        for _ in range(n)
    ]


def assert_same_mean(columnar_values, scalar_values) -> None:
    """Means agree within 4 combined standard errors (both samples finite)."""
    c = np.asarray(columnar_values, dtype=np.float64)
    s = np.asarray(scalar_values, dtype=np.float64)
    stderr = np.sqrt(c.var() / c.size + s.var() / s.size)
    assert abs(c.mean() - s.mean()) < 4 * max(stderr, 1e-9)


def assert_identical(a, b) -> None:
    """Two per-spec result lists are bitwise identical, stream by stream."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.packets_sent == rb.packets_sent
        assert np.array_equal(ra.slot_losses, rb.slot_losses)
        assert ra.jitter_p95_ms == rb.jitter_p95_ms
        assert ra.rtt_ms == rb.rtt_ms


class TestDeterminism:
    def test_repeat_run_bitwise_identical(self):
        a = columnar_batch(transit_long_path(), 64)
        b = columnar_batch(transit_long_path(), 64)
        assert_identical(a, b)

    def test_chunking_does_not_change_results(self):
        path = transit_long_path()
        whole = columnar_batch(path, 50)
        # 120 s streams are 24 slots: 100 cells cut the spec into 4-row passes.
        chunked = columnar_batch(path, 50, max_cells_per_pass=100)
        assert_identical(whole, chunked)

    def test_spec_order_does_not_change_results(self):
        a = StreamColumnSpec(transit_long_path(), 20, 120.0, 20.0, DIGEST, salt=0)
        b = StreamColumnSpec(vns_path(), 30, 120.0, 20.0, OTHER_DIGEST, salt=1)
        ab = simulate_stream_columns([a, b])
        ba = simulate_stream_columns([b, a])
        assert_identical(ab[0], ba[1])
        assert_identical(ab[1], ba[0])

    def test_co_resident_specs_do_not_change_results(self):
        # The detour contract: a group's baseline transports draw the
        # same streams whether or not another spec shares the pass.
        a = StreamColumnSpec(transit_long_path(), 20, 120.0, 20.0, DIGEST, salt=0)
        b = StreamColumnSpec(mixed_path(), 40, 120.0, 20.0, OTHER_DIGEST, salt=2)
        alone = simulate_stream_columns([a])[0]
        together = simulate_stream_columns([a, b])[0]
        assert_identical(alone, together)

    def test_salt_separates_transports(self):
        vns_leg = columnar_batch(transit_long_path(), 50, salt=0)
        inet_leg = columnar_batch(transit_long_path(), 50, salt=1)
        assert [r.jitter_p95_ms for r in vns_leg] != [r.jitter_p95_ms for r in inet_leg]

    def test_digest_separates_groups(self):
        a = StreamColumnSpec(transit_long_path(), 50, 120.0, 20.0, DIGEST)
        b = StreamColumnSpec(transit_long_path(), 50, 120.0, 20.0, OTHER_DIGEST)
        ra, rb = simulate_stream_columns([a, b])
        assert [r.jitter_p95_ms for r in ra] != [r.jitter_p95_ms for r in rb]


class TestAccounting:
    def test_slot_accounting(self):
        results = columnar_batch(transit_long_path(), 8)
        assert len(results) == 8
        for r in results:
            assert r.n_slots == 24
            assert r.packets_sent == 24 * 2100
            assert 0 <= r.packets_lost <= r.packets_sent
            assert r.lossy_slots <= r.n_slots

    def test_partial_final_slot_matches_scalar(self, rng):
        # 12 s at 420 pps: 3 slots, the last carrying 840 packets.
        scalar = simulate_stream(transit_long_path(), duration_s=12.0, rng=rng)
        results = columnar_batch(transit_long_path(), 4, duration_s=12.0)
        for r in results:
            assert r.n_slots == scalar.n_slots == 3
            assert r.packets_sent == scalar.packets_sent == 2 * 2100 + 840

    def test_lossless_peering(self):
        path = peering_path()
        for r in columnar_batch(path, 16):
            assert r.packets_lost == 0
            assert r.lossy_slots == 0
            assert r.rtt_ms == path.rtt_ms()

    def test_rtt_matches_path(self):
        path = mixed_path()
        for r in columnar_batch(path, 4):
            assert r.rtt_ms == path.rtt_ms()

    def test_mixed_slot_counts_in_one_call(self):
        a = StreamColumnSpec(transit_long_path(), 10, 120.0, 20.0, DIGEST, salt=0)
        b = StreamColumnSpec(transit_long_path(), 10, 60.0, 20.0, DIGEST, salt=1)
        ra, rb = simulate_stream_columns([a, b])
        assert all(r.n_slots == 24 for r in ra)
        assert all(r.n_slots == 12 for r in rb)

    def test_lossy_slots_column_matches_results(self):
        # Two slot counts and 168-cell passes (7 and 14 rows): rows
        # spread over many matrices.
        specs = [
            StreamColumnSpec(degraded_transit_path(), 20, 120.0, 20.0, DIGEST),
            StreamColumnSpec(transit_long_path(), 20, 60.0, 20.0, OTHER_DIGEST),
        ]
        columns = simulate_columns(specs, max_cells_per_pass=168)
        lossy = columns.lossy_slots()
        assert lossy.tolist() == [r.lossy_slots for r in columns.results()]
        assert lossy.any()


class TestDistributionIdentity:
    """Columnar streams vs the scalar oracle, per segment kind."""

    N = 400

    @pytest.mark.parametrize(
        "make_path",
        [
            access_only_path,
            transit_long_path,
            transit_short_path,
            vns_path,
            mixed_path,
        ],
        ids=["access", "transit-long", "transit-short", "vns-l2", "mixed"],
    )
    def test_loss_and_jitter_match_oracle(self, make_path):
        path = make_path()
        col = columnar_batch(path, self.N)
        ref = scalar_batch(path, self.N)
        assert_same_mean(
            [r.loss_percent for r in col], [r.loss_percent for r in ref]
        )
        assert_same_mean(
            [r.jitter_p95_ms for r in col], [r.jitter_p95_ms for r in ref]
        )
        assert_same_mean([r.lossy_slots for r in col], [r.lossy_slots for r in ref])

    def test_degraded_segment_matches_oracle(self):
        path = degraded_transit_path(extra_loss=0.04)
        col = columnar_batch(path, self.N)
        ref = scalar_batch(path, self.N)
        assert_same_mean(
            [r.loss_percent for r in col], [r.loss_percent for r in ref]
        )
        # The injected impairment dominates: every stream loses packets.
        assert all(r.packets_lost > 0 for r in col)

    def test_diurnal_parameters_respected(self):
        # The hour keys the per-segment parameter resolution in both
        # kernels: identity must hold at peak and off-peak alike, and
        # changing the hour must actually change the columnar draws'
        # input rates (same counter keys, different parameters).
        path = transit_long_path()
        peak_c = columnar_batch(path, self.N, hour_cet=20.5)
        off_c = columnar_batch(path, self.N, hour_cet=4.5)
        assert [r.jitter_p95_ms for r in peak_c] != [r.jitter_p95_ms for r in off_c]
        assert_same_mean(
            [r.loss_percent for r in peak_c],
            [r.loss_percent for r in scalar_batch(path, self.N, hour_cet=20.5)],
        )
        assert_same_mean(
            [r.loss_percent for r in off_c],
            [r.loss_percent for r in scalar_batch(path, self.N, hour_cet=4.5)],
        )


class TestGuards:
    def test_empty_specs(self):
        assert simulate_stream_columns([]) == []

    def test_non_positive_streams(self):
        spec = StreamColumnSpec(transit_long_path(), 0, 120.0, 20.0, DIGEST)
        with pytest.raises(ValueError, match="n_streams"):
            simulate_stream_columns([spec])

    def test_non_positive_duration(self):
        spec = StreamColumnSpec(transit_long_path(), 4, 0.0, 20.0, DIGEST)
        with pytest.raises(ValueError, match="duration_s"):
            simulate_stream_columns([spec])

    def test_non_positive_rate_or_slot(self):
        spec = StreamColumnSpec(transit_long_path(), 4, 120.0, 20.0, DIGEST)
        with pytest.raises(ValueError):
            simulate_stream_columns([spec], packets_per_second=0.0)
        with pytest.raises(ValueError):
            simulate_stream_columns([spec], slot_s=0.0)

    def test_sub_packet_rate_rejected(self):
        spec = StreamColumnSpec(transit_long_path(), 4, 120.0, 20.0, DIGEST)
        with pytest.raises(ValueError, match="sub-packet-rate"):
            simulate_stream_columns([spec], packets_per_second=0.05)

    def test_bad_chunk_size(self):
        spec = StreamColumnSpec(transit_long_path(), 4, 120.0, 20.0, DIGEST)
        with pytest.raises(ValueError, match="max_cells_per_pass"):
            simulate_stream_columns([spec], max_cells_per_pass=0)


class TestCellBudget:
    """Passes hold at most ``max_cells_per_pass`` cells, and no result moves."""

    def test_passes_hold_the_budget(self):
        # 60 s streams are 12 slots: 100 cells are passes of 8 rows.
        specs = [
            StreamColumnSpec(transit_long_path(), 20, 60.0, 20.0, DIGEST),
            StreamColumnSpec(mixed_path(), 30, 60.0, 20.0, OTHER_DIGEST),
        ]
        columns = simulate_columns(specs, max_cells_per_pass=100)
        assert [m.shape for m in columns.losses] == [(8, 12)] * 6 + [(2, 12)]
        assert_identical(columns.results(), simulate_columns(specs).results())

    def test_stream_longer_than_budget_gets_a_pass_of_its_own(self):
        path = transit_long_path()
        columns = simulate_columns(
            [StreamColumnSpec(path, 3, 120.0, 20.0, DIGEST)], max_cells_per_pass=10
        )
        assert [m.shape for m in columns.losses] == [(1, 24)] * 3
        assert_identical(columns.results(), columnar_batch(path, 3))


@pytest.fixture(scope="module")
def day_of_calls():
    """The SMALL seed-7 day: 1,200 users at 9 calls a day on the seed-7 world."""
    from repro.experiments.common import build_world
    from repro.workload import CallArrivalProcess, UserPopulation

    service = build_world("small", seed=7).service
    population = UserPopulation.sample(service.topology, 1200, seed=7)
    calls = CallArrivalProcess(population, calls_per_user_day=9.0, seed=7).generate(days=1)
    return service, calls


class TestCampaignPassLayout:
    """The engine passes no budget; the kernel's default decides the passes."""

    @staticmethod
    def run_day(service, calls, monkeypatch, budget=None):
        """The campaign's report JSON and kernel counts at ``budget`` cells."""
        from repro import perf
        from repro.dataplane import columnar
        from repro.workload import CampaignConfig, CampaignEngine

        # pass_cells_max is a running maximum, so count from a reset.
        perf.reset()
        perf.enable()
        try:
            with monkeypatch.context() as patch:
                if budget is not None:
                    patch.setitem(
                        columnar.simulate_table.__kwdefaults__, "max_cells_per_pass", budget
                    )
                report = CampaignEngine(service, CampaignConfig(seed=7)).run(calls).report
            counted = perf.snapshot().counters
        finally:
            perf.disable()
            perf.reset()
        count = {
            name: counted.get(f"dataplane.kernel.{name}", 0)
            for name in ("cells", "passes", "pass_cells_max")
        }
        return report.to_json(), count

    def test_day_report_is_independent_of_the_budget(self, day_of_calls, monkeypatch):
        service, calls = day_of_calls
        default, count = self.run_day(service, calls, monkeypatch)
        # 785,088 cells over four slot counts: 13 passes of <= 65,536.
        assert count == {"cells": 785_088, "passes": 13, "pass_cells_max": 65_532}
        small, count = self.run_day(service, calls, monkeypatch, budget=4096)
        assert count == {"cells": 785_088, "passes": 195, "pass_cells_max": 4092}
        assert small == default

    def test_budget_below_one_stream(self, day_of_calls, monkeypatch):
        # 100 cells is below a 300 s or 600 s stream's 60 or 120 slots, so
        # each of those streams is a pass of its own.  The day's first
        # tenth keeps that to 936 passes (the whole day is 9,256, ~10 s).
        service, calls = day_of_calls
        calls = calls[: len(calls) // 10]
        default, _ = self.run_day(service, calls, monkeypatch)
        below, count = self.run_day(service, calls, monkeypatch, budget=100)
        assert count["passes"] == 936 and count["pass_cells_max"] == 120
        assert below == default


class TestInternals:
    def test_group_rows_matches_concatenated_aranges(self):
        starts = np.array([0, 5, 5, 100], dtype=np.int64)
        lens = np.array([3, 1, 4, 2], dtype=np.int64)
        expected = np.concatenate([np.arange(s, s + n) for s, n in zip(starts, lens)])
        assert np.array_equal(_group_rows(starts, lens), expected)

    def test_binom_quantile_matches_scipy(self):
        from scipy.stats import binom

        rng = np.random.default_rng(5)
        u = rng.random(4000)
        # Spans the zero fast path and searched cells of every mean.
        n = rng.integers(1, 6000, size=4000)
        p = rng.uniform(0.0, 0.2, size=4000)
        expected = binom.ppf(u, n, p).astype(np.int64)
        assert np.array_equal(_binom_quantile(u, n, p), expected)

    def test_binom_quantile_zero_loss_fast_path(self):
        u = np.array([1e-12, 0.5])
        n = np.array([2100, 2100])
        p = np.array([0.0, 0.0])
        assert np.array_equal(_binom_quantile(u, n, p), [0, 0])


class TestBinomQuantile:
    """``_binom_quantile`` is ``min {k : P(X <= k) >= u}`` — searched, not
    approximated: equal to ``scipy.stats.binom.ppf`` (imported here only)
    and, independently, to the definition evaluated with ``bdtr``."""

    N = (1, 840, 2100, 6000)

    @staticmethod
    def grid(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every n x p x u: p from 1e-12 to 0.95, u into both 1e-12 tails."""
        rng = np.random.default_rng(seed)
        p = np.concatenate(
            [10.0 ** np.arange(-12, 0), [0.2, 0.5, 0.8, 0.95], rng.uniform(0.0, 0.95, 8)]
        )
        tails = 10.0 ** np.arange(-12.0, -1.0)
        u = np.concatenate([tails, 1.0 - tails, rng.random(24)])
        n, p, u = np.meshgrid(np.array(TestBinomQuantile.N), p, u, indexing="ij")
        return u.ravel(), n.ravel(), p.ravel()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_scipy_ppf_on_a_seeded_grid(self, seed):
        from scipy.stats import binom

        u, n, p = self.grid(seed)
        assert np.array_equal(_binom_quantile(u, n, p), binom.ppf(u, n, p).astype(np.int64))

    def test_is_the_quantile_by_definition(self):
        from hypothesis import example, given, settings
        from hypothesis import strategies as st
        from scipy.special import bdtr

        @settings(max_examples=300, deadline=None)
        # Exact ties: cdf(k - 1) sits ~1e-12 above u, inside the walk's error.
        @example(u=0.5, n=1487, p=0.5)
        @example(u=0.5, n=5999, p=0.5)
        @given(
            u=st.floats(min_value=1e-12, max_value=1.0 - 1e-12),
            n=st.sampled_from(self.N) | st.integers(min_value=1, max_value=6000),
            p=st.floats(min_value=0.0, max_value=0.95),
        )
        def check(u, n, p):
            k = int(_binom_quantile(np.array([u]), np.array([n]), np.array([p]))[0])
            assert 0 <= k <= n
            assert bdtr(float(k), n, p) >= u
            assert k == 0 or bdtr(float(k - 1), n, p) < u

        check()

    def test_walk_cap_falls_back_to_bisection(self, monkeypatch):
        from scipy.stats import binom

        from repro.dataplane import columnar

        u, n, p = self.grid(2)
        expected = binom.ppf(u, n, p).astype(np.int64)
        # No walking allowed: every searched cell is bisected on the CDF.
        monkeypatch.setattr(columnar, "_BINOM_WALK_MAX_STEPS", 0)
        assert np.array_equal(_binom_quantile(u, n, p), expected)

    def test_underflowed_anchor_pmf_is_bisected(self, monkeypatch):
        from scipy.special import bdtr

        from repro.dataplane import columnar

        # A denormal u: the anchor sits ~38 sd below the mean, where the
        # pmf is below the smallest normal double and cannot seed a walk.
        u, n, p = np.array([1e-320]), np.array([200_000]), np.array([0.5])
        bisected = []
        bisect = columnar._binom_bisect

        def spy(*cells):
            bisected.append(cells[0].size)
            return bisect(*cells)

        monkeypatch.setattr(columnar, "_binom_bisect", spy)
        k = int(_binom_quantile(u, n, p)[0])
        assert bisected == [1]
        assert bdtr(float(k), 200_000, 0.5) >= u[0] > bdtr(float(k - 1), 200_000, 0.5)


# --------------------------------------------------------------------- #
# pinned kernel bits
# --------------------------------------------------------------------- #

LON = city_by_name("London").location

#: sha256 over every stream of :func:`pinned_specs` — recorded on the
#: row-at-a-time spec table this kernel started with; any change to the
#: kernel must reproduce it bit for bit.
PINNED_KERNEL_SHA256 = "3788786c99006202f899b6fc20117b59b1e76f485e0fdd91053d780a80e85d94"


def pinned_paths() -> list[DataPath]:
    """Every layer kind, both hauls, an impairment, and a value-equal twin."""
    paths = [
        access_only_path(),
        transit_long_path(),
        transit_short_path(),
        vns_path(),
        peering_path(),
        mixed_path(),
        degraded_transit_path(extra_loss=0.04),
        # A campaign-shaped path: access, hand-off, short and long transit
        # (one impaired), dedicated L2, destination access.
        DataPath(
            segments=[
                PathSegment(kind=SegmentKind.ACCESS, start=LON, end=LON, as_type=ASType.CAHP),
                PathSegment(kind=SegmentKind.PEERING, start=LON, end=LON),
                PathSegment(kind=SegmentKind.TRANSIT, start=LON, end=AMS, owner_type=ASType.STP),
                degrade_segment(
                    PathSegment(
                        kind=SegmentKind.TRANSIT, start=AMS, end=SIN, owner_type=ASType.LTP
                    ),
                    extra_loss=0.01,
                    extra_delay_ms=5.0,
                ),
                PathSegment(kind=SegmentKind.VNS_L2, start=AMS, end=LON, label="AMS==LON"),
                degrade_segment(
                    PathSegment(kind=SegmentKind.PEERING, start=SIN, end=SIN), extra_loss=0.002
                ),
                PathSegment(kind=SegmentKind.ACCESS, start=SIN, end=SIN, as_type=ASType.EC),
            ],
            description="campaign-shaped",
        ),
    ]
    # Value-equal to paths[5] and paths[1] but distinct objects all the way down.
    paths.append(mixed_path())
    paths.append(transit_long_path())
    return paths


def pinned_specs() -> list[StreamColumnSpec]:
    hours = (4.5, 12.5, 20.5)
    durations = (60.0, 120.0, 300.0, 600.0, 12.0)  # campaign set + a partial final slot
    counts = (1, 5, 50)
    specs = []
    for index, path in enumerate(pinned_paths()):
        for k, duration_s in enumerate(durations):
            specs.append(
                StreamColumnSpec(
                    path=path,
                    n_streams=counts[(index + k) % 3],
                    duration_s=duration_s,
                    hour_cet=hours[(index + 2 * k) % 3],
                    digest=(DIGEST[0] + 977 * index, DIGEST[1] ^ (k << 17)),
                    salt=(index + k) % 3,
                )
            )
    return specs


def kernel_sha256(columns) -> str:
    import hashlib

    digest = hashlib.sha256()
    for column in columns:
        for r in column:
            digest.update(np.ascontiguousarray(r.slot_losses, dtype=np.int64).tobytes())
            digest.update(repr(float(r.jitter_p95_ms)).encode())
            digest.update(repr(float(r.rtt_ms)).encode())
            digest.update(repr(int(r.packets_sent)).encode())
    return digest.hexdigest()


class TestPinnedBits:
    def test_kernel_digest_pinned(self):
        # max_cells_per_pass=420 (7 rows of 60 slots): 50-stream specs
        # straddle many passes and passes mix specs, hours and layer shapes.
        columns = simulate_stream_columns(pinned_specs(), max_cells_per_pass=420)
        assert sum(len(column) for column in columns) == sum(
            spec.n_streams for spec in pinned_specs()
        )
        assert kernel_sha256(columns) == PINNED_KERNEL_SHA256

    def test_pinned_digest_independent_of_pass_size(self):
        assert (
            kernel_sha256(simulate_stream_columns(pinned_specs()))
            == PINNED_KERNEL_SHA256
        )


#: sha256 over every stream of :func:`burst_specs` at a budget of 6,000
#: cells, recorded on the kernel that built every layer as a full
#: ``(rows, slots)`` rate matrix.
BURST_KERNEL_SHA256 = "8bbb6ae531c56535edb8e2b4cdbccc8b30c3c3bf5fcd18c31e6e87f38f6868ec"


def burst_paths() -> list[DataPath]:
    """Two long-haul corridors that burst often, impaired on every kind.

    The first ends in a satellite last mile (an access layer with an
    impairment) and runs an impaired long-haul trunk, an impaired
    dedicated link and an impaired hand-off after a healthy trunk; the
    second is one layer shorter and healthy but for its hand-off, so
    its last layer is padding where the first has an access layer.
    """
    from repro.dataplane.link import satellite_segment

    return [
        DataPath(
            segments=[
                PathSegment(kind=SegmentKind.ACCESS, start=AMS, end=AMS, as_type=ASType.EC),
                PathSegment(kind=SegmentKind.TRANSIT, start=AMS, end=SIN, owner_type=ASType.STP),
                degrade_segment(
                    PathSegment(
                        kind=SegmentKind.TRANSIT, start=SIN, end=AMS, owner_type=ASType.LTP
                    ),
                    extra_loss=0.03,
                ),
                degrade_segment(
                    PathSegment(kind=SegmentKind.VNS_L2, start=AMS, end=SIN), extra_loss=0.01
                ),
                degrade_segment(
                    PathSegment(kind=SegmentKind.PEERING, start=SIN, end=SIN), extra_loss=0.005
                ),
                satellite_segment(
                    PathSegment(
                        kind=SegmentKind.ACCESS, start=SIN, end=SIN, as_type=ASType.CAHP
                    )
                ),
            ],
            description="burst-impaired",
        ),
        DataPath(
            segments=[
                PathSegment(kind=SegmentKind.ACCESS, start=SIN, end=SIN, as_type=ASType.CAHP),
                PathSegment(kind=SegmentKind.VNS_L2, start=SIN, end=AMS),
                PathSegment(kind=SegmentKind.TRANSIT, start=AMS, end=SIN, owner_type=ASType.STP),
                degrade_segment(
                    PathSegment(kind=SegmentKind.PEERING, start=SIN, end=SIN), extra_loss=0.02
                ),
                PathSegment(kind=SegmentKind.TRANSIT, start=SIN, end=SIN, owner_type=ASType.STP),
            ],
            description="burst-healthy",
        ),
    ]


def burst_specs() -> list[StreamColumnSpec]:
    """Specs sized so every case the kernel's layer path special-cases occurs.

    Counted on the full-matrix kernel, over the transit layers (two per
    path, so a stream is counted per trunk; ``short`` is a short burst):
    4,400 1-slot streams, 8,800 trunk draws: 18 short (on 1 slot), 5
    long, none both; 3,000 2-slot streams, 6,000 trunk draws: 22 short,
    9 of them on 2 slots, 7 long; 460 120-slot streams, 920 trunk draws:
    175 short, 87 on 2 slots, 35 long, 6 short and long on one trunk, 65
    short on the impaired trunk.  At 6,000 cells a pass the specs run in 12
    passes: 3 mix the two paths (their last layer covers a subset of the
    rows, padding the rest) and 9 hold one path; in all 12 the first
    layer covers every row.
    """
    first, second = burst_paths()
    specs = []
    for k, (path, n, duration_s, hour) in enumerate(
        [
            (first, 230, 600.0, 12.5),
            (second, 230, 600.0, 20.5),
            (first, 1500, 10.0, 12.5),
            (second, 1500, 10.0, 4.5),
            (first, 2200, 5.0, 12.5),
            (second, 2200, 3.0, 20.5),
        ]
    ):
        specs.append(
            StreamColumnSpec(
                path=path,
                n_streams=n,
                duration_s=duration_s,
                hour_cet=hour,
                digest=(DIGEST[0] ^ (k << 40), DIGEST[1] + 31 * k),
                salt=k % 2,
            )
        )
    return specs


class TestPinnedBursts:
    def test_burst_digest_pinned(self):
        columns = simulate_stream_columns(burst_specs(), max_cells_per_pass=6000)
        assert [len(column) for column in columns] == [s.n_streams for s in burst_specs()]
        assert kernel_sha256(columns) == BURST_KERNEL_SHA256

    def test_burst_digest_independent_of_pass_size(self):
        assert kernel_sha256(simulate_stream_columns(burst_specs())) == BURST_KERNEL_SHA256


class TestWorkCounts:
    def test_kernel_counters(self):
        from repro import perf

        specs = pinned_specs()
        before = perf.snapshot()
        was_enabled = perf.is_enabled()
        perf.enable()
        try:
            simulate_stream_columns(specs, max_cells_per_pass=420)
            counted = perf.snapshot().diff(before).counters
            timed = perf.snapshot().diff(before).timers
        finally:
            if not was_enabled:
                perf.disable()
        count = {
            name.removeprefix("dataplane.kernel."): value
            for name, value in counted.items()
            if name.startswith("dataplane.kernel.")
        }
        rows = sum(spec.n_streams for spec in specs)
        cells = sum(
            spec.n_streams * (3 if spec.duration_s == 12.0 else int(spec.duration_s / 5.0))
            for spec in specs
        )
        assert count["specs"] == len(specs)
        assert count["rows"] == rows
        assert count["cells"] == cells
        assert count["paths_unique"] == len(pinned_paths())
        # Distinct (segment value, hour) pairs: the twins add none.
        distinct = {
            (segment, spec.hour_cet) for spec in specs for segment in spec.path.segments
        }
        assert count["param_rows"] == len(distinct)
        assert count["cells_zero"] + count["cells_inverted"] == cells
        # Per slot-count bucket, passes of max(1, 420 // slots) rows.
        bucket_rows: dict[int, int] = {}
        for spec in specs:
            slots = 3 if spec.duration_s == 12.0 else int(spec.duration_s / 5.0)
            bucket_rows[slots] = bucket_rows.get(slots, 0) + spec.n_streams
        assert count["passes"] == sum(
            -(-n // max(1, 420 // slots)) for slots, n in bucket_rows.items()
        )
        assert count["cells_zero"] > 0 and count["cells_inverted"] > 0
        assert {"dataplane.kernel.prelude", "dataplane.kernel.chunks"} <= set(timed)

    def test_counters_off_by_default(self):
        from repro import perf

        assert not perf.is_enabled()
        before = perf.snapshot()
        columnar_batch(transit_long_path(), 4)
        assert perf.snapshot().diff(before).counters == {}


class TestPathView:
    def test_view_is_built_once_and_not_pickled(self):
        import pickle

        path = mixed_path()
        columnar_batch(path, 2)
        view = path._kernel_view
        assert view is not None
        sids, rtt_ms, _ = view
        assert len(sids) == len(path.segments)
        assert rtt_ms == path.rtt_ms()
        columnar_batch(path, 2, hour_cet=3.5)
        assert path._kernel_view is view
        clone = pickle.loads(pickle.dumps(path))
        assert clone == path and clone._kernel_view is None
        assert_identical(columnar_batch(clone, 3), columnar_batch(path, 3))

    def test_view_is_the_path_scalars_bit_for_bit(self):
        from repro.dataplane import calibration as cal
        from repro.dataplane.link import LOSS_TABLE, satellite_segment

        healthy = mixed_path().segments
        segments = [
            satellite_segment(healthy[0]),
            healthy[1],
            degrade_segment(healthy[2], extra_loss=0.02, extra_delay_ms=7.5),
            healthy[2],
            PathSegment(kind=SegmentKind.VNS_L2, start=SIN, end=AMS),
            PathSegment(kind=SegmentKind.VNS_L2, start=AMS, end=AMS),
            healthy[3],
        ]
        path = DataPath(segments=segments, description="mixed-impaired")
        view = path_view(path)
        assert view[:2] == (
            tuple(LOSS_TABLE.segment_id(s) for s in segments),
            2.0 * sum(s.delay_ms() for s in segments),
        )
        _, rtt_ms, jitter_base_ms = view
        assert rtt_ms == path.rtt_ms()
        # The per-segment term, derived here from kinds and distances.
        terms = 0.0
        for s in segments:
            if s.kind is SegmentKind.ACCESS:
                terms += 0.3
            elif s.kind is SegmentKind.TRANSIT and s.is_long_haul:
                terms += 0.5
            elif s.kind is SegmentKind.VNS_L2 and s.is_long_haul:
                terms += 0.1
        assert jitter_base_ms == cal.JITTER_BASE_SCALE_MS * (1.0 + terms)
        # An impairment's extra delay is in its segment's delay.
        assert segments[0].delay_ms() == healthy[0].delay_ms() + segments[0].extra_delay_ms
