"""Campaign-level columnar stream simulation (struct-of-arrays kernel).

A realistic campaign has ~1 call per path signature (``largest_batch:
3`` in the recorded ``workload`` bench row), so batching streams one
signature at a time leaves one Python round-trip per group.  This
module simulates **every stream of every group in one shot**: calls are
gathered into per-``n_slots`` buckets and pushed through a handful of
wide numpy passes over ``(streams, slots)`` arrays — per-segment-kind
rate sampling, survival-product combination, binomial slot losses, and
gamma jitter with its p95 reduction.  It is the campaign engine's only
simulation kernel.

Two properties make this safe to drop into the campaign engine:

**Determinism is counter-based, not sequential.**  The scalar oracle
draws from a stateful generator, so its results depend on draw *order*.
Here every uniform is a pure function of
``(group digest, transport salt, stream index, purpose, slot)``, hashed
through a splitmix64-style finalizer.  Results are therefore bit-identical
no matter how specs are ordered, how rows are chunked across passes, or
which other groups share a pass — which is exactly what the
sequential-vs-sharded byte-identity contract needs (sharding never
splits a group, so every process sees the same per-stream keys).

**Distributions are inverted, not approximated.**  Each uniform is
mapped through the exact inverse CDF of the distribution the scalar
oracle draws from — lognormals via ``exp(mu + sigma * ndtri(u))``, gamma
jitter via ``gammaincinv``, slot losses via binomial quantile inversion
— so every stream is distributed exactly as one
:func:`~repro.dataplane.transmit.simulate_stream` call over the same
path.  ``simulate_stream`` stays the distribution-identity oracle (the
``assign_geo_preference_reference`` pattern); the identity tests live in
``tests/dataplane/test_columnar.py``.  The hot quantile functions run
through dense interpolation tables over the body of the distribution
(exact scipy evaluations for the outer 1/256 tails), with grid error
orders of magnitude below what any campaign statistic can resolve.

Requires scipy (a declared dependency): the import below fails loudly
when it is missing — a campaign never runs on a substitute kernel.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from scipy import special as _special
from scipy import stats as _scipy_stats

from repro.dataplane import calibration as cal
from repro.dataplane.link import SegmentKind, SegmentLossParams
from repro.dataplane.path import DataPath
from repro.dataplane.transmit import (
    StreamResult,
    _jitter_scale_from_traits,
    _stream_shape,
)

__all__ = ["StreamColumnSpec", "simulate_stream_columns"]


# --------------------------------------------------------------------- #
# counter-based uniforms
# --------------------------------------------------------------------- #
#
# splitmix64: walk a weyl sequence from a key, avalanche with the
# standard finalizer.  Every draw site below owns a distinct ``purpose``
# tag (and, for per-cell draws, the slot index), so no two logical draws
# ever share a counter.

_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)

#: purpose tags — one per logical draw site of the loss/jitter model.
_P_ACCESS_EPISODE = 1
_P_ACCESS_RATE = 2
_P_SPREAD_OCC = 3
_P_SPREAD_RATE = 4
_P_SHORT_OCC = 5
_P_SHORT_RATE = 6
_P_SHORT_COUNT = 7
_P_SHORT_SLOT_A = 8
_P_SHORT_SLOT_B = 9
_P_LONG_OCC = 10
_P_LONG_RATE = 11
_P_VNS_OCC = 12
_P_VNS_RATE = 13
#: stream-level draws (no segment layer): keep purposes disjoint anyway.
_P_BINOMIAL = 14
_P_JITTER = 15
_PURPOSE_SPAN = 32  # > max purpose tag; layer j owns [j*32, (j+1)*32)


def _mix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * _MIX_A
        x = (x ^ (x >> np.uint64(27))) * _MIX_B
        return x ^ (x >> np.uint64(31))


def _to_unit(z: np.ndarray) -> np.ndarray:
    """uint64 -> float64 uniform on the *open* interval (0, 1)."""
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0**-53)


def _stream_keys(digest: tuple[int, int], salt: int, start: int, stop: int) -> np.ndarray:
    """One pseudo-random 64-bit key per stream of a spec slice.

    ``digest`` is the group's blake2b-128 split into two words
    (:func:`repro.workload.engine.group_digest`), so the keyspace
    inherits the campaign's ``(seed, group signature)`` keying.
    ``salt`` separates transports sharing a group (vns / internet /
    detour): the baseline transports' draws are independent of whether a
    detour batch exists at all.
    """
    d0, d1 = digest
    with np.errstate(over="ignore"):
        base = _mix64(
            np.uint64(d0 & 0xFFFFFFFFFFFFFFFF)
            + np.uint64(salt & 0xFFFFFFFF) * _GOLDEN
        )
        idx = np.arange(start, stop, dtype=np.uint64)
        return _mix64(idx * _GOLDEN + np.uint64(d1 & 0xFFFFFFFFFFFFFFFF)) ^ base


def _draw(keys: np.ndarray, layer: int, purpose: int) -> np.ndarray:
    """One per-stream uniform: shape ``(len(keys),)``."""
    counter = np.uint64((layer * _PURPOSE_SPAN + purpose) << 32)
    with np.errstate(over="ignore"):
        return _to_unit(_mix64(keys + counter * _GOLDEN))


def _draw_slots(keys: np.ndarray, layer: int, purpose: int, n_slots: int) -> np.ndarray:
    """Per-cell uniforms: shape ``(len(keys), n_slots)``."""
    base = (layer * _PURPOSE_SPAN + purpose) << 32
    counters = np.uint64(base) + np.arange(n_slots, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _to_unit(_mix64(keys[:, None] + counters[None, :] * _GOLDEN))


# --------------------------------------------------------------------- #
# inverse-CDF samplers
# --------------------------------------------------------------------- #

_TAIL_P = 1.0 / 256.0
_TABLE_N = 16384


class _QuantileTable:
    """Dense linear-interpolation table for a quantile function's body.

    Exact evaluations outside ``[lo, hi]`` (the distribution tails, where
    quantiles curve fastest and samples are rarest).  With 16384 grid
    cells over the central 99.2% the interpolation error is ~1e-5 in
    quantile units — invisible to any moment or KS statistic at campaign
    sample sizes, while cutting the scipy special-function cost by ~100×.
    """

    __slots__ = ("lo", "hi", "inv_h", "values", "exact")

    def __init__(self, exact, lo: float = _TAIL_P, hi: float = 1.0 - _TAIL_P) -> None:
        self.lo = lo
        self.hi = hi
        self.inv_h = _TABLE_N / (hi - lo)
        self.values = np.asarray(exact(np.linspace(lo, hi, _TABLE_N + 1)))
        self.exact = exact

    def __call__(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        out = np.empty(u.shape)
        body = (u >= self.lo) & (u <= self.hi)
        ub = u[body]
        t = (ub - self.lo) * self.inv_h
        i = t.astype(np.int64)
        np.minimum(i, _TABLE_N - 1, out=i)
        f = t - i
        v = self.values
        out[body] = v[i] * (1.0 - f) + v[i + 1] * f
        tail = ~body
        if tail.any():
            out[tail] = self.exact(u[tail])
        return out


_tables: dict[object, _QuantileTable] = {}


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Standard-normal quantile (body via table, tails exact)."""
    table = _tables.get("ndtri")
    if table is None:
        table = _tables["ndtri"] = _QuantileTable(_special.ndtri)
    return table(u)


def _gamma_quantile(u: np.ndarray, shape: float) -> np.ndarray:
    """Unit-scale gamma quantile for a fixed shape."""
    key = ("gamma", shape)
    table = _tables.get(key)
    if table is None:
        table = _tables[key] = _QuantileTable(
            lambda grid: _special.gammaincinv(shape, grid)
        )
    return table(u)


#: mean n*p above which stepwise binomial-quantile recursion loses to
#: scipy's ``binom.ppf`` (iterations grow with the mean).
_BINOM_STEPWISE_MAX_MEAN = 64.0
_BINOM_STEPWISE_MAX_ITERS = 512


def _binom_quantile(u: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Vectorised binomial quantile: ``min {k : P(X <= k) >= u}``.

    Three regimes, exact in distribution in all of them:

    * ``u <= (1-p)^n`` — the overwhelmingly common no-loss cell — answers
      0 straight from one ``exp``/``log1p`` pass;
    * small mean: walk the pmf recursion
      ``pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/(1-p)`` over the shrinking
      set of unresolved cells (a dozen tiny vector iterations);
    * large mean (rare burst cells): ``scipy.stats.binom.ppf``.
    """
    u = np.asarray(u, dtype=np.float64)
    n = np.asarray(n, dtype=np.int64)
    p = np.asarray(p, dtype=np.float64)
    k_out = np.zeros(u.shape, dtype=np.int64)
    with np.errstate(divide="ignore"):
        log_q = np.log1p(-p)
    p_zero = np.exp(n * log_q)
    need = np.nonzero(u > p_zero)[0]
    if need.size == 0:
        return k_out
    ui, ni, pi = u[need], n[need], p[need]
    mean = ni * pi
    small = mean <= _BINOM_STEPWISE_MAX_MEAN
    if small.any():
        idx = need[small]
        k_out[idx] = _binom_stepwise(u[idx], n[idx], p[idx])
    large = ~small
    if large.any():
        idx = need[large]
        k_out[idx] = _scipy_stats.binom.ppf(ui[large], ni[large], pi[large]).astype(
            np.int64
        )
    return k_out


def _binom_stepwise(u: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """pmf-recursion quantile walk; all inputs already have ``u > (1-p)^n``."""
    q = 1.0 - p
    pmf = np.exp(n * np.log1p(-p))
    cdf = pmf.copy()
    ratio = p / q
    k = np.zeros(u.shape, dtype=np.int64)
    active = np.arange(u.size)
    step = 0
    while active.size and step < _BINOM_STEPWISE_MAX_ITERS:
        pmf_a = pmf[active] * ((n[active] - step) / (step + 1.0)) * ratio[active]
        cdf_a = cdf[active] + pmf_a
        pmf[active] = pmf_a
        cdf[active] = cdf_a
        step += 1
        k[active] = step
        active = active[u[active] > cdf_a]
    if active.size:  # pragma: no cover - numerically unreachable backstop
        k[active] = _scipy_stats.binom.ppf(u[active], n[active], p[active]).astype(
            np.int64
        )
    return k


# --------------------------------------------------------------------- #
# the kernel
# --------------------------------------------------------------------- #


class StreamColumnSpec(NamedTuple):
    """One homogeneous column of streams: a (group, transport) batch.

    ``digest`` is the group's 128-bit signature split into two 64-bit
    words (:func:`repro.workload.engine.group_digest`); ``salt`` tags the
    transport within the group.  Together with a stream's index they key
    every random draw — see the module docstring.
    """

    path: DataPath
    n_streams: int
    duration_s: float
    hour_cet: float
    digest: tuple[int, int]
    salt: int = 0


class _SpecState(NamedTuple):
    """Per-spec precomputation shared by every chunk the spec lands in."""

    params: list[SegmentLossParams]
    n_slots: int
    packets_per_slot: int
    final_packets: int
    packets_sent: int
    rtt_ms: float
    jitter_scale: float
    digest: tuple[int, int]
    salt: int


def simulate_stream_columns(
    specs: list[StreamColumnSpec],
    *,
    packets_per_second: float = 420.0,
    slot_s: float = 5.0,
    max_rows_per_pass: int = 65536,
) -> list[list[StreamResult]]:
    """Simulate every stream of every spec; one result list per spec.

    Specs are bucketed by slot count (the campaign's quantized durations
    make these buckets huge) and processed in row chunks of at most
    ``max_rows_per_pass`` streams; neither the bucketing nor the chunk
    boundary affects any result (counter-based draws).

    Raises
    ------
    ValueError
        For non-positive stream counts, durations, packet rates or slot
        lengths, and for sub-packet-rate streams.
    """
    if packets_per_second <= 0 or slot_s <= 0:
        raise ValueError("packet rate and slot length must be positive")
    if max_rows_per_pass < 1:
        raise ValueError(f"max_rows_per_pass must be >= 1, got {max_rows_per_pass!r}")
    out: list[list[StreamResult]] = [[] for _ in specs]
    if not specs:
        return out

    # Per-invocation caches, keyed by path identity — ``specs`` keeps
    # every path alive for the whole invocation, so ids are stable, and
    # identity lookups skip deep dataclass hashing.  Per-segment
    # parameter resolution is memoised by value inside
    # :meth:`PathSegment.loss_params` (paths do not share segment
    # objects, but thousands of paths cross value-equal segments).
    path_cache: dict[tuple[int, float], list[SegmentLossParams]] = {}
    # Jitter traits (kind, long-haul) are hour-independent: key by path.
    scale_cache: dict[int, float] = {}
    states: list[_SpecState] = []
    buckets: dict[int, list[int]] = {}
    for index, spec in enumerate(specs):
        if spec.n_streams <= 0:
            raise ValueError(f"n_streams must be positive, got {spec.n_streams!r}")
        if spec.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {spec.duration_s!r}")
        n_slots, packets_per_slot, final_packets = _stream_shape(
            spec.duration_s, packets_per_second, slot_s
        )
        path_id = id(spec.path)
        path_key = (path_id, spec.hour_cet)
        params = path_cache.get(path_key)
        if params is None:
            params = [
                segment.loss_params(spec.hour_cet) for segment in spec.path.segments
            ]
            path_cache[path_key] = params
        scale = scale_cache.get(path_id)
        if scale is None:
            scale = _jitter_scale_from_traits(
                ((p.kind, p.long_haul) for p in params), packets_per_second
            )
            scale_cache[path_id] = scale
        states.append(
            _SpecState(
                params=params,
                n_slots=n_slots,
                packets_per_slot=packets_per_slot,
                final_packets=final_packets,
                packets_sent=packets_per_slot * (n_slots - 1) + final_packets,
                rtt_ms=spec.path.rtt_ms(),
                jitter_scale=scale,
                digest=spec.digest,
                salt=spec.salt,
            )
        )
        out[index] = [None] * spec.n_streams  # type: ignore[list-item]
        buckets.setdefault(n_slots, []).append(index)

    for n_slots in sorted(buckets):
        # Split the bucket into row runs of at most max_rows_per_pass
        # streams; a spec larger than the cap spans several chunks.
        chunk: list[tuple[int, int, int]] = []  # (spec index, start, stop)
        rows = 0
        for index in buckets[n_slots]:
            start = 0
            remaining = specs[index].n_streams
            while remaining:
                take = min(remaining, max_rows_per_pass - rows)
                chunk.append((index, start, start + take))
                start += take
                remaining -= take
                rows += take
                if rows == max_rows_per_pass:
                    _simulate_chunk(chunk, n_slots, states, out)
                    chunk, rows = [], 0
        if chunk:
            _simulate_chunk(chunk, n_slots, states, out)
    return out


def _repeat(values: list[float], lens: np.ndarray) -> np.ndarray:
    """Broadcast one per-run value across that run's rows."""
    return np.repeat(np.asarray(values, dtype=np.float64), lens)


def _group_rows(run_starts: np.ndarray, run_lens: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + len)`` per run, vectorised.

    Equivalent to ``np.concatenate([np.arange(s, s + l) ...])`` without
    materialising thousands of tiny arrays (campaign runs average ~1 row).
    """
    total = int(run_lens.sum())
    shift = run_starts - (np.cumsum(run_lens) - run_lens)
    return np.repeat(shift, run_lens) + np.arange(total, dtype=np.int64)


def _apply_extra(rates: np.ndarray, extras: np.ndarray) -> np.ndarray:
    """Degraded-segment impairment: add after the stochastic draw, clip."""
    if not np.any(extras > 0.0):
        return rates
    e = extras[:, None]
    return np.where(e > 0.0, np.clip(rates + e, 0.0, 0.95), rates)


def _simulate_chunk(
    chunk: list[tuple[int, int, int]],
    n_slots: int,
    states: list[_SpecState],
    out: list[list[StreamResult]],
) -> None:
    """Simulate one ``(rows, n_slots)`` pass and scatter the results."""
    lens = np.array([stop - start for _, start, stop in chunk], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lens)))
    m = int(offsets[-1])
    # Per-stream keys, vectorised across runs — bit-identical to calling
    # _stream_keys(digest, salt, start, stop) per run and concatenating.
    mask64 = 0xFFFFFFFFFFFFFFFF
    d0s = np.array([states[i].digest[0] & mask64 for i, _, _ in chunk], dtype=np.uint64)
    d1s = np.array([states[i].digest[1] & mask64 for i, _, _ in chunk], dtype=np.uint64)
    salts = np.array([states[i].salt & 0xFFFFFFFF for i, _, _ in chunk], dtype=np.uint64)
    starts = np.array([start for _, start, _ in chunk], dtype=np.int64)
    with np.errstate(over="ignore"):
        base = _mix64(d0s + salts * _GOLDEN)
        idx = _group_rows(starts, lens).astype(np.uint64)
        keys = _mix64(idx * _GOLDEN + np.repeat(d1s, lens)) ^ np.repeat(base, lens)
    survival = np.ones((m, n_slots))
    run_starts = offsets[:-1]
    max_layers = max(len(states[index].params) for index, _, _ in chunk)
    for layer in range(max_layers):
        by_kind: dict[SegmentKind, list[int]] = {}
        for run, (index, _, _) in enumerate(chunk):
            params = states[index].params
            if layer < len(params):
                by_kind.setdefault(params[layer].kind, []).append(run)
        for kind, runs in by_kind.items():
            if kind is SegmentKind.PEERING and all(
                states[chunk[run][0]].params[layer].extra_loss == 0.0 for run in runs
            ):
                continue  # loss-free hand-off: survival unchanged
            run_lens = lens[runs]
            rows = _group_rows(run_starts[runs], run_lens)
            run_params = [states[chunk[run][0]].params[layer] for run in runs]
            sub_keys = keys[rows]
            if kind is SegmentKind.ACCESS:
                rates = _access_rates(sub_keys, layer, n_slots, run_params, run_lens)
            elif kind is SegmentKind.TRANSIT:
                rates = _transit_rates(sub_keys, layer, n_slots, run_params, run_lens)
            elif kind is SegmentKind.VNS_L2:
                rates = _vns_rates(sub_keys, layer, n_slots, run_params, run_lens)
            else:
                rates = np.zeros((rows.size, n_slots))
            rates = _apply_extra(rates, _repeat([p.extra_loss for p in run_params], run_lens))
            survival[rows] *= 1.0 - rates
    rates = 1.0 - survival

    packets = np.full(
        (m, n_slots),
        states[chunk[0][0]].packets_per_slot,
        dtype=np.int64,
    )
    packets[:, -1] = np.repeat(
        [states[index].final_packets for index, _, _ in chunk], lens
    )
    u_binom = _draw_slots(keys, 0, _P_BINOMIAL, n_slots)
    losses = _binom_quantile(u_binom.ravel(), packets.ravel(), rates.ravel()).reshape(
        m, n_slots
    )

    u_jitter = _draw_slots(keys, 0, _P_JITTER, n_slots)
    scale = _repeat([states[index].jitter_scale for index, _, _ in chunk], lens)
    jitter = _gamma_quantile(u_jitter, cal.JITTER_GAMMA_SHAPE) * scale[:, None]
    jitter *= 1.0 + 40.0 * rates
    jitter_p95 = np.percentile(jitter, 95, axis=1)

    row = 0
    for index, start, stop in chunk:
        state = states[index]
        results = out[index]
        for stream in range(start, stop):
            results[stream] = StreamResult(
                packets_sent=state.packets_sent,
                slot_losses=losses[row],
                jitter_p95_ms=float(jitter_p95[row]),
                rtt_ms=state.rtt_ms,
            )
            row += 1


# --------------------------------------------------------------------- #
# per-kind rate columns (each mirrors one PathSegment sampler exactly)
# --------------------------------------------------------------------- #


def _access_rates(
    keys: np.ndarray,
    layer: int,
    n_slots: int,
    run_params: list[SegmentLossParams],
    run_lens: np.ndarray,
) -> np.ndarray:
    """Episodic access loss — mirrors ``link._access_rates``."""
    occurrence = _repeat([p.occurrence for p in run_params], run_lens)[:, None]
    mean_rate = _repeat([p.mean_rate for p in run_params], run_lens)[:, None]
    episodes = _draw_slots(keys, layer, _P_ACCESS_EPISODE, n_slots) < occurrence
    rates = np.zeros(episodes.shape)
    if episodes.any():
        sigma = cal.ACCESS_EPISODE_SIGMA
        u = _draw_slots(keys, layer, _P_ACCESS_RATE, n_slots)[episodes]
        draws = np.exp(-0.5 * sigma * sigma + sigma * _ndtri(u))
        rates[episodes] = np.clip(
            np.broadcast_to(mean_rate, episodes.shape)[episodes] * draws, 0.0, 0.5
        )
    return rates


def _transit_rates(
    keys: np.ndarray,
    layer: int,
    n_slots: int,
    run_params: list[SegmentLossParams],
    run_lens: np.ndarray,
) -> np.ndarray:
    """Floor + spread + bursts — mirrors ``link._transit_rates``.

    Burst exposure matches the scalar default observation window of
    ``5.0 * n_slots`` seconds (the samplers' calibration window, not the
    call's wall-clock duration).
    """
    rates = np.full((keys.size, n_slots), cal.TRANSIT_FLOOR_RATE)
    long_haul = np.repeat([p.long_haul for p in run_params], run_lens)
    if long_haul.any():
        lh_rows = np.nonzero(long_haul)[0]
        spread_prob = _repeat([p.spread_prob for p in run_params], run_lens)[lh_rows]
        occ = _draw(keys[lh_rows], layer, _P_SPREAD_OCC) < spread_prob
        if occ.any():
            hit = lh_rows[occ]
            mult = _repeat([p.rate_mult for p in run_params], run_lens)[hit]
            u = _draw(keys[hit], layer, _P_SPREAD_RATE)
            draws = np.exp(
                cal.TRANSIT_SPREAD_LOG_MEAN + cal.TRANSIT_SPREAD_LOG_SIGMA * _ndtri(u)
            )
            rates[hit] += np.minimum(draws * mult, 0.05)[:, None]
    exposure = (5.0 * n_slots) / 120.0
    burst_scale = _repeat([p.burst_scale_120s for p in run_params], run_lens) * exposure

    short = (
        _draw(keys, layer, _P_SHORT_OCC) < cal.TRANSIT_SHORT_BURST_PROB * burst_scale
    )
    if short.any():
        rows = np.nonzero(short)[0]
        lo, hi = cal.TRANSIT_SHORT_BURST_RATE
        burst_rate = lo + (hi - lo) * _draw(keys[rows], layer, _P_SHORT_RATE)
        # rng.integers(1, 3) slots, placed without replacement: the second
        # slot is uniform over the n_slots - 1 others (shift past the first).
        n_burst = 1 + (2.0 * _draw(keys[rows], layer, _P_SHORT_COUNT)).astype(np.int64)
        first = (n_slots * _draw(keys[rows], layer, _P_SHORT_SLOT_A)).astype(np.int64)
        np.minimum(first, n_slots - 1, out=first)
        rates[rows, first] += burst_rate
        if n_slots >= 2:
            two = n_burst >= 2
            if two.any():
                rows2 = rows[two]
                second = (
                    (n_slots - 1) * _draw(keys[rows2], layer, _P_SHORT_SLOT_B)
                ).astype(np.int64)
                np.minimum(second, n_slots - 2, out=second)
                second += second >= first[two]
                rates[rows2, second] += burst_rate[two]

    long = _draw(keys, layer, _P_LONG_OCC) < cal.TRANSIT_LONG_BURST_PROB * burst_scale
    if long.any():
        rows = np.nonzero(long)[0]
        lo, hi = cal.TRANSIT_LONG_BURST_RATE
        rates[rows] += (lo + (hi - lo) * _draw(keys[rows], layer, _P_LONG_RATE))[:, None]
    return np.clip(rates, 0.0, 0.95)


def _vns_rates(
    keys: np.ndarray,
    layer: int,
    n_slots: int,
    run_params: list[SegmentLossParams],
    run_lens: np.ndarray,
) -> np.ndarray:
    """Dedicated-L2 spread loss — mirrors ``link._vns_rates``."""
    rates = np.zeros((keys.size, n_slots))
    spread_prob = _repeat([p.spread_prob for p in run_params], run_lens)
    hit = _draw(keys, layer, _P_VNS_OCC) < spread_prob
    if hit.any():
        rows = np.nonzero(hit)[0]
        lo = _repeat([p.uniform_lo for p in run_params], run_lens)[rows]
        hi = _repeat([p.uniform_hi for p in run_params], run_lens)[rows]
        rates[rows] += (lo + (hi - lo) * _draw(keys[rows], layer, _P_VNS_RATE))[:, None]
    return rates
