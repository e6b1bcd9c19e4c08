"""Campaign-level columnar stream simulation (struct-of-arrays kernel).

A realistic campaign has ~1 call per path signature (``largest_batch:
3`` in the recorded ``workload`` bench row), so batching streams one
signature at a time leaves one Python round-trip per group.  This
module simulates **every stream of every group in one shot**: calls are
gathered into per-``n_slots`` buckets and pushed through a handful of
wide numpy passes over ``(streams, slots)`` arrays — per-segment-kind
rate sampling, survival-product combination, binomial slot losses, and
gamma jitter with its p95 reduction.  It is the campaign engine's only
simulation kernel.  Both sides are columnar: specs go in as one table
of arrays (:func:`simulate_table`; :func:`simulate_columns` unzips a
list of :class:`StreamColumnSpec` into it), and every stream's
measurements come out as :class:`StreamColumns` — flat arrays a
campaign folds without building an object per stream
(:func:`simulate_stream_columns` materialises them as
:class:`~repro.dataplane.transmit.StreamResult` lists for the tests and
probes that want objects).

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

Requires scipy (a declared dependency): the ``scipy.special`` import
below fails loudly when it is missing — a campaign never runs on a
substitute kernel.  ``scipy.special`` is all of scipy the kernel uses:
the binomial quantile is searched against ``bdtr`` from its definition
(:func:`_binom_quantile`), so no campaign process imports scipy's much
heavier statistics package.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from scipy import special as _special

from repro.dataplane import calibration as cal
from repro.dataplane.link import KIND_CODE, LOSS_TABLE, SegmentKind, SegmentLossParams
from repro.dataplane.path import DataPath
from repro.dataplane.transmit import (
    StreamResult,
    _jitter_base_ms,
    _jitter_rate_factor,
    _stream_shape,
    count_heavy_loss_slots,
)
from repro.perf import counters as perf

__all__ = [
    "StreamColumnSpec",
    "StreamColumns",
    "simulate_columns",
    "simulate_stream_columns",
    "simulate_table",
    "spec_digest",
]


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
    (:func:`spec_digest`), so the keyspace inherits the caller's keying
    — ``(seed, group signature)`` for a campaign.
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


#: Steps the anchored walk may take before a cell goes to the bisection
#: backstop.  Campaign cells need 0-2; the Cornish-Fisher guess is off by
#: more only deep in a tail.
_BINOM_WALK_MAX_STEPS = 64
#: Relative distance between ``u`` and a CDF step under which the walk's
#: accumulated sums are not trusted to order them (their error reaches
#: ~1.5e-12 at n ~ 1.5k, e.g. ``u = 0.5`` on ``bdtr(743, 1487, 0.5)``;
#: one campaign cell in ~1e8 is this close).
_BINOM_CLOSE_CALL = 1e-9
#: Below this the pmf recursion has lost its precision to denormals.
_PMF_TINY = float(np.finfo(np.float64).tiny)


def _binom_quantile(u: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Vectorised binomial quantile: ``min {k : P(X <= k) >= u}``.

    Computed from that definition, exact in distribution:

    * ``u <= (1-p)^n`` — the overwhelmingly common no-loss cell — answers
      0 straight from one ``exp``/``log1p`` pass;
    * every other cell is *searched* (:func:`_binom_search`): an anchor
      near the answer, its CDF, and a walk along the pmf recursion until
      ``cdf(k-1) < u <= cdf(k)``.
    """
    u = np.asarray(u, dtype=np.float64)
    n = np.asarray(n, dtype=np.int64)
    p = np.asarray(p, dtype=np.float64)
    k_out = np.zeros(u.shape, dtype=np.int64)
    with np.errstate(divide="ignore"):
        log_q = np.log1p(-p)
    p_zero = np.exp(n * log_q)
    need = np.nonzero(u > p_zero)[0]
    if perf.enabled:
        perf.incr("dataplane.kernel.cells_zero", u.size - need.size)
        perf.incr("dataplane.kernel.cells_inverted", need.size)
    if need.size:
        k_out[need] = _binom_search(u[need], n[need], p[need], log_q[need])
    return k_out


def _binom_search(
    u: np.ndarray, n: np.ndarray, p: np.ndarray, log_q: np.ndarray
) -> np.ndarray:
    """The quantile of cells with ``u > (1-p)^n``, by search against the CDF.

    Anchor at a Cornish-Fisher guess ``k0``; take ``P(X <= k0)`` from
    ``bdtr`` and ``pmf(k0)`` from ``gammaln``; then walk down while
    ``cdf(k-1) >= u`` or up until ``cdf(k) >= u`` with
    ``pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/(1-p)``.  Cells whose anchor
    pmf underflowed, that are still walking after
    :data:`_BINOM_WALK_MAX_STEPS`, or whose ``u`` lies within rounding of
    a CDF step are bisected on ``bdtr`` instead.
    """
    nf = n.astype(np.float64)
    q = 1.0 - p
    mean = nf * p
    sd = np.sqrt(mean * q)
    z = _special.ndtri(u)
    k = np.floor(mean + sd * z + (q - p) * (z * z - 1.0) / 6.0 + 0.5)
    np.clip(k, 0.0, nf, out=k)
    cdf = _special.bdtr(k, n, p)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pmf = np.exp(
            _special.gammaln(nf + 1.0)
            - _special.gammaln(k + 1.0)
            - _special.gammaln(nf - k + 1.0)
            + k * np.log(p)
            + (nf - k) * log_q
        )
        odds = p / q
    walkable = np.isfinite(pmf) & (pmf >= _PMF_TINY) & np.isfinite(odds)
    bisect = ~walkable

    # Down: k is an upper bound; step while the CDF one below still covers u.
    active = np.flatnonzero(walkable & (cdf >= u))
    for _ in range(_BINOM_WALK_MAX_STEPS):
        if not active.size:
            break
        k_a, pmf_a = k[active], pmf[active]
        below = cdf[active] - pmf_a
        go = (below >= u[active]) & (k_a > 0.0)
        active = active[go]
        cdf[active] = below[go]
        pmf[active] = pmf_a[go] * (k_a[go] / (nf[active] - k_a[go] + 1.0)) / odds[active]
        k[active] = k_a[go] - 1.0
    bisect[active] = True

    # Up: cdf(k) < u; step until it covers u.
    active = np.flatnonzero(walkable & (cdf < u) & (k < nf))
    for _ in range(_BINOM_WALK_MAX_STEPS):
        if not active.size:
            break
        k_a = k[active]
        pmf_a = pmf[active] * ((nf[active] - k_a) / (k_a + 1.0)) * odds[active]
        cdf_a = cdf[active] + pmf_a
        k_a = k_a + 1.0
        pmf[active], cdf[active], k[active] = pmf_a, cdf_a, k_a
        active = active[(cdf_a < u[active]) & (k_a < nf[active])]
    bisect[active] = True

    # Every walked cell now has cdf(k-1) = cdf - pmf < u <= cdf.  Where u
    # sits within rounding of either step the walk's sums and ``bdtr``
    # may order them differently: ``bdtr`` decides those too.
    margin = _BINOM_CLOSE_CALL * cdf
    bisect |= (cdf - u < margin) | (u - (cdf - pmf) < margin)
    stuck = np.flatnonzero(bisect)
    if stuck.size:
        k[stuck] = _binom_bisect(u[stuck], n[stuck], p[stuck])
    return k.astype(np.int64)


def _binom_bisect(u: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``min {k : bdtr(k, n, p) >= u}`` by bisection over ``[0, n]``."""
    lo = np.full(u.shape, -1.0)  # cdf(lo) < u
    hi = n.astype(np.float64)  # cdf(hi) = 1 >= u
    active = np.flatnonzero(hi - lo > 1.0)
    while active.size:
        mid = np.floor((lo[active] + hi[active]) / 2.0)
        covers = _special.bdtr(mid, n[active], p[active]) >= u[active]
        hi[active[covers]] = mid[covers]
        lo[active[~covers]] = mid[~covers]
        active = active[hi[active] - lo[active] > 1.0]
    return hi


# --------------------------------------------------------------------- #
# the kernel
# --------------------------------------------------------------------- #


class StreamColumnSpec(NamedTuple):
    """One homogeneous column of streams: a (group, transport) batch.

    ``digest`` is the group's 128-bit signature split into two 64-bit
    words (:func:`spec_digest`); ``salt`` tags the transport within the
    group.  Together with a stream's index they key every random draw —
    see the module docstring.
    """

    path: DataPath
    n_streams: int
    duration_s: float
    hour_cet: float
    digest: tuple[int, int]
    salt: int = 0


def spec_digest(text: str) -> tuple[int, int]:
    """``text``'s blake2b-128 as the two 64-bit words a spec's ``digest`` is.

    A stable hash — deliberately **not** Python's ``hash()``, whose
    string salting differs between (worker) processes — so equal texts
    key equal draws in any process.
    """
    digest = hashlib.blake2b(text.encode("ascii"), digest_size=16).digest()
    return (
        int.from_bytes(digest[0:8], "little"),
        int.from_bytes(digest[8:16], "little"),
    )


class _PathView(NamedTuple):
    """What the kernel needs of a path, kept on the path (``_kernel_view``)."""

    sids: tuple[int, ...]  #: :data:`LOSS_TABLE` id of each segment, in order
    rtt_ms: float
    jitter_base_ms: float


def _path_view(path: DataPath) -> _PathView:
    """``path``'s view, built the first time the kernel meets the path:
    :data:`LOSS_TABLE` ids and sums over its per-id scalars, summed in the
    order of :meth:`DataPath.rtt_ms` and :func:`_jitter_base_ms` (same bits)."""
    view = path._kernel_view
    if view is None:
        segments = path.segments
        sids = tuple(map(LOSS_TABLE.segment_id, segments))
        view = path._kernel_view = _PathView(
            sids,
            2.0 * sum(map(LOSS_TABLE.delay_ms.__getitem__, sids)),
            _jitter_base_ms(segments),
        )
    return view


@dataclass(slots=True, eq=False)
class StreamColumns:
    """Every simulated stream's measurements, one array entry per stream.

    Rows are spec-major: spec ``i``'s streams are rows
    ``spec_start[i]:spec_start[i + 1]``, in stream-index order.  The
    scalar columns are what a campaign folds; a stream's per-slot losses
    stay in the matrix of the pass that simulated it (``losses[loss_pass]
    [loss_row]``) and become an object only through :meth:`results`.
    """

    spec_start: np.ndarray  #: ``(specs + 1,)`` first row of each spec
    packets_sent: np.ndarray
    packets_lost: np.ndarray
    heavy_loss_slots: np.ndarray
    n_slots: np.ndarray
    jitter_p95_ms: np.ndarray
    rtt_ms: np.ndarray
    loss_pass: np.ndarray  #: which ``losses`` matrix holds the row's slots
    loss_row: np.ndarray  #: the row's position in that matrix
    losses: list[np.ndarray]  #: one ``(rows, n_slots)`` matrix per pass

    def __len__(self) -> int:
        return self.packets_sent.size

    def lossy_slots(self) -> np.ndarray:
        """Each row's slots with at least one lost packet (as ``StreamResult``)."""
        per_pass = [(losses > 0).sum(axis=1) for losses in self.losses]
        pass_start = np.cumsum([0, *map(len, per_pass)])
        return np.concatenate(per_pass)[pass_start[self.loss_pass] + self.loss_row]

    def results(self, rows: np.ndarray | None = None) -> list[StreamResult]:
        """``rows`` (every row by default) as :class:`StreamResult`\\ s, in order."""
        if rows is None:
            rows = np.arange(len(self))
        losses = self.losses
        return list(
            map(
                StreamResult,
                self.packets_sent[rows].tolist(),
                [
                    losses[p][r]
                    for p, r in zip(self.loss_pass[rows].tolist(), self.loss_row[rows].tolist())
                ],
                self.jitter_p95_ms[rows].tolist(),
                self.rtt_ms[rows].tolist(),
                self.packets_lost[rows].tolist(),
                self.heavy_loss_slots[rows].tolist(),
            )
        )

    @classmethod
    def concat(cls, parts: "list[StreamColumns]") -> "StreamColumns":
        """The parts' rows end to end (part-major), as one set of columns."""
        row_shift = np.cumsum([0, *(len(part) for part in parts)])
        pass_shift = np.cumsum([0, *(len(part.losses) for part in parts)])
        unshifted = (
            "packets_sent",
            "packets_lost",
            "heavy_loss_slots",
            "n_slots",
            "jitter_p95_ms",
            "rtt_ms",
            "loss_row",
        )
        return cls(
            spec_start=np.concatenate(
                [part.spec_start[:-1] + shift for part, shift in zip(parts, row_shift)]
                + [row_shift[-1:]]
            ),
            loss_pass=np.concatenate(
                [part.loss_pass + shift for part, shift in zip(parts, pass_shift)]
            ),
            losses=[matrix for part in parts for matrix in part.losses],
            **{
                name: np.concatenate([getattr(part, name) for part in parts])
                for name in unshifted
            },
        )


def simulate_stream_columns(
    specs: list[StreamColumnSpec],
    *,
    packets_per_second: float = 420.0,
    slot_s: float = 5.0,
    max_rows_per_pass: int = 65536,
) -> list[list[StreamResult]]:
    """Simulate every stream of every spec; one result list per spec.

    :func:`simulate_columns` with every stream materialised — the form
    the kernel's tests and probes read.
    """
    columns = simulate_columns(
        specs,
        packets_per_second=packets_per_second,
        slot_s=slot_s,
        max_rows_per_pass=max_rows_per_pass,
    )
    streams = columns.results()
    cuts = columns.spec_start.tolist()
    return [streams[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def simulate_columns(
    specs: list[StreamColumnSpec],
    *,
    packets_per_second: float = 420.0,
    slot_s: float = 5.0,
    max_rows_per_pass: int = 65536,
) -> StreamColumns:
    """Simulate every stream of every spec into :class:`StreamColumns`.

    :func:`simulate_table` over the specs unzipped into its columns.
    """
    paths, n_streams, durations, hours, digests, salts = tuple(zip(*specs)) or ((),) * 6
    mask64 = 0xFFFFFFFFFFFFFFFF
    return simulate_table(
        list(paths),
        np.asarray(n_streams, dtype=np.int64),
        np.asarray(durations, dtype=float),
        np.asarray(hours, dtype=float),
        np.array([(d0 & mask64, d1 & mask64) for d0, d1 in digests], dtype=np.uint64),
        np.array([salt & 0xFFFFFFFF for salt in salts], dtype=np.uint64),
        packets_per_second=packets_per_second,
        slot_s=slot_s,
        max_rows_per_pass=max_rows_per_pass,
    )


def simulate_table(
    paths: list[DataPath],
    n_streams: np.ndarray,
    duration_s: np.ndarray,
    hour_cet: np.ndarray,
    digest: np.ndarray,
    salt: np.ndarray,
    *,
    packets_per_second: float = 420.0,
    slot_s: float = 5.0,
    max_rows_per_pass: int = 65536,
) -> StreamColumns:
    """Simulate a spec table given as columns into :class:`StreamColumns`.

    Spec ``i`` is ``paths[i]`` with the fields of a
    :class:`StreamColumnSpec` at ``[i]`` of the arrays; ``digest`` is
    ``(specs, 2)`` uint64 words and ``salt`` uint64.  The table stays
    columnar inside too: a ``(specs, layers)`` matrix of
    :data:`LOSS_TABLE` parameter rows, and per pass one row-to-spec
    index through which everything else is gathered.  Specs are bucketed
    by slot count (the campaign's quantized durations make these buckets
    huge) and processed in passes of at most ``max_rows_per_pass``
    streams; neither the bucketing nor the pass boundary affects any
    result (counter-based draws).

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
    if not paths:
        return _unfilled_columns(np.zeros(1, dtype=np.int64))
    with perf.timer("dataplane.kernel.prelude"):
        table = _spec_table(
            paths, n_streams, duration_s, hour_cet, digest, salt, packets_per_second, slot_s
        )
    spec_start = np.concatenate(([0], np.cumsum(table.n_streams)))
    out = _unfilled_columns(spec_start)
    with perf.timer("dataplane.kernel.chunks"):
        for n_slots in np.unique(table.n_slots).tolist():
            bucket = np.flatnonzero(table.n_slots == n_slots)
            counts = table.n_streams[bucket]
            # One entry per stream of the bucket: its spec, and its index
            # within the spec (a spec larger than a pass spans several).
            row_spec = np.repeat(bucket, counts)
            row_stream = _group_rows(np.zeros_like(counts), counts)
            for start in range(0, row_spec.size, max_rows_per_pass):
                rows = slice(start, start + max_rows_per_pass)
                _simulate_pass(table, n_slots, row_spec[rows], row_stream[rows], out)
    return out


def _unfilled_columns(spec_start: np.ndarray) -> StreamColumns:
    """Result columns for ``spec_start[-1]`` streams, for the passes to fill."""
    n_rows = int(spec_start[-1])

    def ints() -> np.ndarray:
        return np.empty(n_rows, dtype=np.int64)

    return StreamColumns(
        spec_start=spec_start,
        packets_sent=ints(),
        packets_lost=ints(),
        heavy_loss_slots=ints(),
        n_slots=ints(),
        jitter_p95_ms=np.empty(n_rows),
        rtt_ms=np.empty(n_rows),
        loss_pass=ints(),
        loss_row=ints(),
        losses=[],
    )


class _SpecTable(NamedTuple):
    """The specs as columns: one array entry (or matrix row) per spec."""

    n_streams: np.ndarray
    n_slots: np.ndarray
    packets_per_slot: int
    final_packets: np.ndarray
    packets_sent: np.ndarray
    rtt_ms: np.ndarray
    jitter_scale: np.ndarray
    key_base: np.ndarray  #: uint64 mix of (digest word 0, salt)
    key_word: np.ndarray  #: uint64 digest word 1
    #: ``(specs, layers)`` LOSS_TABLE rows, 0-padded past a path's length.
    param_rows: np.ndarray


def _spec_table(
    paths: list[DataPath],
    n_streams: np.ndarray,
    durations: np.ndarray,
    hours: np.ndarray,
    digest: np.ndarray,
    salt: np.ndarray,
    packets_per_second: float,
    slot_s: float,
) -> _SpecTable:
    """Validate the spec columns and derive the kernel's from them."""
    if (n_streams <= 0).any():
        bad = n_streams[n_streams <= 0][0]
        raise ValueError(f"n_streams must be positive, got {int(bad)!r}")
    # Stream shapes: one derivation per distinct duration.
    distinct, which = np.unique(durations, return_inverse=True)
    if not distinct[0] > 0:
        raise ValueError(f"duration_s must be positive, got {float(distinct[0])!r}")
    shapes = np.array(
        [_stream_shape(float(d), packets_per_second, slot_s) for d in distinct]
    )
    n_slots, final_packets = shapes[which, 0], shapes[which, 2]
    packets_per_slot = int(shapes[0, 1])

    path_sids, rtt_ms, jitter_base_ms = zip(*map(_path_view, paths))
    layers = np.array(list(map(len, path_sids)), dtype=np.int64)
    flat_rows: list[int] = []  # one flat list: nothing per spec outlives its turn
    for sids, hour in zip(path_sids, hours.tolist()):
        flat_rows += LOSS_TABLE.rows(sids, hour)
    param_rows = np.zeros((len(paths), max(int(layers.max()), 1)), dtype=np.int64)
    param_rows[
        np.repeat(np.arange(len(paths)), layers), _group_rows(np.zeros_like(layers), layers)
    ] = flat_rows

    with np.errstate(over="ignore"):
        key_base = _mix64(digest[:, 0] + salt * _GOLDEN)

    if perf.enabled:
        perf.incr("dataplane.kernel.specs", len(paths))
        perf.incr("dataplane.kernel.rows", int(n_streams.sum()))
        perf.incr("dataplane.kernel.cells", int((n_streams * n_slots).sum()))
        perf.incr("dataplane.kernel.paths_unique", len(set(map(id, paths))))
        perf.incr("dataplane.kernel.param_rows", np.unique(flat_rows).size)
    return _SpecTable(
        n_streams=n_streams,
        n_slots=n_slots,
        packets_per_slot=packets_per_slot,
        final_packets=final_packets,
        packets_sent=packets_per_slot * (n_slots - 1) + final_packets,
        rtt_ms=np.array(rtt_ms),
        jitter_scale=np.array(jitter_base_ms) * _jitter_rate_factor(packets_per_second),
        key_base=key_base,
        key_word=digest[:, 1],
        param_rows=param_rows,
    )


def _group_rows(run_starts: np.ndarray, run_lens: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + len)`` per run, vectorised.

    Equivalent to ``np.concatenate([np.arange(s, s + l) ...])`` without
    materialising thousands of tiny arrays (campaign runs average ~1 row).
    """
    total = int(run_lens.sum())
    shift = run_starts - (np.cumsum(run_lens) - run_lens)
    return np.repeat(shift, run_lens) + np.arange(total, dtype=np.int64)


def _simulate_pass(
    table: _SpecTable,
    n_slots: int,
    row_spec: np.ndarray,
    row_stream: np.ndarray,
    out: StreamColumns,
) -> None:
    """Simulate one ``(rows, n_slots)`` pass into the rows' result columns."""
    m = row_spec.size
    # Per-stream keys — bit-identical to _stream_keys(digest, salt, start,
    # stop) per spec, concatenated.
    with np.errstate(over="ignore"):
        keys = (
            _mix64(row_stream.astype(np.uint64) * _GOLDEN + table.key_word[row_spec])
            ^ table.key_base[row_spec]
        )
    columns = LOSS_TABLE.columns
    param_rows = table.param_rows[row_spec]
    survival = np.ones((m, n_slots))
    for layer in range(param_rows.shape[1]):
        ids = param_rows[:, layer]
        kinds = columns.kind[ids]
        extra = columns.extra_loss[ids]
        for kind, sampler in _RATE_SAMPLERS.items():
            wanted = kinds == kind
            if sampler is _lossless_rates:
                wanted &= extra > 0.0  # an unimpaired hand-off changes nothing
            rows = np.flatnonzero(wanted)
            if rows.size:
                rates = sampler(keys[rows], layer, n_slots, columns, ids[rows])
                survival[rows] *= 1.0 - _apply_extra(rates, extra[rows])
    rates = 1.0 - survival

    packets = np.full((m, n_slots), table.packets_per_slot, dtype=np.int64)
    packets[:, -1] = table.final_packets[row_spec]
    u_binom = _draw_slots(keys, 0, _P_BINOMIAL, n_slots)
    losses = _binom_quantile(u_binom.ravel(), packets.ravel(), rates.ravel()).reshape(
        m, n_slots
    )

    u_jitter = _draw_slots(keys, 0, _P_JITTER, n_slots)
    jitter = _gamma_quantile(u_jitter, cal.JITTER_GAMMA_SHAPE)
    jitter *= table.jitter_scale[row_spec][:, None]
    jitter *= 1.0 + 40.0 * rates
    jitter_p95 = np.percentile(jitter, 95, axis=1)

    at = out.spec_start[row_spec] + row_stream
    out.packets_sent[at] = table.packets_sent[row_spec]
    out.packets_lost[at] = losses.sum(axis=1)
    out.heavy_loss_slots[at] = count_heavy_loss_slots(losses, packets)
    out.n_slots[at] = n_slots
    out.jitter_p95_ms[at] = jitter_p95
    out.rtt_ms[at] = table.rtt_ms[row_spec]
    out.loss_pass[at] = len(out.losses)
    out.loss_row[at] = np.arange(m)
    out.losses.append(losses)


def _apply_extra(rates: np.ndarray, extras: np.ndarray) -> np.ndarray:
    """Degraded-segment impairment: add after the stochastic draw, clip."""
    if not np.any(extras > 0.0):
        return rates
    e = extras[:, None]
    return np.where(e > 0.0, np.clip(rates + e, 0.0, 0.95), rates)


# --------------------------------------------------------------------- #
# per-kind rate columns (each mirrors one PathSegment sampler exactly)
# --------------------------------------------------------------------- #


def _access_rates(
    keys: np.ndarray,
    layer: int,
    n_slots: int,
    columns: SegmentLossParams,
    ids: np.ndarray,
) -> np.ndarray:
    """Episodic access loss — mirrors ``link._access_rates``."""
    occurrence = columns.occurrence[ids][:, None]
    episodes = _draw_slots(keys, layer, _P_ACCESS_EPISODE, n_slots) < occurrence
    rates = np.zeros(episodes.shape)
    if episodes.any():
        sigma = cal.ACCESS_EPISODE_SIGMA
        u = _draw_slots(keys, layer, _P_ACCESS_RATE, n_slots)[episodes]
        draws = np.exp(-0.5 * sigma * sigma + sigma * _ndtri(u))
        mean_rate = columns.mean_rate[ids][:, None]
        rates[episodes] = np.clip(
            np.broadcast_to(mean_rate, episodes.shape)[episodes] * draws, 0.0, 0.5
        )
    return rates


def _transit_rates(
    keys: np.ndarray,
    layer: int,
    n_slots: int,
    columns: SegmentLossParams,
    ids: np.ndarray,
) -> np.ndarray:
    """Floor + spread + bursts — mirrors ``link._transit_rates``.

    Burst exposure matches the scalar default observation window of
    ``5.0 * n_slots`` seconds (the samplers' calibration window, not the
    call's wall-clock duration).
    """
    rates = np.full((keys.size, n_slots), cal.TRANSIT_FLOOR_RATE)
    lh_rows = np.flatnonzero(columns.long_haul[ids])
    if lh_rows.size:
        occ = _draw(keys[lh_rows], layer, _P_SPREAD_OCC) < columns.spread_prob[ids[lh_rows]]
        if occ.any():
            hit = lh_rows[occ]
            u = _draw(keys[hit], layer, _P_SPREAD_RATE)
            draws = np.exp(
                cal.TRANSIT_SPREAD_LOG_MEAN + cal.TRANSIT_SPREAD_LOG_SIGMA * _ndtri(u)
            )
            rates[hit] += np.minimum(draws * columns.rate_mult[ids[hit]], 0.05)[:, None]
    exposure = (5.0 * n_slots) / 120.0
    burst_scale = columns.burst_scale_120s[ids] * exposure

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
    columns: SegmentLossParams,
    ids: np.ndarray,
) -> np.ndarray:
    """Dedicated-L2 spread loss — mirrors ``link._vns_rates``."""
    rates = np.zeros((keys.size, n_slots))
    rows = np.flatnonzero(_draw(keys, layer, _P_VNS_OCC) < columns.spread_prob[ids])
    if rows.size:
        lo = columns.uniform_lo[ids[rows]]
        hi = columns.uniform_hi[ids[rows]]
        rates[rows] += (lo + (hi - lo) * _draw(keys[rows], layer, _P_VNS_RATE))[:, None]
    return rates


def _lossless_rates(
    keys: np.ndarray,
    layer: int,
    n_slots: int,
    columns: SegmentLossParams,
    ids: np.ndarray,
) -> np.ndarray:
    """PEERING hand-offs are loss-free (an impairment is added on top)."""
    return np.zeros((keys.size, n_slots))


#: The rate sampler of each ``kind`` column code.
_RATE_SAMPLERS = {
    KIND_CODE[SegmentKind.ACCESS]: _access_rates,
    KIND_CODE[SegmentKind.TRANSIT]: _transit_rates,
    KIND_CODE[SegmentKind.VNS_L2]: _vns_rates,
    KIND_CODE[SegmentKind.PEERING]: _lossless_rates,
}
