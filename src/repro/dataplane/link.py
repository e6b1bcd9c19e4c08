"""Path segments: the unit of delay and loss in the data plane.

A forwarding path decomposes into segments — last-mile access, transit
hops (intra- or inter-AS), VNS dedicated L2 links, and IXP peering hops.
Each segment knows its geography and can sample a per-slot loss-rate
vector for a media stream (or a single-round rate for probes).  The
sampling implements the loss regimes of Fig. 10: an always-on *spread*
(random) component, *short bursts* (transient congestion / IGP events),
and *long bursts* (sustained congestion / BGP convergence), with regional
weights from :mod:`repro.dataplane.calibration`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.dataplane import calibration as cal
from repro.dataplane.diurnal import access_profile, transit_profile
from repro.dataplane.latency import propagation_delay_ms
from repro.geo.cities import region_of_point
from repro.geo.coords import GeoPoint, great_circle_km
from repro.geo.regions import WorldRegion
from repro.net.asn import ASType


@lru_cache(maxsize=None)
def _segment_distance_km(start: GeoPoint, end: GeoPoint) -> float:
    """Memoised great-circle distance between segment endpoints.

    Segment endpoints are a small, heavily-reused set (PoPs, cities,
    prefix locations), and every delay/loss parameter derivation starts
    from this distance — the haversine was a top-3 campaign hotspot
    before caching.
    """
    return great_circle_km(start, end)


@lru_cache(maxsize=None)
def _transit_diurnal(region: WorldRegion, hour_cet: float) -> float:
    """Memoised transit diurnal factor — tiny (region, hour-bin) keyspace."""
    return transit_profile(region).factor_cet(hour_cet, region)


@lru_cache(maxsize=None)
def _access_diurnal(region: WorldRegion, as_type: ASType, hour_cet: float) -> float:
    """Memoised access diurnal factor — tiny (region, type, hour) keyspace."""
    return access_profile(region, as_type).factor_cet(hour_cet, region)


class SegmentKind(enum.Enum):
    """What kind of infrastructure a segment crosses."""

    # Members are singletons, so identity hashing is sound — and C-level,
    # unlike Enum's Python ``__hash__``, which showed up on campaign
    # profiles under every calibration-table and memo-cache lookup.
    __hash__ = object.__hash__

    ACCESS = "access"  #: last mile into the destination/source AS
    TRANSIT = "transit"  #: a transit provider's infrastructure
    VNS_L2 = "vns-l2"  #: a VNS dedicated layer-2 link
    PEERING = "peering"  #: an IXP/PNI hand-off (same metro)

    def __str__(self) -> str:
        return self.value


#: Per-kind path-inflation factors (hoisted — ``delay_ms`` is hot).
_PATH_INFLATION: dict[SegmentKind, float] = {
    SegmentKind.ACCESS: cal.ACCESS_PATH_INFLATION,
    SegmentKind.TRANSIT: cal.TRANSIT_PATH_INFLATION,
    SegmentKind.VNS_L2: cal.VNS_PATH_INFLATION,
    SegmentKind.PEERING: cal.TRANSIT_PATH_INFLATION,
}


@lru_cache(maxsize=None)
def _segment_delay_ms(segment: "PathSegment") -> float:
    """Base (impairment-free) one-way delay of a segment, memoised by value."""
    inflation = _PATH_INFLATION[segment.kind]
    return propagation_delay_ms(segment.distance_km, inflation) + cal.PER_HOP_DELAY_MS


class SegmentLossParams(NamedTuple):
    """The resolved loss-distribution parameters of one segment at one hour.

    Everything the stochastic loss model needs, with geography, AS
    classes and diurnal profiles already folded in.  Produced by
    :meth:`PathSegment._derive_loss_params`; the scalar samplers read one
    directly, the columnar kernel (:mod:`repro.dataplane.columnar`)
    reads the same fields as *columns* of :data:`LOSS_TABLE` — one row
    per distinct ``(segment, hour)`` — and samples the same
    distributions from those numbers alone.

    Field use by kind:

    * ACCESS — ``occurrence`` (episode probability) and ``mean_rate``
      (in-episode mean, lognormal-corrected).
    * TRANSIT — ``spread_prob``/``rate_mult`` (long-haul spread
      component) and ``burst_scale_120s`` (burst occurrence scale per
      120 s of exposure, congestion- and haul-weighted).
    * VNS_L2 — ``spread_prob`` and the ``uniform_lo``/``uniform_hi``
      in-spread rate range.
    * PEERING — loss-free; only ``extra_loss`` can apply.

    ``extra_loss`` is the :class:`DegradedSegment` impairment (0.0 for a
    healthy segment), added after the stochastic draw and clipped to
    0.95 exactly as the scalar sampler does.
    """

    kind: SegmentKind
    long_haul: bool = False
    extra_loss: float = 0.0
    occurrence: float = 0.0
    mean_rate: float = 0.0
    spread_prob: float = 0.0
    rate_mult: float = 0.0
    burst_scale_120s: float = 0.0
    uniform_lo: float = 0.0
    uniform_hi: float = 0.0


def _access_rates(
    params: SegmentLossParams, n_slots: int, rng: np.random.Generator
) -> np.ndarray:
    """Episodic access loss.

    Each slot/round is in a congestion episode with a (diurnal)
    probability; in-episode rates are scaled so the long-run mean
    matches the calibrated base.  Outside episodes the link is clean
    — which is what keeps the Fig. 12 lossy-round counts swinging
    with local hours instead of saturating.
    """
    episodes = rng.random(n_slots) < params.occurrence
    sigma = cal.ACCESS_EPISODE_SIGMA
    draws = rng.lognormal(-0.5 * sigma * sigma, sigma, size=n_slots)
    return np.where(episodes, np.clip(params.mean_rate * draws, 0.0, 0.5), 0.0)


def _transit_rates(
    params: SegmentLossParams,
    n_slots: int,
    rng: np.random.Generator,
    duration_s: float,
) -> np.ndarray:
    """Floor + long-haul spread + short/long bursts on a transit trunk."""
    rates = np.full(n_slots, cal.TRANSIT_FLOOR_RATE)
    if params.long_haul and rng.random() < params.spread_prob:
        rate = float(
            rng.lognormal(cal.TRANSIT_SPREAD_LOG_MEAN, cal.TRANSIT_SPREAD_LOG_SIGMA)
        )
        rates += min(rate * params.rate_mult, 0.05)
    # Burst events arrive in time: calibrated per 120 s of exposure.
    burst_scale = params.burst_scale_120s * (duration_s / 120.0)
    if rng.random() < cal.TRANSIT_SHORT_BURST_PROB * burst_scale:
        lo, hi = cal.TRANSIT_SHORT_BURST_RATE
        burst_rate = float(rng.uniform(lo, hi))
        n_burst = int(rng.integers(1, 3))
        slots = rng.choice(n_slots, size=min(n_burst, n_slots), replace=False)
        rates[slots] += burst_rate
    if rng.random() < cal.TRANSIT_LONG_BURST_PROB * burst_scale:
        lo, hi = cal.TRANSIT_LONG_BURST_RATE
        rates += float(rng.uniform(lo, hi))
    return np.clip(rates, 0.0, 0.95)


def _vns_rates(
    params: SegmentLossParams, n_slots: int, rng: np.random.Generator
) -> np.ndarray:
    """Dedicated-L2 loss: an occasional flat spread component."""
    rates = np.zeros(n_slots)
    if rng.random() < params.spread_prob:
        rates += float(rng.uniform(params.uniform_lo, params.uniform_hi))
    return rates


class _SegmentStatic(NamedTuple):
    """Hour-independent loss-model constants of one segment.

    Everything in :meth:`PathSegment._derive_loss_params` that does not
    depend on the hour — geography, corridor spread, rate multipliers, the static
    congestion mean, and the access base-loss table entry — resolved once
    per segment (memoised by :func:`_segment_static`).  The hour-dependent
    remainder is just a couple of memoised diurnal-factor lookups and
    scalar arithmetic, which is what keeps parameter resolution off the
    campaign profile.
    """

    long_haul: bool
    end_region: WorldRegion
    congestion_static: float
    anchor: WorldRegion
    corridor_prob: float
    rate_mult: float
    access_base: float


@lru_cache(maxsize=None)
def _segment_static(segment: "PathSegment") -> _SegmentStatic:
    """The hour-independent constants of ``segment`` (memoised)."""
    start_region = region_of_point(segment.start)
    end_region = region_of_point(segment.end)
    regions = (start_region, end_region)
    # Two-element mean, spelled out (same bits as np.mean: sum then halve).
    static = (cal.REGION_CONGESTION[start_region] + cal.REGION_CONGESTION[end_region]) / 2.0
    anchor = max(regions, key=lambda region: cal.REGION_CONGESTION[region])
    corridor_prob, corridor_mult = segment._corridor()
    distance_mult = min(
        cal.DIST_RATE_MAX,
        max(cal.DIST_RATE_MIN, segment.distance_km / cal.DIST_RATE_REF_KM),
    )
    owner_mult = cal.OWNER_RATE_MULT.get(segment.owner_type, 1.0)
    as_type = segment.as_type or ASType.EC
    base_table = cal.ACCESS_BASE_LOSS.get(end_region, cal.ACCESS_BASE_LOSS_DEFAULT)
    return _SegmentStatic(
        long_haul=segment.distance_km > cal.LONG_HAUL_KM,
        end_region=end_region,
        congestion_static=static,
        anchor=anchor,
        corridor_prob=corridor_prob,
        rate_mult=corridor_mult * distance_mult * owner_mult,
        access_base=base_table[as_type],
    )


@dataclass(frozen=True, slots=True)
class PathSegment:
    """One segment of a forwarding path.

    Parameters
    ----------
    kind:
        Infrastructure type; selects the loss model.
    start, end:
        Segment endpoints.
    as_type:
        For ACCESS segments: the destination AS's type (drives base loss).
    owner_type:
        For TRANSIT segments: the class of the AS whose infrastructure
        this is (premium LTP trunks lose less than small-transit trunks).
    label:
        Human-readable annotation, e.g. ``"AS702"`` or ``"LON-AMS"``.
    """

    kind: SegmentKind
    start: GeoPoint
    end: GeoPoint
    as_type: ASType | None = None
    owner_type: ASType | None = None
    label: str = ""
    #: value hash, precomputed once — segments key the loss-param and
    #: delay memo caches, and the generated dataclass hash (two points
    #: plus three enum members, all Python-level) dominated those lookups.
    _hash: int = field(init=False, repr=False, compare=False, default=0)
    #: this value's id in :data:`LOSS_TABLE` (-1 until first asked for).
    _sid: int = field(init=False, repr=False, compare=False, default=-1)

    # Unannotated on purpose: plain class attributes, not fields.  A
    # healthy segment has no impairment; :class:`DegradedSegment`'s
    # fields shadow these, so ``self.extra_loss`` reads without the
    # exception-driven ``getattr(..., 0.0)`` dance.
    extra_loss = 0.0
    extra_delay_ms = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self._value()))

    def __hash__(self) -> int:
        return self._hash

    def _value(self) -> tuple:
        """The constructor arguments: what two equal segments share."""
        return (self.kind, self.start, self.end, self.as_type, self.owner_type, self.label)

    def __reduce__(self):
        # Pickle the value, not the slots: ``_hash`` (salted string
        # hashing) and ``_sid`` mean nothing in another process.
        return (type(self), self._value())

    @property
    def distance_km(self) -> float:
        return _segment_distance_km(self.start, self.end)

    @property
    def is_long_haul(self) -> bool:
        return self.distance_km > cal.LONG_HAUL_KM

    @property
    def start_region(self) -> WorldRegion:
        return region_of_point(self.start)

    @property
    def end_region(self) -> WorldRegion:
        return region_of_point(self.end)

    def delay_ms(self) -> float:
        """One-way delay contribution, including a per-hop constant."""
        return _segment_delay_ms(self)

    def jitter_term(self) -> float:
        """This segment's congestion term in its path's jitter scale
        (:func:`repro.dataplane.transmit._jitter_base_ms`)."""
        kind = self.kind
        if kind is SegmentKind.ACCESS:
            return 0.3
        if kind is SegmentKind.TRANSIT and self.is_long_haul:
            return 0.5
        if kind is SegmentKind.VNS_L2 and self.is_long_haul:
            return 0.1
        return 0.0

    # -------------------------------------------------------------- #
    # loss sampling
    # -------------------------------------------------------------- #

    def sample_slot_rates(
        self,
        n_slots: int,
        hour_cet: float,
        rng: np.random.Generator,
        duration_s: float | None = None,
    ) -> np.ndarray:
        """Per-slot loss-probability contributions of this segment.

        The returned vector has length ``n_slots``; entries are loss
        probabilities to be combined across segments as independent drops.
        ``duration_s`` is the observation window (default: 5 s per slot);
        burst events arrive in time, so a 2-second probe round is far less
        likely to witness one than a 2-minute stream.

        Raises
        ------
        ValueError
            For a non-positive slot count or duration.
        """
        if n_slots <= 0:
            raise ValueError(f"n_slots must be positive, got {n_slots!r}")
        if duration_s is None:
            duration_s = 5.0 * n_slots
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s!r}")
        # The un-memoised derivation: probe experiments present ~10⁶
        # distinct (segment, hour) pairs, which must not grow the memo.
        params = self._derive_loss_params(hour_cet)
        if self.kind is SegmentKind.ACCESS:
            return _access_rates(params, n_slots, rng)
        if self.kind is SegmentKind.TRANSIT:
            return _transit_rates(params, n_slots, rng, duration_s)
        if self.kind is SegmentKind.VNS_L2:
            return _vns_rates(params, n_slots, rng)
        return np.zeros(n_slots)  # PEERING hand-offs are loss-free

    def _derive_loss_params(self, hour_cet: float) -> SegmentLossParams:
        """The loss-distribution parameters this segment samples from.

        The one parameterisation of the loss model: the scalar samplers
        (:meth:`sample_slot_rates`, the distribution oracle) call this
        directly, the columnar kernel (:mod:`repro.dataplane.columnar`)
        through the rows of :data:`LOSS_TABLE`.  Geography and AS-class
        constants come from the memoised :func:`_segment_static`, so one
        call is a couple of diurnal-factor lookups and scalar arithmetic.
        """
        extra = self.extra_loss
        static = _segment_static(self)
        long_haul = static.long_haul
        if self.kind is SegmentKind.ACCESS:
            as_type = self.as_type or ASType.EC
            weight = cal.ACCESS_DIURNAL_WEIGHT[as_type]
            diurnal = _access_diurnal(static.end_region, as_type, hour_cet)
            factor = (1.0 - weight) + weight * diurnal
            occurrence = min(0.9, cal.ACCESS_OCCURRENCE[as_type] * factor)
            return SegmentLossParams(
                kind=self.kind,
                long_haul=long_haul,
                extra_loss=extra,
                occurrence=occurrence,
                mean_rate=static.access_base * factor / max(occurrence, 1e-9),
            )
        if self.kind is SegmentKind.TRANSIT:
            diurnal = _transit_diurnal(static.anchor, hour_cet)
            congestion = static.congestion_static * diurnal
            return SegmentLossParams(
                kind=self.kind,
                long_haul=long_haul,
                extra_loss=extra,
                spread_prob=(
                    min(0.95, static.corridor_prob * diurnal) if long_haul else 0.0
                ),
                rate_mult=static.rate_mult if long_haul else 0.0,
                burst_scale_120s=congestion if long_haul else 0.3 * congestion,
            )
        if self.kind is SegmentKind.VNS_L2:
            if long_haul:
                spread_prob = cal.VNS_L2_LONG_SPREAD_PROB
                lo, hi = cal.VNS_L2_LONG_RATE
            else:
                spread_prob = cal.VNS_L2_INTRA_SPREAD_PROB
                lo, hi = cal.VNS_L2_INTRA_RATE
            return SegmentLossParams(
                kind=self.kind,
                long_haul=long_haul,
                extra_loss=extra,
                spread_prob=spread_prob,
                uniform_lo=lo,
                uniform_hi=hi,
            )
        return SegmentLossParams(kind=self.kind, long_haul=long_haul, extra_loss=extra)

    def _corridor(self) -> tuple[float, float]:
        """(spread probability, rate multiplier) of this segment's corridor.

        Includes the Sec. 5.2.2 west-coast discount: NA↔AP corridors
        terminating on the US west coast run over dense IXP peering.
        """
        regions = {self.start_region, self.end_region}
        key = frozenset(regions)
        entry = cal.TRANSIT_PAIR_SPREAD.get(key)
        if entry is None:
            return (
                min(0.95, cal.TRANSIT_SPREAD_PROB_DEFAULT_PER_CONGESTION * 1.5),
                1.0,
            )
        prob, rate_mult = entry
        if regions == {WorldRegion.NORTH_CENTRAL_AMERICA, WorldRegion.ASIA_PACIFIC}:
            na_point = (
                self.start
                if self.start_region is WorldRegion.NORTH_CENTRAL_AMERICA
                else self.end
            )
            if na_point.lon < cal.WEST_COAST_LON_THRESHOLD:
                prob *= cal.WEST_COAST_DISCOUNT
        return prob, rate_mult

    def __str__(self) -> str:
        suffix = f" [{self.label}]" if self.label else ""
        return f"{self.kind}:{self.distance_km:.0f}km{suffix}"


@dataclass(frozen=True, slots=True)
class DegradedSegment(PathSegment):
    """A segment under an injected impairment (``repro.faults``).

    Adds a constant loss probability and delay penalty on top of the
    segment's own stochastic model — the "transit-path degradation"
    fault: sustained congestion or a flapping underlay on an Internet
    segment, which VNS's dedicated circuits are supposed to shield
    users from.
    """

    extra_loss: float = 0.0
    extra_delay_ms: float = 0.0

    def __post_init__(self) -> None:
        PathSegment.__post_init__(self)
        if not 0.0 <= self.extra_loss < 1.0:
            raise ValueError(f"extra_loss must be in [0, 1), got {self.extra_loss!r}")
        if self.extra_delay_ms < 0.0:
            raise ValueError(
                f"extra_delay_ms must be non-negative, got {self.extra_delay_ms!r}"
            )

    # NB: explicit parent calls — ``slots=True`` dataclasses are re-created
    # by the decorator, which breaks zero-argument ``super()``.
    def _value(self) -> tuple:
        return PathSegment._value(self) + (self.extra_loss, self.extra_delay_ms)

    def delay_ms(self) -> float:
        return PathSegment.delay_ms(self) + self.extra_delay_ms

    def sample_slot_rates(
        self,
        n_slots: int,
        hour_cet: float,
        rng: np.random.Generator,
        duration_s: float | None = None,
    ) -> np.ndarray:
        base = PathSegment.sample_slot_rates(self, n_slots, hour_cet, rng, duration_s)
        return np.clip(base + self.extra_loss, 0.0, 0.95)



#: Integer code of each kind in :data:`LOSS_TABLE`'s ``kind`` column
#: (0 is the padding row: no segment at that layer).
KIND_CODE: dict[SegmentKind, int] = {
    kind: code for code, kind in enumerate(SegmentKind, start=1)
}


class SegmentLossTable:
    """Segment ids and loss-parameter rows, interned for the process.

    Campaign paths are assembled from a small set of segment *values*
    (a few thousand) over and over (tens of thousands of constructions
    a day), and the columnar kernel needs each value's parameters at a
    handful of whole-hour bins.  This table gives every distinct value a
    small integer id — :meth:`intern` where paths are assembled,
    :meth:`segment_id` for a segment built any other way — and every
    distinct ``(id, hour)`` one row of :attr:`columns`, a
    :class:`SegmentLossParams` whose fields are arrays, filled lazily by
    the one :meth:`PathSegment._derive_loss_params`.  A value's
    ``delay_ms()`` and ``jitter_term()`` are taken once, when it gets its id.

    Ids and rows are keyed by segment **value** and parameters are a pure
    function of ``(value, hour)``, so no event can stale a row: an
    impaired segment (:class:`DegradedSegment`) is a different value
    with its own id, and repairing the fault brings back the healthy
    value and its old rows.
    """

    _DTYPES = (np.int8, np.bool_) + (np.float64,) * (len(SegmentLossParams._fields) - 2)

    def __init__(self) -> None:
        self._canonical: dict[tuple, PathSegment] = {}
        #: id -> the canonical segment of that value.
        self.segments: list[PathSegment] = []
        #: id -> that value's ``delay_ms()`` and ``jitter_term()``.
        self.delay_ms: list[float] = []
        self.jitter_term: list[float] = []
        self._row_at: dict[float, dict[int, int]] = {}  # hour -> id -> row
        # Row 0 is the all-zero padding row.
        self._columns = SegmentLossParams(*(np.zeros(1, dtype) for dtype in self._DTYPES))
        self._unwritten: list[tuple] = []  # rows handed out, not yet in the arrays

    def intern(
        self,
        kind: SegmentKind,
        start: GeoPoint,
        end: GeoPoint,
        as_type: ASType | None = None,
        owner_type: ASType | None = None,
        label: str = "",
    ) -> PathSegment:
        """The one shared :class:`PathSegment` of this value."""
        value = (kind, start, end, as_type, owner_type, label)
        segment = self._canonical.get(value)
        if segment is None:
            segment = self._register(value, PathSegment(*value))
        return segment

    def segment_id(self, segment: PathSegment) -> int:
        """``segment``'s id: equal for equal values, cached on the object."""
        sid = segment._sid
        if sid < 0:
            # A DegradedSegment's value is two fields longer, so it can
            # never collide with its healthy twin's.
            value = segment._value()
            canonical = self._canonical.get(value)
            if canonical is None:
                canonical = self._register(value, segment)
            sid = canonical._sid
            object.__setattr__(segment, "_sid", sid)
        return sid

    def _register(self, value: tuple, segment: PathSegment) -> PathSegment:
        object.__setattr__(segment, "_sid", len(self.segments))
        self.segments.append(segment)
        self.delay_ms.append(segment.delay_ms())
        self.jitter_term.append(segment.jitter_term())
        self._canonical[value] = segment
        return segment

    def rows(self, sids: tuple[int, ...], hour_cet: float) -> list[int]:
        """The parameter-row index of each id at ``hour_cet``."""
        at_hour = self._row_at.get(hour_cet)
        if at_hour is None:
            at_hour = self._row_at[hour_cet] = {}
        try:
            return [at_hour[sid] for sid in sids]
        except KeyError:  # first sight of some (id, hour); real rows are >= 1
            return [
                at_hour.get(sid) or self._add_row(at_hour, sid, hour_cet) for sid in sids
            ]

    def _add_row(self, at_hour: dict[int, int], sid: int, hour_cet: float) -> int:
        params = self.segments[sid]._derive_loss_params(hour_cet)
        row = at_hour[sid] = len(self._columns.kind) + len(self._unwritten)
        self._unwritten.append((KIND_CODE[params.kind], *params[1:]))
        return row

    @property
    def columns(self) -> SegmentLossParams:
        """The parameter rows as a :class:`SegmentLossParams` of arrays."""
        if self._unwritten:  # one block append per batch of new rows
            self._columns = SegmentLossParams(
                *(
                    np.concatenate((column, np.array(values, dtype=column.dtype)))
                    for column, values in zip(self._columns, zip(*self._unwritten))
                )
            )
            self._unwritten.clear()
        return self._columns


#: The process's table (worker processes each fill their own).
LOSS_TABLE = SegmentLossTable()
intern_segment = LOSS_TABLE.intern


def degrade_segment(
    segment: PathSegment, *, extra_loss: float = 0.0, extra_delay_ms: float = 0.0
) -> DegradedSegment:
    """A copy of ``segment`` with an impairment stacked on top.

    The one stacking rule: impairments already on ``segment`` are kept —
    delays add, losses add up to the simulator's 0.95 ceiling.
    """
    return DegradedSegment(
        kind=segment.kind,
        start=segment.start,
        end=segment.end,
        as_type=segment.as_type,
        owner_type=segment.owner_type,
        label=segment.label,
        extra_loss=min(segment.extra_loss + extra_loss, 0.95),
        extra_delay_ms=segment.extra_delay_ms + extra_delay_ms,
    )


#: One-way GEO bounce: ~35 786 km up + down at light speed in vacuum plus
#: gateway processing — the ~270 ms that makes satellite last miles the
#: worst case for interactive video ("Watching Stars in Pixels").
GEO_SATELLITE_DELAY_MS = 270.0

#: Constant loss from the shaper/PEP a consumer GEO service runs at the
#: gateway: bursty drops under traffic shaping, folded to a flat rate.
GEO_SHAPING_LOSS = 0.012


def satellite_segment(
    segment: PathSegment,
    *,
    one_way_delay_ms: float = GEO_SATELLITE_DELAY_MS,
    shaping_loss: float = GEO_SHAPING_LOSS,
) -> DegradedSegment:
    """``segment``'s last mile re-homed onto a GEO satellite service.

    The terrestrial access segment keeps its endpoints and stochastic
    loss model (the gateway still reaches the PoP over ground
    infrastructure) and gains the satellite hop's constant one-way delay
    plus the traffic shaper's constant loss, stacked per
    :func:`degrade_segment`.
    """
    degraded = degrade_segment(
        segment, extra_loss=shaping_loss, extra_delay_ms=one_way_delay_ms
    )
    label = f"{segment.label}+geo-sat" if segment.label else "geo-sat"
    return replace(degraded, label=label)
