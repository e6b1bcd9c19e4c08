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


class SegmentLossParams(NamedTuple):
    """The resolved loss-distribution parameters of one segment at one hour.

    Everything the stochastic loss model needs, with geography, AS
    classes and diurnal profiles already folded in.  Produced by
    :meth:`PathSegment._derive_loss_params`; the scalar samplers read one
    directly, the columnar kernel (:mod:`repro.dataplane.columnar`)
    reads the same fields as *columns*
    (:meth:`SegmentLossTable.param_columns`, one row per distinct
    ``(segment, hour)`` of a kernel call) and samples the same
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
    depend on the hour — kind, impairment, geography, corridor spread,
    rate multipliers, the static congestion mean, and the access
    base-loss table entry — resolved once per segment id, when the id is
    handed out, into the columns of :attr:`SegmentLossTable.static` (one
    list per field, indexed by id; :meth:`SegmentLossTable.static_arrays`
    is the same columns as arrays).  Enum members are stored as codes
    (:data:`KIND_CODE`, positions in :data:`_AS_TYPES` and
    :data:`_REGIONS`), so numpy can gather every field.  The
    hour-dependent remainder is a couple of memoised diurnal-factor
    lookups and scalar arithmetic.
    """

    kind: int
    long_haul: bool
    extra_loss: float
    as_type: int  #: access type (``as_type or EC``) as a position in _AS_TYPES
    end_region: int  #: a position in _REGIONS
    anchor: int  #: the more congested end's region, a position in _REGIONS
    congestion_static: float
    corridor_prob: float
    rate_mult: float
    access_base: float


_AS_TYPES = tuple(ASType)
_REGIONS = tuple(WorldRegion)
_STATIC_DTYPES = _SegmentStatic(
    np.int8, np.bool_, np.float64, np.intp, np.intp, np.intp, *(np.float64,) * 4
)


def _segment_static(segment: "PathSegment") -> _SegmentStatic:
    """The hour-independent constants of ``segment``."""
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
        kind=KIND_CODE[segment.kind],
        long_haul=segment.distance_km > cal.LONG_HAUL_KM,
        extra_loss=segment.extra_loss,
        as_type=_AS_TYPES.index(as_type),
        end_region=_REGIONS.index(end_region),
        anchor=_REGIONS.index(anchor),
        congestion_static=static,
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
    #: value hash, precomputed once — :data:`LOSS_TABLE` interns segments
    #: by value, and the generated dataclass hash (two points plus three
    #: enum members, all Python-level) dominated those lookups.
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
        return LOSS_TABLE.distance_km[LOSS_TABLE.segment_id(self)]

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
        """One-way delay contribution, including a per-hop constant (and
        a :class:`DegradedSegment`'s extra delay)."""
        return LOSS_TABLE.delay_ms[LOSS_TABLE.segment_id(self)]

    def jitter_term(self) -> float:
        """This segment's congestion term in its path's jitter scale
        (:func:`repro.dataplane.path.ids_view`)."""
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
        directly; the columnar kernel derives the same fields for many
        ``(segment, hour)`` pairs at once with the same operations in the
        same order (:meth:`SegmentLossTable.param_columns`).  Geography
        and AS-class constants are the id's entries in
        :attr:`SegmentLossTable.static`, so one call is a couple of
        diurnal-factor lookups and scalar arithmetic.
        """
        extra = self.extra_loss
        sid = LOSS_TABLE.segment_id(self)
        static = LOSS_TABLE.static
        long_haul = static.long_haul[sid]
        if self.kind is SegmentKind.ACCESS:
            as_type = self.as_type or ASType.EC
            weight = cal.ACCESS_DIURNAL_WEIGHT[as_type]
            diurnal = _access_diurnal(_REGIONS[static.end_region[sid]], as_type, hour_cet)
            factor = (1.0 - weight) + weight * diurnal
            occurrence = min(0.9, cal.ACCESS_OCCURRENCE[as_type] * factor)
            return SegmentLossParams(
                kind=self.kind,
                long_haul=long_haul,
                extra_loss=extra,
                occurrence=occurrence,
                mean_rate=static.access_base[sid] * factor / max(occurrence, 1e-9),
            )
        if self.kind is SegmentKind.TRANSIT:
            diurnal = _transit_diurnal(_REGIONS[static.anchor[sid]], hour_cet)
            congestion = static.congestion_static[sid] * diurnal
            return SegmentLossParams(
                kind=self.kind,
                long_haul=long_haul,
                extra_loss=extra,
                spread_prob=(
                    min(0.95, static.corridor_prob[sid] * diurnal) if long_haul else 0.0
                ),
                rate_mult=static.rate_mult[sid] if long_haul else 0.0,
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

    def sample_slot_rates(
        self,
        n_slots: int,
        hour_cet: float,
        rng: np.random.Generator,
        duration_s: float | None = None,
    ) -> np.ndarray:
        base = PathSegment.sample_slot_rates(self, n_slots, hour_cet, rng, duration_s)
        return np.clip(base + self.extra_loss, 0.0, 0.95)


#: Integer code of each kind in the ``kind`` columns of the per-id
#: constants and of the kernel's parameters (0 is the padding row: no
#: segment at that layer).
KIND_CODE: dict[SegmentKind, int] = {
    kind: code for code, kind in enumerate(SegmentKind, start=1)
}

#: Integer code of each AS type in :data:`LOSS_TABLE`'s keys (0: none).
_TYPE_CODE: dict[ASType | None, int] = {
    None: 0,
    **{as_type: code for code, as_type in enumerate(ASType, start=1)},
}

#: The access calibration per AS type, by position in :data:`_AS_TYPES`.
_ACCESS_WEIGHT = np.array([cal.ACCESS_DIURNAL_WEIGHT[t] for t in _AS_TYPES], dtype=float)
_ACCESS_OCCURRENCE = np.array([cal.ACCESS_OCCURRENCE[t] for t in _AS_TYPES], dtype=float)


class SegmentLossTable:
    """Segment ids and their hour-independent constants, interned for the process.

    Campaign paths are assembled from a small set of segment *values*
    (a few thousand) over and over (tens of thousands of constructions
    a day).  This table gives every distinct value a small integer id —
    :meth:`intern` where paths are assembled, :meth:`segment_id` for a
    segment built any other way.  A value's distance, delay, jitter term
    and hour-independent loss constants (:attr:`static`) are derived
    once, when it gets its id, into per-id lists: the segment methods
    read them there, so no memo holds a key object per segment.  The
    columnar kernel gathers the constants as arrays
    (:meth:`static_arrays`) and derives each ``(id, hour)`` pair's
    parameters from them per call (:meth:`param_columns`); nothing is
    kept per hour.

    Ids are keyed by segment **value** and parameters are a pure
    function of ``(value, hour)``, so no event can stale an entry: an
    impaired segment (:class:`DegradedSegment`) is a different value
    with its own id, and repairing the fault brings back the healthy
    value and its old id.
    """

    def __init__(self) -> None:
        #: flat value key (:meth:`_key`) -> the canonical segment.
        self._canonical: dict[tuple, PathSegment] = {}
        #: id -> the canonical segment of that value.
        self.segments: list[PathSegment] = []
        #: id -> that value's great-circle length, one-way delay (its
        #: impairment included) and ``jitter_term()``.
        self.distance_km: list[float] = []
        self.delay_ms: list[float] = []
        self.jitter_term: list[float] = []
        #: id -> that value's hour-independent loss constants, a column per field.
        self.static = _SegmentStatic(*([] for _ in _SegmentStatic._fields))
        #: :attr:`static` as arrays, for the ids handed out when last asked for.
        self._static_arrays = _SegmentStatic(
            *(np.zeros(0, dtype) for dtype in _STATIC_DTYPES)
        )

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
        key = self._key(kind, start, end, as_type, owner_type, label)
        segment = self._canonical.get(key)
        if segment is None:
            segment = self._register(
                key, PathSegment(kind, start, end, as_type, owner_type, label)
            )
        return segment

    def segment_id(self, segment: PathSegment) -> int:
        """``segment``'s id: equal for equal values, cached on the object."""
        sid = segment._sid
        if sid < 0:
            # A DegradedSegment's value is two fields longer, so its key
            # (the atoms of the first six, then its two floats) can never
            # collide with its healthy twin's.
            value = segment._value()
            key = self._key(*value[:6]) + value[6:]
            canonical = self._canonical.get(key)
            if canonical is None:
                canonical = self._register(key, segment)
            sid = canonical._sid
            object.__setattr__(segment, "_sid", sid)
        return sid

    @staticmethod
    def _key(
        kind: SegmentKind,
        start: GeoPoint,
        end: GeoPoint,
        as_type: ASType | None,
        owner_type: ASType | None,
        label: str,
    ) -> tuple:
        """A segment value as a tuple of atoms (codes, coordinates, label).

        Equal exactly when the values are equal, and holding no object
        the collector tracks, so the collector untracks the key itself:
        a table of thousands of keys adds nothing to a full pass.
        """
        return (
            KIND_CODE[kind],
            start.lat,
            start.lon,
            end.lat,
            end.lon,
            _TYPE_CODE[as_type],
            _TYPE_CODE[owner_type],
            label,
        )

    def _register(self, key: tuple, segment: PathSegment) -> PathSegment:
        object.__setattr__(segment, "_sid", len(self.segments))
        self.segments.append(segment)
        distance = great_circle_km(segment.start, segment.end)
        self.distance_km.append(distance)
        inflation = _PATH_INFLATION[segment.kind]
        self.delay_ms.append(
            propagation_delay_ms(distance, inflation)
            + cal.PER_HOP_DELAY_MS
            + segment.extra_delay_ms
        )
        self.jitter_term.append(segment.jitter_term())
        for column, constant in zip(self.static, _segment_static(segment)):
            column.append(constant)
        self._canonical[key] = segment
        return segment

    def static_arrays(self) -> _SegmentStatic:
        """:attr:`static` as one array per field, indexed by id."""
        arrays = self._static_arrays
        known = arrays.kind.size
        if known < len(self.segments):  # append the ids handed out since
            arrays = self._static_arrays = _SegmentStatic(
                *(
                    np.concatenate((array, np.array(column[known:], array.dtype)))
                    for array, column in zip(arrays, self.static)
                )
            )
        return arrays

    def param_columns(
        self, sids: np.ndarray, hour_of: np.ndarray, hours: np.ndarray
    ) -> SegmentLossParams:
        """:meth:`PathSegment._derive_loss_params` of many pairs, as columns.

        Pair ``i`` is segment id ``sids[i]`` at ``hours[hour_of[i]]``; field
        ``f`` of the result holds each pair's ``f`` (``kind`` as its
        :data:`KIND_CODE`).  The same IEEE operations in the same order as
        the scalar derivation, on the ids' :meth:`static_arrays` and
        diurnal factors taken from ``(hour, region[, AS type])`` tables
        filled through the scalar derivation's own memoised lookups, so
        every field equals the scalar one bit for bit.
        """
        static = self.static_arrays()
        hour_list = hours.tolist()
        access_diurnal = np.array(
            [
                _access_diurnal(region, as_type, hour)
                for hour in hour_list
                for region in _REGIONS
                for as_type in _AS_TYPES
            ]
        ).reshape(len(hour_list), len(_REGIONS), len(_AS_TYPES))
        transit_diurnal = np.array(
            [_transit_diurnal(region, hour) for hour in hour_list for region in _REGIONS]
        ).reshape(len(hour_list), len(_REGIONS))

        kind = static.kind[sids]
        long_haul = static.long_haul[sids]
        access = kind == KIND_CODE[SegmentKind.ACCESS]
        transit = kind == KIND_CODE[SegmentKind.TRANSIT]
        vns = kind == KIND_CODE[SegmentKind.VNS_L2]

        as_type = static.as_type[sids]
        weight = _ACCESS_WEIGHT[as_type]
        diurnal = access_diurnal[hour_of, static.end_region[sids], as_type]
        factor = (1.0 - weight) + weight * diurnal
        occurrence = np.minimum(0.9, _ACCESS_OCCURRENCE[as_type] * factor)
        mean_rate = static.access_base[sids] * factor / np.maximum(occurrence, 1e-9)

        diurnal = transit_diurnal[hour_of, static.anchor[sids]]
        congestion = static.congestion_static[sids] * diurnal
        transit_spread = np.where(
            long_haul, np.minimum(0.95, static.corridor_prob[sids] * diurnal), 0.0
        )
        vns_spread = np.where(
            long_haul, cal.VNS_L2_LONG_SPREAD_PROB, cal.VNS_L2_INTRA_SPREAD_PROB
        )
        lo = np.where(long_haul, cal.VNS_L2_LONG_RATE[0], cal.VNS_L2_INTRA_RATE[0])
        hi = np.where(long_haul, cal.VNS_L2_LONG_RATE[1], cal.VNS_L2_INTRA_RATE[1])
        return SegmentLossParams(
            kind=kind,
            long_haul=long_haul,
            extra_loss=static.extra_loss[sids],
            occurrence=np.where(access, occurrence, 0.0),
            mean_rate=np.where(access, mean_rate, 0.0),
            spread_prob=np.where(transit, transit_spread, np.where(vns, vns_spread, 0.0)),
            rate_mult=np.where(transit & long_haul, static.rate_mult[sids], 0.0),
            burst_scale_120s=np.where(
                transit, np.where(long_haul, congestion, 0.3 * congestion), 0.0
            ),
            uniform_lo=np.where(vns, lo, 0.0),
            uniform_hi=np.where(vns, hi, 0.0),
        )


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
