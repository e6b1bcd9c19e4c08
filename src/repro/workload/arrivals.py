"""Poisson call arrivals, diurnally modulated per caller region.

Conferencing demand follows the clock: the paper's traffic peaks in each
region's business hours (its Fig. 12 loss cycles are driven by the same
local rhythms).  Arrivals here are an inhomogeneous Poisson process —
per caller region, the hourly rate is the regional mean scaled by a
:class:`~repro.dataplane.diurnal.DiurnalProfile` evaluated in that
region's local time, normalised so the daily volume matches the
configured calls-per-user-day exactly in expectation.

Callees are drawn from a Zipf popularity ranking over the whole
population (conference bridges and heavy users attract a dispropor-
tionate share of calls), which is also what gives the campaign engine's
``(entry_pop, dst_prefix)`` path cache its hit rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataplane.calibration import DIURNAL_REGION_AMPLITUDE
from repro.dataplane.diurnal import DiurnalProfile
from repro.geo.regions import WorldRegion
from repro.workload.population import User, UserPopulation

#: Call durations (seconds), quantised to whole 5 s slots so campaign
#: batches stay large; weights roughly follow conferencing session mixes
#: (many short 1:1 calls, a tail of long meetings).
DURATION_CHOICES_S: tuple[float, ...] = (60.0, 120.0, 300.0, 600.0)
DURATION_WEIGHTS: tuple[float, ...] = (0.35, 0.35, 0.2, 0.1)

#: Zipf exponent for callee popularity.
CALLEE_ZIPF_EXPONENT = 1.1


def call_rate_profile(region: WorldRegion) -> DiurnalProfile:
    """The diurnal shape of call demand in ``region``.

    Business hours dominate (it is a conferencing product), with a
    secondary evening bump; the swing amplitude reuses the calibrated
    regional diurnal amplitudes.
    """
    return DiurnalProfile(
        amplitude=DIURNAL_REGION_AMPLITUDE[region],
        business_weight=1.0,
        evening_weight=0.45,
        floor=0.25,
    )


@dataclass(frozen=True, slots=True)
class CallSpec:
    """One scheduled call: who, when, for how long, over what."""

    call_id: int
    caller: User
    callee: User
    day: int
    start_hour_cet: float
    duration_s: float
    multiparty: bool  #: relayed through the anycast TURN service


class CallArrivalProcess:
    """Generates :class:`CallSpec` sequences for a population.

    Parameters
    ----------
    population:
        The user base calls are drawn from (needs at least two users).
    calls_per_user_day:
        Mean calls placed per user per day (the Poisson intensity,
        before diurnal modulation).
    multiparty_fraction:
        Probability a call is a TURN-relayed multiparty leg.
    seed:
        Drives every draw; the same seed reproduces the same campaign.

    Raises
    ------
    ValueError
        For a population of fewer than two users, a non-positive rate,
        or a multiparty fraction outside [0, 1].
    """

    def __init__(
        self,
        population: UserPopulation,
        *,
        calls_per_user_day: float = 4.0,
        multiparty_fraction: float = 0.15,
        seed: int = 0,
    ) -> None:
        if len(population) < 2:
            raise ValueError("arrivals need at least two users (caller and callee)")
        if calls_per_user_day <= 0:
            raise ValueError(
                f"calls_per_user_day must be positive, got {calls_per_user_day!r}"
            )
        if not 0.0 <= multiparty_fraction <= 1.0:
            raise ValueError(
                f"multiparty_fraction must be in [0, 1], got {multiparty_fraction!r}"
            )
        self.population = population
        self.calls_per_user_day = calls_per_user_day
        self.multiparty_fraction = multiparty_fraction
        self.seed = seed
        # Zipf callee popularity over a seeded shuffle of the users, so
        # rank is independent of sampling order.
        rng = np.random.default_rng(seed ^ 0x5EEDC0DE)
        order = rng.permutation(len(population.users))
        ranks = np.empty(len(order), dtype=float)
        ranks[order] = np.arange(1, len(order) + 1)
        weights = ranks ** -CALLEE_ZIPF_EXPONENT
        self._callee_probs = weights / weights.sum()

    # ------------------------------------------------------------------ #

    def _hourly_rates(self, region: WorldRegion, n_users: int) -> np.ndarray:
        """Expected calls per CET hour bin for one region's users.

        Normalised so the 24-bin sum equals ``n_users *
        calls_per_user_day`` exactly — the diurnal profile shapes the
        day, it does not change the volume.
        """
        profile = call_rate_profile(region)
        factors = np.array(
            [profile.factor_cet(hour + 0.5, region) for hour in range(24)]
        )
        daily = n_users * self.calls_per_user_day
        return daily * factors / factors.sum()

    def generate(self, days: int = 1) -> list[CallSpec]:
        """All calls of a ``days``-long campaign, ordered by start time.

        Raises
        ------
        ValueError
            For a ``days`` that is not a positive int (a ``bool`` is not).
        """
        if isinstance(days, bool) or not isinstance(days, int) or days <= 0:
            raise ValueError(f"days must be a positive int, got {days!r}")
        rng = np.random.default_rng(self.seed)

        regions = sorted(self.population.by_region(), key=lambda r: r.value)
        starts = [np.empty(0)]  # absolute start hours, one array per hour bin
        callers: list[User] = []
        for region in regions:
            users = self.population.users_in_region(region)
            rates = self._hourly_rates(region, len(users))
            for day in range(days):
                for hour in range(24):
                    n_calls = int(rng.poisson(rates[hour]))
                    if n_calls == 0:
                        continue
                    starts.append(day * 24.0 + hour + rng.random(n_calls))
                    picks = rng.integers(0, len(users), size=n_calls)
                    callers.extend([users[index] for index in picks.tolist()])

        start_hours = np.concatenate(starts)
        order = np.argsort(start_hours, kind="stable")  # equal starts keep draw order
        callers = [callers[index] for index in order.tolist()]
        callees, durations, multiparty = self._draw_calls(rng, callers)
        return [
            CallSpec(
                call_id=call_id,
                caller=caller,
                callee=callee,
                day=int(start // 24.0),
                start_hour_cet=start % 24.0,
                duration_s=duration,
                multiparty=relayed,
            )
            for call_id, (start, caller, callee, duration, relayed) in enumerate(
                zip(start_hours[order].tolist(), callers, callees, durations, multiparty)
            )
        ]

    def _draw_calls(
        self, rng: np.random.Generator, callers: list[User]
    ) -> tuple[list[User], list[float], list[bool]]:
        """Callee, duration and multiparty flag of each call from ``callers``.

        Each call consumes ``rng``'s uniform stream in a fixed order: one
        uniform per Zipf callee draw (a self-call is rejected and draws
        again), then one for the duration, then one for the multiparty
        flag.  The stream is drawn in ``rng.random`` blocks, each sized
        past what the calls left need and refilled if rejections exhaust
        it (a draw past the last call is never read).  Uniforms are
        inverted as ``Generator.choice(p=...)`` inverts its one draw, so
        the picks are the per-call draws exactly; the per-call step only
        walks an index over the callee picks.
        """
        users = self.population.users
        user_ids = np.array([user.user_id for user in users])
        callee_cdf = _choice_cdf(self._callee_probs)
        blocks = [np.empty(0)]
        callee_id: list[int] = []  # the callee each uniform so far would pick
        positions: list[int] = []  # each call's accepted callee uniform
        pos = 0
        for calls_left, caller in zip(range(len(callers), 0, -1), callers):
            while True:
                if pos + 3 > len(callee_id):
                    blocks.append(rng.random(4 * calls_left + 16))
                    picks = callee_cdf.searchsorted(blocks[-1], side="right")
                    callee_id += user_ids[picks].tolist()
                if callee_id[pos] != caller.user_id:
                    break
                pos += 1
            positions.append(pos)
            pos += 3
        stream = np.concatenate(blocks)
        at = np.array(positions, dtype=np.intp)
        callees = [
            users[index]
            for index in callee_cdf.searchsorted(stream[at], side="right").tolist()
        ]
        durations = np.array(DURATION_CHOICES_S)[
            _DURATION_CDF.searchsorted(stream[at + 1], side="right")
        ].tolist()
        multiparty = (stream[at + 2] < self.multiparty_fraction).tolist()
        return callees, durations, multiparty


def _choice_cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(p=probs)`` inverts a uniform with.

    ``choice`` draws one ``random()`` and returns
    ``cdf.searchsorted(u, side="right")`` over exactly this array.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


_DURATION_CDF = _choice_cdf(np.array(DURATION_WEIGHTS) / sum(DURATION_WEIGHTS))

#: Every flash-crowd call is a ten-minute multiparty leg.
WEBINAR_CALL_S = 600.0


def flash_crowd_calls(
    population: UserPopulation,
    *,
    attendees: int,
    hosts: int = 2,
    start_hour_cet: float = 18.0,
    window_h: float = 0.5,
    seed: int = 0,
    first_call_id: int = 0,
) -> list[CallSpec]:
    """A global-webinar flash crowd: ``attendees`` calls slam a few hosts.

    The anti-diurnal workload: instead of demand spread over each
    region's business day, every attendee dials one of ``hosts`` popular
    users inside a single ``window_h``-hour window on day 0, concentrating
    load on the hosts' corridors and, every call being a multiparty leg of
    :data:`WEBINAR_CALL_S`, the entry PoPs' TURN relays.  Callers are drawn
    uniformly world-wide — a webinar audience ignores local time.

    Deterministic in ``seed``; returned calls are ordered by start time
    with sequential ids from ``first_call_id`` (pass the length of an
    already generated call list to overlay the crowd on top of it).

    Raises
    ------
    ValueError
        For a non-positive attendee count or window, or a host count
        that is not in ``[1, len(population) - 1]``.
    """
    if attendees <= 0:
        raise ValueError(f"attendees must be positive, got {attendees!r}")
    if not 1 <= hosts < len(population):
        raise ValueError(
            f"hosts must be in [1, {len(population) - 1}], got {hosts!r}"
        )
    if window_h <= 0:
        raise ValueError(f"window_h must be positive, got {window_h!r}")
    rng = np.random.default_rng(seed ^ 0xF1A5C0DE)
    users = population.users
    host_indices = rng.choice(len(users), size=hosts, replace=False)
    host_set = {int(index) for index in host_indices}
    offsets = np.sort(rng.random(attendees)) * window_h
    caller_indices = rng.integers(0, len(users), size=attendees)
    host_picks = rng.integers(0, hosts, size=attendees)
    specs: list[CallSpec] = []
    for slot, (offset, caller_index) in enumerate(zip(offsets, caller_indices)):
        callee = users[int(host_indices[int(host_picks[slot])])]
        caller_index = int(caller_index)
        while caller_index in host_set:  # hosts don't dial in
            caller_index = (caller_index + 1) % len(users)
        absolute = start_hour_cet + float(offset)
        specs.append(
            CallSpec(
                call_id=first_call_id + slot,
                caller=users[caller_index],
                callee=callee,
                day=int(absolute // 24.0),
                start_hour_cet=absolute % 24.0,
                duration_s=WEBINAR_CALL_S,
                multiparty=True,
            )
        )
    return specs
