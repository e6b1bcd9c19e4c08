"""Typed fault events on a deterministic simulated timeline.

The subsystem is a discrete-event perturbation layer.  A *fault timeline*
is a time-sorted tuple of :class:`FaultEvent` objects (circuit down/up,
PoP failure/restore, eBGP session flap, transit-path degradation) — the
one representation ``ScenarioSpec.faults``, ``Drill.events`` and the
failover bench share, with :func:`events_to_json` /
:func:`events_from_json` as its wire format.  A :class:`SimulatedClock`
tracks simulated seconds (never wall time), so replaying the same
timeline produces the identical event log.

Every event validates its fields on construction (:data:`FIELD_RULES`),
so hostile JSON ends in a ``ValueError`` that names the field instead of
an event that fails later.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from typing import Callable, Iterable

from repro.geo.regions import WorldRegion


def is_int(value: object) -> bool:
    """A JSON integer: an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value: object) -> bool:
    """A finite JSON number: an ``int`` or ``float`` that is not a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_name(value: object) -> bool:
    return isinstance(value, str) and bool(value)


_REGION_NAMES = tuple(region.value for region in WorldRegion)

#: Field name -> (what a valid value is, its test), for every event field.
FIELD_RULES: dict[str, tuple[str, Callable[[object], bool]]] = {
    "time_s": ("a finite number >= 0", lambda v: is_real(v) and v >= 0),
    "a": ("a non-empty string", _is_name),
    "b": ("a non-empty string", _is_name),
    "pop": ("a non-empty string", _is_name),
    "asn": ("an int >= 0", lambda v: is_int(v) and v >= 0),
    "router_id": ("null or a non-empty string", lambda v: v is None or _is_name(v)),
    "regions": (
        f"two WorldRegion values {list(_REGION_NAMES)}",
        lambda v: isinstance(v, tuple)
        and len(v) == 2
        and all(isinstance(r, str) and r in _REGION_NAMES for r in v),
    ),
    "extra_loss": ("a number in [0, 1)", lambda v: is_real(v) and 0 <= v < 1),
    "extra_delay_ms": ("a finite number >= 0", lambda v: is_real(v) and v >= 0),
}


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """Base class: something happens at ``time_s`` simulated seconds."""

    time_s: float

    def __post_init__(self) -> None:
        for f in dataclass_fields(self):
            rule, valid = FIELD_RULES[f.name]
            value = getattr(self, f.name)
            if not valid(value):
                raise ValueError(
                    f"{type(self).__name__}.{f.name} must be {rule}, got {value!r}"
                )

    def describe(self) -> str:
        """One event-log line; subclasses refine the tail."""
        return f"t={self.time_s:8.1f}s  {self._verb()}"

    def _verb(self) -> str:
        return type(self).__name__


@dataclass(frozen=True, slots=True)
class LinkDown(FaultEvent):
    """An inter-PoP L2 circuit fails (fibre cut, provider outage)."""

    a: str
    b: str

    def _verb(self) -> str:
        return f"link-down   {self.a}=={self.b}"


@dataclass(frozen=True, slots=True)
class LinkUp(FaultEvent):
    """A previously failed circuit is repaired."""

    a: str
    b: str

    def _verb(self) -> str:
        return f"link-up     {self.a}=={self.b}"


@dataclass(frozen=True, slots=True)
class PopDown(FaultEvent):
    """A whole PoP fails: circuits, eBGP sessions, and originations."""

    pop: str

    def _verb(self) -> str:
        return f"pop-down    {self.pop}"


@dataclass(frozen=True, slots=True)
class PopUp(FaultEvent):
    """A failed PoP is restored."""

    pop: str

    def _verb(self) -> str:
        return f"pop-up      {self.pop}"


@dataclass(frozen=True, slots=True)
class SessionDown(FaultEvent):
    """eBGP sessions to neighbour ``asn`` fail.

    ``router_id`` limits the failure to one session endpoint; ``None``
    takes down every session VNS has with that neighbour (the neighbour's
    side failed).
    """

    asn: int
    router_id: str | None = None

    def _verb(self) -> str:
        where = self.router_id or "all-sessions"
        return f"ebgp-down   AS{self.asn}@{where}"


@dataclass(frozen=True, slots=True)
class SessionUp(FaultEvent):
    """Failed eBGP sessions to ``asn`` re-establish (table replay)."""

    asn: int
    router_id: str | None = None

    def _verb(self) -> str:
        where = self.router_id or "all-sessions"
        return f"ebgp-up     AS{self.asn}@{where}"


@dataclass(frozen=True, slots=True)
class TransitDegrade(FaultEvent):
    """Loss/latency surge on Internet transit segments of one corridor.

    ``regions`` are :class:`~repro.geo.regions.WorldRegion` values (the
    two endpoint regions of the affected corridor; equal values mean an
    intra-region surge).  Purely a data-plane fault: BGP keeps the path,
    packets suffer — the failure mode VNS's circuits exist to avoid.
    """

    regions: tuple[str, str]
    extra_loss: float = 0.02
    extra_delay_ms: float = 0.0

    def _verb(self) -> str:
        return (
            f"degrade     {self.regions[0]}~{self.regions[1]} "
            f"(+{self.extra_loss * 100:.1f}% loss, +{self.extra_delay_ms:.0f} ms)"
        )


@dataclass(frozen=True, slots=True)
class TransitRestore(FaultEvent):
    """The corridor degradation clears."""

    regions: tuple[str, str]

    def _verb(self) -> str:
        return f"restore     {self.regions[0]}~{self.regions[1]}"


#: Which kinds start a control-plane fault, and which kinds end a fault —
#: the one classification the injector and the drill runner both read.
CONTROL_FAULTS = (LinkDown, PopDown, SessionDown)
CONTROL_REPAIRS = (LinkUp, PopUp, SessionUp)
REPAIR_TYPES = (*CONTROL_REPAIRS, TransitRestore)

#: Every concrete event type, keyed by class name — the wire-format tag.
EVENT_TYPES: dict[str, type[FaultEvent]] = {
    cls.__name__: cls for cls in (*CONTROL_FAULTS, TransitDegrade, *REPAIR_TYPES)
}


def event_to_dict(event: FaultEvent) -> dict:
    """A JSON-ready payload: ``{"type": <class name>, <fields...>}``.

    Tuples become lists (JSON has no tuple); :func:`event_from_dict`
    restores them, so the round trip is exact — applying a round-tripped
    event and its inverse leaves a service byte-for-byte as found.
    """
    name = type(event).__name__
    if EVENT_TYPES.get(name) is not type(event):
        raise TypeError(
            f"cannot serialise {name}: not a registered fault event "
            f"(known: {sorted(EVENT_TYPES)})"
        )
    payload: dict = {"type": name}
    for f in dataclass_fields(event):
        value = getattr(event, f.name)
        payload[f.name] = list(value) if isinstance(value, tuple) else value
    return payload


def event_from_dict(payload: dict) -> FaultEvent:
    """The inverse of :func:`event_to_dict`.

    Raises
    ------
    ValueError
        For a missing/unknown ``type`` tag or unknown fields — the
        message names the offender and lists what is accepted.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"fault event payload must be a JSON object, got {type(payload).__name__}"
        )
    data = dict(payload)
    name = data.pop("type", None)
    if name is None:
        raise ValueError(
            f"fault event payload is missing its 'type' field "
            f"(known types: {sorted(EVENT_TYPES)})"
        )
    cls = EVENT_TYPES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ValueError(
            f"unknown fault event type {name!r} (known: {sorted(EVENT_TYPES)})"
        )
    known = {f.name for f in dataclass_fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown field(s) {unknown} for {name} (accepted: {sorted(known)})"
        )
    kwargs = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in data.items()
    }
    try:
        return cls(**kwargs)
    except TypeError as exc:  # missing required fields
        raise ValueError(f"bad {name} payload: {exc}") from None


def events_to_json(events: Iterable[FaultEvent]) -> str:
    """A byte-stable JSON array of events (sorted keys, fixed order)."""
    return json.dumps(
        [event_to_dict(event) for event in events], indent=2, sort_keys=True
    )


def events_from_json(text: str) -> tuple[FaultEvent, ...]:
    """Parse a JSON array written by :func:`events_to_json`."""
    payload = json.loads(text)
    if not isinstance(payload, list):
        raise ValueError(
            f"fault event JSON must be an array, got {type(payload).__name__}"
        )
    return tuple(event_from_dict(item) for item in payload)


@dataclass(slots=True)
class SimulatedClock:
    """Simulated seconds; strictly monotonic, never wall time."""

    now_s: float = 0.0

    def advance_to(self, time_s: float) -> None:
        """Move the clock forward.

        Raises
        ------
        ValueError
            If ``time_s`` is in the past.
        """
        if time_s < self.now_s:
            raise ValueError(
                f"clock cannot go backwards ({time_s} < {self.now_s})"
            )
        self.now_s = time_s
