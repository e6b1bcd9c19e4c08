"""Declarative, JSON-serialisable scenario specifications.

The ROADMAP's "declarative scenario worlds": instead of composing
worlds, fault timelines, and workloads in Python per experiment, a
scenario is two value objects —

* :class:`WorldSpec` — which world to build (scale, seed, GeoIP error
  class) and how to restrict/strain it (PoPs taken down at load time,
  per-entry-PoP capacity in erlangs);
* :class:`ScenarioSpec` — what happens on that world: the arrival
  profile (diurnal day or flash-crowd webinar), a fault timeline of
  :mod:`repro.faults.events`, an optional steering policy by registry
  name, and the last-mile model (terrestrial or GEO satellite).

Both are frozen, hashable, and round-trip through JSON **byte-stably**:
``to_json(from_json(text)) == to_json(spec)`` for any spec, because
serialisation sorts keys and Python floats round-trip exactly through
JSON.  ``from_json`` is schema-validating — unknown fields, unknown
enum values and values of the wrong type are rejected with a
``ValueError`` that names the offender and lists what is accepted, so a
typo in a committed spec file fails loudly instead of silently running
the default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from typing import Callable

from repro.dataplane.link import GEO_SATELLITE_DELAY_MS, GEO_SHAPING_LOSS
from repro.faults.events import FaultEvent, event_from_dict, event_to_dict, is_int, is_real
from repro.vns.pop import POPS

#: Accepted ``WorldSpec.scale`` values (mirrors ``WorldScale``).
WORLD_SCALES = ("small", "medium", "large")

#: Accepted ``ScenarioSpec.arrival_profile`` values.
ARRIVAL_PROFILES = ("diurnal", "flash_crowd")

#: Accepted ``ScenarioSpec.last_mile`` values.
LAST_MILE_MODELS = ("terrestrial", "geo_satellite")

#: Accepted ``ScenarioSpec.steering_policy`` values ("" = no steering;
#: the rest are ``repro.steering.make_policy`` registry names).
STEERING_POLICIES = ("", "always_vns", "threshold_offload", "cost_budgeted")

#: Valid PoP codes for ``pops_down`` / ``pop_capacity``.
POP_CODES: tuple[str, ...] = tuple(pop.code for pop in POPS)

#: ``pop_capacity`` key applying one capacity to every entry PoP.
CAPACITY_WILDCARD = "*"


def _require_object(cls: type, payload: object) -> dict:
    """Schema gate shared by both specs' ``from_dict``."""
    if not isinstance(payload, dict):
        raise ValueError(
            f"{cls.__name__} payload must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    known = sorted(f.name for f in dataclass_fields(cls))
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ValueError(
            f"unknown field(s) {unknown} for {cls.__name__} (accepted: {known})"
        )
    return dict(payload)


#: A spec field's annotation (up to any ``[``) -> (what a valid value
#: is, its test): ``int`` is an integer and ``float`` a finite number,
#: neither a ``bool``; a ``tuple`` field takes any array.
_KINDS: dict[str, tuple[str, Callable[[object], bool]]] = {
    "int": ("an int", is_int),
    "float": ("a finite number", is_real),
    "bool": ("a bool", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple": ("an array", lambda v: isinstance(v, (list, tuple))),
    "WorldSpec": ("a WorldSpec", lambda v: isinstance(v, WorldSpec)),
}


def _require_kinds(spec: object) -> None:
    """Every field of ``spec`` holds a value of its annotated kind."""
    for f in dataclass_fields(spec):
        rule, valid = _KINDS[f.type.partition("[")[0]]
        value = getattr(spec, f.name)
        if not valid(value):
            raise ValueError(
                f"{type(spec).__name__}.{f.name} must be {rule}, got {value!r}"
            )


def _require_enum(cls: type, field_name: str, value: str, accepted: tuple[str, ...]) -> None:
    if value not in accepted:
        raise ValueError(
            f"{cls.__name__}.{field_name} must be one of {list(accepted)}, "
            f"got {value!r}"
        )


@dataclass(frozen=True, slots=True)
class WorldSpec:
    """Which world a scenario runs on, declaratively.

    Parameters
    ----------
    scale / seed / geoip_errors:
        Passed to :func:`repro.experiments.common.build_world`.
    pops_down:
        PoP codes taken down (via :class:`~repro.faults.events.PopDown`
        through the real BGP machinery) before the campaign starts —
        a reduced-footprint deployment variant, with correct anycast
        re-catchment semantics.
    pop_capacity:
        ``(pop_code, capacity_erlangs)`` pairs; the wildcard code
        ``"*"`` applies to every entry PoP without an explicit entry.
        Entry PoPs whose offered load (concurrent-call erlangs computed
        from the call list) exceeds capacity are congested at simulate
        time — see ``repro.scenarios.loader.ScenarioPathModel``.
    """

    scale: str = "small"
    seed: int = 42
    geoip_errors: bool = False
    pops_down: tuple[str, ...] = ()
    pop_capacity: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        _require_kinds(self)
        for entry in self.pop_capacity:
            if not (
                isinstance(entry, (list, tuple))
                and len(entry) == 2
                and isinstance(entry[0], str)
                and is_real(entry[1])
            ):
                raise ValueError(
                    "WorldSpec.pop_capacity entries must be [pop, erlangs] "
                    f"pairs, got {entry!r}"
                )
        # Normalise list inputs (e.g. straight from JSON) to tuples so
        # the spec stays hashable however it was constructed.
        object.__setattr__(self, "pops_down", tuple(self.pops_down))
        object.__setattr__(
            self,
            "pop_capacity",
            tuple((pop, float(cap)) for pop, cap in self.pop_capacity),
        )
        _require_enum(WorldSpec, "scale", self.scale, WORLD_SCALES)
        if self.seed < 0:
            raise ValueError(f"WorldSpec.seed must be >= 0, got {self.seed!r}")
        for pop in self.pops_down:
            if pop not in POP_CODES:
                raise ValueError(
                    f"WorldSpec.pops_down: unknown PoP {pop!r} "
                    f"(known: {list(POP_CODES)})"
                )
        seen: set[str] = set()
        for pop, capacity in self.pop_capacity:
            if pop != CAPACITY_WILDCARD and pop not in POP_CODES:
                raise ValueError(
                    f"WorldSpec.pop_capacity: unknown PoP {pop!r} "
                    f"(known: {list(POP_CODES)} or {CAPACITY_WILDCARD!r})"
                )
            if pop in seen:
                raise ValueError(
                    f"WorldSpec.pop_capacity: duplicate entry for {pop!r}"
                )
            seen.add(pop)
            if capacity <= 0:
                raise ValueError(
                    f"WorldSpec.pop_capacity[{pop!r}] must be positive "
                    f"erlangs, got {capacity!r}"
                )

    def to_dict(self) -> dict:
        return {
            "scale": self.scale,
            "seed": self.seed,
            "geoip_errors": self.geoip_errors,
            "pops_down": list(self.pops_down),
            "pop_capacity": [[pop, cap] for pop, cap in self.pop_capacity],
        }

    @classmethod
    def from_dict(cls, payload: object) -> "WorldSpec":
        return cls(**_require_object(cls, payload))

    def to_json(self) -> str:
        """Byte-stable: sorted keys, exact float round-trip."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WorldSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """One named, fully reproducible campaign scenario.

    ``seed`` drives the whole scenario with the campaign experiment's
    derivation (population ``seed``, arrivals ``seed + 1``, engine
    ``seed + 2``, steering telemetry ``seed + 3``).  ``faults`` is a
    time-ordered tuple of :mod:`repro.faults.events`: control-plane
    events are applied through the real BGP machinery before the
    campaign runs (and reverted after), data-plane
    :class:`~repro.faults.events.TransitDegrade` events still active at
    the end of the timeline impair the matching transit corridors at
    simulate time.
    """

    name: str
    world: WorldSpec = WorldSpec()
    seed: int = 0
    n_users: int = 120
    calls_per_user_day: float = 4.0
    days: int = 1
    multiparty_fraction: float = 0.15
    arrival_profile: str = "diurnal"
    #: Flash-crowd knobs (used when ``arrival_profile == "flash_crowd"``;
    #: the crowd overlays the diurnal background traffic).
    flash_attendees: int = 150
    flash_hosts: int = 2
    flash_hour_cet: float = 18.0
    flash_window_h: float = 0.5
    steering_policy: str = ""
    last_mile: str = "terrestrial"
    satellite_delay_ms: float = GEO_SATELLITE_DELAY_MS
    satellite_loss: float = GEO_SHAPING_LOSS
    faults: tuple[FaultEvent, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        _require_kinds(self)
        object.__setattr__(self, "faults", tuple(self.faults))
        if not self.name:
            raise ValueError("ScenarioSpec.name must be non-empty")
        if self.seed < 0:
            raise ValueError(f"ScenarioSpec.seed must be >= 0, got {self.seed!r}")
        _require_enum(
            ScenarioSpec, "arrival_profile", self.arrival_profile, ARRIVAL_PROFILES
        )
        _require_enum(ScenarioSpec, "last_mile", self.last_mile, LAST_MILE_MODELS)
        _require_enum(
            ScenarioSpec, "steering_policy", self.steering_policy, STEERING_POLICIES
        )
        if self.n_users < 2:
            raise ValueError(f"ScenarioSpec.n_users must be >= 2, got {self.n_users!r}")
        if self.days < 1:
            raise ValueError(f"ScenarioSpec.days must be >= 1, got {self.days!r}")
        if self.calls_per_user_day <= 0:
            raise ValueError(
                f"ScenarioSpec.calls_per_user_day must be positive, "
                f"got {self.calls_per_user_day!r}"
            )
        if not 0.0 <= self.multiparty_fraction <= 1.0:
            raise ValueError(
                f"ScenarioSpec.multiparty_fraction must be in [0, 1], "
                f"got {self.multiparty_fraction!r}"
            )
        if self.flash_attendees <= 0 or self.flash_hosts < 1:
            raise ValueError(
                "ScenarioSpec.flash_attendees must be positive and "
                f"flash_hosts >= 1, got {self.flash_attendees!r}/{self.flash_hosts!r}"
            )
        if self.flash_window_h <= 0:
            raise ValueError(
                f"ScenarioSpec.flash_window_h must be positive, "
                f"got {self.flash_window_h!r}"
            )
        if self.satellite_delay_ms < 0:
            raise ValueError(
                f"ScenarioSpec.satellite_delay_ms must be non-negative, "
                f"got {self.satellite_delay_ms!r}"
            )
        if not 0.0 <= self.satellite_loss < 1.0:
            raise ValueError(
                f"ScenarioSpec.satellite_loss must be in [0, 1), "
                f"got {self.satellite_loss!r}"
            )
        for event in self.faults:
            if not isinstance(event, FaultEvent):
                raise ValueError(
                    f"ScenarioSpec.faults entries must be fault events, "
                    f"got {event!r}"
                )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "world": self.world.to_dict(),
            "seed": self.seed,
            "n_users": self.n_users,
            "calls_per_user_day": self.calls_per_user_day,
            "days": self.days,
            "multiparty_fraction": self.multiparty_fraction,
            "arrival_profile": self.arrival_profile,
            "flash_attendees": self.flash_attendees,
            "flash_hosts": self.flash_hosts,
            "flash_hour_cet": self.flash_hour_cet,
            "flash_window_h": self.flash_window_h,
            "steering_policy": self.steering_policy,
            "last_mile": self.last_mile,
            "satellite_delay_ms": self.satellite_delay_ms,
            "satellite_loss": self.satellite_loss,
            "faults": [event_to_dict(event) for event in self.faults],
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, payload: object) -> "ScenarioSpec":
        data = _require_object(cls, payload)
        if "name" not in data:
            raise ValueError("ScenarioSpec payload is missing its required 'name' field")
        if "world" in data:
            data["world"] = WorldSpec.from_dict(data["world"])
        faults = data.get("faults", ())
        if isinstance(faults, (list, tuple)):  # anything else: __post_init__ refuses it
            data["faults"] = tuple(
                event if isinstance(event, FaultEvent) else event_from_dict(event)
                for event in faults
            )
        return cls(**data)

    def to_json(self) -> str:
        """Byte-stable: sorted keys, exact float round-trip."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))
