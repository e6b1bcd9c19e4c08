"""Compose a :class:`ScenarioSpec` into a ready-to-run campaign.

The loader is the bridge between the declarative layer and the existing
machinery: it builds (or adopts) the world, replays the spec's fault
timeline through the real BGP machinery, generates the call list from
the arrival profile, instantiates the steering policy by registry name,
and distils the scenario's data-plane conditions into a
:class:`ScenarioPathModel` — the pure, picklable
:class:`~repro.workload.engine.PathModel` the campaign engine applies at
simulate time.

**World hygiene.**  Control-plane faults mutate the shared service, so
:class:`LoadedScenario` keeps the :class:`FaultInjector` that applied
them and ``restore()`` has it replay the exact repairs (PoP restarts
reuse its snapshots), leaving the world byte-for-byte as found.
Loading never leaks a half-faulted world: if anything after fault
application fails, the faults are rolled back before the exception
propagates.

**Cache purity.**  All scenario impairments (GEO-satellite last mile,
active transit degradations, PoP congestion) live in the path model and
are applied in the engine's simulate phase only — the shared path caches
keep depending exclusively on the service's converged state, and the
report does not depend on how the calls are cut into shards because the
model is a pure function of the path value.

**Where it runs.**  :meth:`LoadedScenario.run` runs the campaign in the
calling process on a plain :class:`~repro.workload.engine.CampaignEngine`
over the world as it stands; no front door starts a worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.dataplane.link import SegmentKind, degrade_segment, satellite_segment
from repro.dataplane.path import DataPath
from repro.experiments.common import World, build_world
from repro.faults.events import FaultEvent, PopDown, TransitDegrade
from repro.faults.injector import FaultInjector, impaired_segment
from repro.scenarios.spec import CAPACITY_WILDCARD, ScenarioSpec, WorldSpec
from repro.steering import (
    PathHealthTable,
    SteeringEngine,
    SteeringTelemetry,
    make_policy,
    stream_payload_bytes,
)
from repro.workload.arrivals import CallArrivalProcess, CallSpec, flash_crowd_calls
from repro.workload.engine import CampaignConfig, CampaignEngine, CampaignRun
from repro.workload.population import UserPopulation
from repro.workload.report import REGION_CODE

#: PoP congestion per unit of overload (offered/capacity - 1), applied
#: to the first segment of VNS-entering transports.  Queueing delay and
#: shaper drops grow with overload, clamped so extreme specs stay in
#: the simulator's valid range.
OVERLOAD_DELAY_MS_PER_UNIT = 40.0
OVERLOAD_LOSS_PER_UNIT = 0.02
OVERLOAD_UNIT_CLAMP = 4.0

#: The probe telemetry a steered scenario decides on: one day of rounds
#: every four hours to two hosts per AS type per region, from every PoP.
#: ``SteeringTelemetry.collect`` has no schedule of its own.
TELEMETRY_DAYS = 1
TELEMETRY_MINUTES_BETWEEN_ROUNDS = 240.0
TELEMETRY_HOSTS_PER_TYPE_PER_REGION = 2

#: ``cost_budgeted``'s backbone budget, as a fraction of the campaign's
#: projected backbone bytes.  (``threshold_offload``'s two deltas are
#: :class:`~repro.steering.policies.ThresholdOffloadPolicy`'s defaults.)
BUDGET_FRACTION = 0.5


@dataclass(frozen=True, slots=True)
class ScenarioPathModel:
    """A scenario's data-plane conditions as a pure path transform.

    Implements the :class:`~repro.workload.engine.PathModel` protocol.
    Frozen and built only from value types, so it pickles (to a
    workload-layer pool's workers) and transforms identically everywhere.
    """

    last_mile: str = "terrestrial"
    satellite_delay_ms: float = 0.0
    satellite_loss: float = 0.0
    #: Transit degradations still active at the end of the timeline.
    degradations: tuple[TransitDegrade, ...] = ()
    #: ``(entry_pop, overload_units)`` for PoPs over capacity.
    pop_overload: tuple[tuple[str, float], ...] = ()

    @property
    def is_noop(self) -> bool:
        return (
            self.last_mile != "geo_satellite"
            and not self.degradations
            and not self.pop_overload
        )

    def transform(self, path: DataPath, transport: str, *, entry_pop: str) -> DataPath:
        """The modelled path for ``transport`` (``path`` if untouched).

        * GEO-satellite last mile: the first ACCESS segment — the
          caller's access leg on every transport — is re-homed onto the
          satellite service.
        * Transit degradations: every segment goes through
          :func:`~repro.faults.injector.impaired_segment`, the rule
          ``FaultInjector.impaired_path`` applies.
        * PoP congestion: transports entering an overloaded PoP
          (``"vns"`` and ``"detour"``; ``"internet"`` bypasses VNS) get
          queueing delay and shaper loss on their first segment.
        """
        segments = list(path.segments)
        changed = False
        if self.last_mile == "geo_satellite":
            for index, segment in enumerate(segments):
                if segment.kind is SegmentKind.ACCESS:
                    segments[index] = satellite_segment(
                        segment,
                        one_way_delay_ms=self.satellite_delay_ms,
                        shaping_loss=self.satellite_loss,
                    )
                    changed = True
                    break
        if self.degradations:
            for index, segment in enumerate(segments):
                impaired = impaired_segment(segment, self.degradations)
                if impaired is not segment:
                    segments[index] = impaired
                    changed = True
        if transport in ("vns", "detour") and self.pop_overload:
            overload = dict(self.pop_overload).get(entry_pop)
            if overload:
                units = min(overload, OVERLOAD_UNIT_CLAMP)
                segments[0] = degrade_segment(
                    segments[0],
                    extra_loss=units * OVERLOAD_LOSS_PER_UNIT,
                    extra_delay_ms=units * OVERLOAD_DELAY_MS_PER_UNIT,
                )
                changed = True
        if not changed:
            return path
        return DataPath(segments=segments, description=path.description)


# --------------------------------------------------------------------- #
# fault application / restoration
# --------------------------------------------------------------------- #


def apply_scenario_faults(service, spec: ScenarioSpec) -> FaultInjector:
    """Replay ``spec``'s world restrictions and fault timeline.

    ``WorldSpec.pops_down`` become :class:`PopDown` events at t=0 (real
    anycast re-catchment), then the spec's timeline runs in time order
    through :meth:`FaultInjector.apply`.  The world is left in whatever
    state the timeline ends in (a ``PopDown`` without a matching
    ``PopUp`` stays down for the campaign) and the injector that got it
    there is returned: its ``active`` / ``degradations`` say what is
    still in effect (the degradations feed the path model) and its
    ``restore()`` leaves the service as found.  A timeline that fails
    part-way is rolled back before the exception propagates.
    """
    injector = FaultInjector(service)
    events: list[FaultEvent] = [
        PopDown(time_s=0.0, pop=pop) for pop in spec.world.pops_down
    ]
    events.extend(sorted(spec.faults, key=lambda event: event.time_s))
    try:
        for event in events:
            injector.apply(event)
    except BaseException:
        injector.restore()
        raise
    return injector


# --------------------------------------------------------------------- #
# workload / steering / congestion from the spec
# --------------------------------------------------------------------- #


def scenario_calls(spec: ScenarioSpec, world: World) -> list[CallSpec]:
    """One integer → the whole campaign: ``spec``'s call list on ``world``.

    The one seed derivation every campaign front door shares: the
    population is sampled with ``spec.seed``, the arrivals (and any
    flash crowd) drawn with ``seed + 1``; :func:`compose_scenario` keys
    the engine's simulation draws by ``seed + 2`` and
    :func:`scenario_telemetry` probes with ``seed + 3``.
    """
    population = UserPopulation.sample(world.topology, spec.n_users, seed=spec.seed)
    arrivals = CallArrivalProcess(
        population,
        calls_per_user_day=spec.calls_per_user_day,
        multiparty_fraction=spec.multiparty_fraction,
        seed=spec.seed + 1,
    )
    calls = arrivals.generate(days=spec.days)
    if spec.arrival_profile == "flash_crowd":
        crowd = flash_crowd_calls(
            population,
            attendees=spec.flash_attendees,
            hosts=spec.flash_hosts,
            start_hour_cet=spec.flash_hour_cet,
            window_h=spec.flash_window_h,
            seed=spec.seed + 1,
            first_call_id=len(calls),
        )
        calls = sorted(
            calls + crowd,
            key=lambda call: (call.day, call.start_hour_cet, call.call_id),
        )
    return calls


def _pop_overload(
    spec: ScenarioSpec, world: World, calls: list[CallSpec]
) -> tuple[tuple[str, float], ...]:
    """Per-entry-PoP overload units from the full call list.

    Offered load per PoP is the classic erlang measure — total call
    seconds over the campaign span — attributed to each caller's anycast
    entry PoP *after* the spec's faults (re-catchment counts).  Computed
    up-front from the whole call list (like
    ``CostBudgetedPolicy.prepare``), so every shard of the campaign sees
    the same congestion regardless of which calls it runs.
    """
    capacities = dict(spec.world.pop_capacity)
    if not capacities:
        return ()
    wildcard = capacities.get(CAPACITY_WILDCARD)
    span_s = spec.days * 86400.0
    service = world.service
    topology = service.topology
    entry_of: dict[object, str | None] = {}
    demand: dict[str, float] = {}
    for call in calls:
        prefix = call.caller.prefix
        if prefix not in entry_of:
            asn = topology.origin_of[prefix]
            location = topology.prefix_location[prefix]
            pop = service.anycast.entry_pop(asn, location)
            entry_of[prefix] = None if pop is None else pop.code
        code = entry_of[prefix]
        if code is not None:
            demand[code] = demand.get(code, 0.0) + call.duration_s
    overload: list[tuple[str, float]] = []
    for code in sorted(demand):
        capacity = capacities.get(code, wildcard)
        if capacity is None:
            continue
        units = demand[code] / span_s / capacity - 1.0
        if units > 0:
            overload.append((code, round(units, 9)))
    return tuple(overload)


def scenario_path_model(
    spec: ScenarioSpec,
    world: World,
    calls: list[CallSpec],
    degradations: tuple[TransitDegrade, ...],
) -> ScenarioPathModel | None:
    """The spec's data-plane conditions, or ``None`` when unimpaired."""
    model = ScenarioPathModel(
        last_mile=spec.last_mile,
        satellite_delay_ms=spec.satellite_delay_ms,
        satellite_loss=spec.satellite_loss,
        degradations=degradations,
        pop_overload=_pop_overload(spec, world, calls),
    )
    return None if model.is_noop else model


def corridor_payload_bytes(
    calls: list[CallSpec], config: CampaignConfig
) -> dict[tuple[str, str], int]:
    """Projected media bytes per directed region corridor.

    The traffic matrix :meth:`CostBudgetedPolicy.prepare` plans against —
    computed from the call list alone (no simulation), with the stream
    simulator's packet accounting.
    """
    matrix: dict[tuple[str, str], int] = {}
    for spec in calls:
        corridor = (REGION_CODE[spec.caller.region], REGION_CODE[spec.callee.region])
        matrix[corridor] = matrix.get(corridor, 0) + stream_payload_bytes(
            spec.duration_s, config.packets_per_second, config.slot_s
        )
    return matrix


def backbone_budget_bytes(matrix: dict[tuple[str, str], int]) -> int:
    """``cost_budgeted``'s budget for a projected traffic ``matrix``."""
    return int(sum(matrix.values()) * BUDGET_FRACTION)


def scenario_telemetry(world: World, seed: int) -> PathHealthTable:
    """The health table a campaign with ``seed`` steers by (``seed + 3``).

    Probed on ``world`` as it stands — after the scenario's faults.
    """
    return SteeringTelemetry(world.service, seed=seed + 3).collect(
        days=TELEMETRY_DAYS,
        minutes_between_rounds=TELEMETRY_MINUTES_BETWEEN_ROUNDS,
        hosts_per_type_per_region=TELEMETRY_HOSTS_PER_TYPE_PER_REGION,
    )


def scenario_steering(
    policy_name: str,
    health: PathHealthTable,
    calls: list[CallSpec],
    config: CampaignConfig,
) -> SteeringEngine:
    """What a policy name means as a prepared engine.

    ``cost_budgeted`` is planned against the call list's projected
    traffic matrix with :func:`backbone_budget_bytes` of it as budget;
    the other policies need nothing but the table.
    """
    if policy_name == "cost_budgeted":
        matrix = corridor_payload_bytes(calls, config)
        policy = make_policy(policy_name, budget_bytes=backbone_budget_bytes(matrix))
        policy.prepare(matrix, health)
    else:
        policy = make_policy(policy_name)
    return SteeringEngine(health=health, policy=policy, seed=config.seed)


# --------------------------------------------------------------------- #
# the loader
# --------------------------------------------------------------------- #


@dataclass(slots=True)
class LoadedScenario:
    """A composed scenario: world faulted, calls drawn, model built.

    Call :meth:`run` and :meth:`restore` when done — or use
    :func:`run_scenario` which does both.
    """

    spec: ScenarioSpec
    world: World
    calls: list[CallSpec]
    config: CampaignConfig
    steering: SteeringEngine | None
    path_model: ScenarioPathModel | None
    applied: FaultInjector | None

    def run(self) -> CampaignRun:
        """Run the campaign in this process on the world as it stands."""
        return CampaignEngine(
            self.world.service,
            self.config,
            steering=self.steering,
            path_model=self.path_model,
        ).run(self.calls)

    def restore(self) -> None:
        """Undo the scenario's control-plane faults (idempotent)."""
        if self.applied is not None:
            self.applied.restore()


def build_spec_world(spec: WorldSpec) -> World:
    """The world ``spec``'s recipe (scale, seed, GeoIP errors) builds."""
    return build_world(spec.scale, seed=spec.seed, geoip_errors=spec.geoip_errors)


def load_scenario(
    spec: ScenarioSpec, *, base_world: World | None = None
) -> LoadedScenario:
    """Compose ``spec`` into a ready campaign.

    ``base_world`` adopts an already built world (its scale must match
    ``spec.world.scale``); otherwise the world is built from the spec.
    The world comes back faulted per the spec — call
    :meth:`LoadedScenario.restore` when done with it.

    Raises
    ------
    ValueError
        If ``base_world``'s scale contradicts the spec.
    """
    if base_world is not None:
        if base_world.scale.value != spec.world.scale:
            raise ValueError(
                f"base_world is {base_world.scale.value!r} but the spec "
                f"wants {spec.world.scale!r}; pass a matching world or none"
            )
        world = base_world
    else:
        world = build_spec_world(spec.world)
    applied = apply_scenario_faults(world.service, spec)
    try:
        loaded = compose_scenario(spec, world, applied.degradations)
    except BaseException:
        applied.restore()
        raise
    loaded.applied = applied
    return loaded


def compose_scenario(
    spec: ScenarioSpec,
    world: World,
    degradations: Sequence[TransitDegrade] = (),
) -> LoadedScenario:
    """The post-fault composition: calls, config, path model, steering.

    For callers that manage fault application themselves (the matrix
    runner applies a fault set once for a whole group of seeds) or have
    none to apply (the campaign and steering experiments).  ``world``
    must already be in the spec's faulted state and ``degradations``
    carry the timeline's still-active transit events.  The returned
    scenario has no fault bookkeeping (``applied=None``).
    """
    calls = scenario_calls(spec, world)
    config = CampaignConfig(seed=spec.seed + 2)
    steering = None
    if spec.steering_policy:
        steering = scenario_steering(
            spec.steering_policy, scenario_telemetry(world, spec.seed), calls, config
        )
    return LoadedScenario(
        spec=spec,
        world=world,
        calls=calls,
        config=config,
        steering=steering,
        path_model=scenario_path_model(spec, world, calls, tuple(degradations)),
        applied=None,
    )


def run_scenario(spec: ScenarioSpec, *, base_world: World | None = None) -> CampaignRun:
    """Load, run in this process, and restore in one call (the common case)."""
    loaded = load_scenario(spec, base_world=base_world)
    try:
        return loaded.run()
    finally:
        loaded.restore()
