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
keep depending exclusively on the service's converged state, and
sequential-vs-sharded byte-identity holds because the model is a pure
function of the path value.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import TYPE_CHECKING, Sequence

from repro.dataplane.link import SegmentKind, degrade_segment, satellite_segment
from repro.dataplane.path import DataPath
from repro.experiments.common import World, build_world
from repro.faults.events import FaultEvent, PopDown, TransitDegrade
from repro.faults.injector import FaultInjector, impaired_segment
from repro.scenarios.spec import CAPACITY_WILDCARD, ScenarioSpec, WorldSpec
from repro.workload.arrivals import CallArrivalProcess, CallSpec, flash_crowd_calls
from repro.workload.engine import CampaignConfig, CampaignRun
from repro.workload.population import UserPopulation
from repro.workload.sharded import (
    CampaignWorkerPool,
    ShardedCampaignRunner,
    ShardPlan,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.steering.engine import SteeringEngine

#: PoP congestion per unit of overload (offered/capacity - 1), applied
#: to the first segment of VNS-entering transports.  Queueing delay and
#: shaper drops grow with overload, clamped so extreme specs stay in
#: the simulator's valid range.
OVERLOAD_DELAY_MS_PER_UNIT = 40.0
OVERLOAD_LOSS_PER_UNIT = 0.02
OVERLOAD_UNIT_CLAMP = 4.0


@dataclass(frozen=True, slots=True)
class ScenarioPathModel:
    """A scenario's data-plane conditions as a pure path transform.

    Implements the :class:`~repro.workload.engine.PathModel` protocol.
    Frozen and built only from value types, so it pickles to shard
    workers and transforms identically everywhere.
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

    def fingerprint(self) -> str:
        """Stable digest of every field (for campaign fingerprints)."""
        digest = blake2b(digest_size=8)
        digest.update(
            f"{self.last_mile}|{self.satellite_delay_ms}|{self.satellite_loss}".encode()
        )
        for d in self.degradations:
            digest.update(
                f"|{d.regions}|{d.extra_loss}|{d.extra_delay_ms}".encode()
            )
        for pop, units in self.pop_overload:
            digest.update(f"|{pop}:{units}".encode())
        return digest.hexdigest()


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
    """The scenario's call list (campaign seed derivation: see spec)."""
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
    ``CostBudgetedPolicy.prepare``), so shard workers see the same
    congestion regardless of which calls they run.
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


def scenario_steering(
    spec: ScenarioSpec,
    world: World,
    calls: list[CallSpec],
    config: CampaignConfig,
) -> "SteeringEngine | None":
    """The steering engine for ``spec.steering_policy`` ("" = none).

    Telemetry is collected on the (possibly faulted) world with seed
    ``spec.seed + 3``; ``cost_budgeted`` is prepared against the call
    list's projected traffic matrix with half the backbone bytes as
    budget — the experiment module's defaults.
    """
    if not spec.steering_policy:
        return None
    from repro.experiments.steering import corridor_payload_bytes
    from repro.steering import SteeringEngine, SteeringTelemetry, make_policy

    health = SteeringTelemetry(world.service, seed=spec.seed + 3).collect(
        days=1, minutes_between_rounds=240.0, hosts_per_type_per_region=2
    )
    if spec.steering_policy == "cost_budgeted":
        matrix = corridor_payload_bytes(calls, config)
        policy = make_policy(
            spec.steering_policy, budget_bytes=int(sum(matrix.values()) * 0.5)
        )
        policy.prepare(matrix, health)
    else:
        policy = make_policy(spec.steering_policy)
    return SteeringEngine(health=health, policy=policy, seed=config.seed)


# --------------------------------------------------------------------- #
# the loader
# --------------------------------------------------------------------- #


@dataclass(slots=True)
class LoadedScenario:
    """A composed scenario: world faulted, calls drawn, model built.

    Call :meth:`run` (in this process, or on a pool with
    ``workers``/``pool``) and :meth:`restore` when done — or use
    :func:`run_scenario` which does both.
    """

    spec: ScenarioSpec
    world: World
    calls: list[CallSpec]
    config: CampaignConfig
    steering: "SteeringEngine | None"
    path_model: ScenarioPathModel | None
    applied: FaultInjector | None

    def run(
        self,
        *,
        workers: int = 1,
        pool: CampaignWorkerPool | None = None,
        shard_plan: ShardPlan | None = None,
    ) -> CampaignRun:
        """Run the campaign; byte-identical in-process vs pooled.

        With ``pool`` (or ``workers > 1`` / a ``shard_plan`` sized for
        more than one worker, which builds a private pool for the call
        and shuts it down after) the shards run on spawned workers;
        otherwise in this process.  A pool must have been created
        *after* this scenario's faults were applied — worker snapshots
        freeze the world at pool start.
        """
        if shard_plan is None:
            shard_plan = ShardPlan(
                n_workers=pool.workers if pool is not None else workers
            )
        own_pool = None
        if pool is None and shard_plan.effective_workers > 1:
            own_pool = CampaignWorkerPool(
                self.world.service, workers=shard_plan.effective_workers
            )
            pool = own_pool
        try:
            return ShardedCampaignRunner(
                self.world.service,
                self.config,
                shard_plan,
                steering=self.steering,
                path_model=self.path_model,
                pool=pool,
            ).run(self.calls)
        finally:
            if own_pool is not None:
                own_pool.shutdown(wait=True)

    def restore(self) -> None:
        """Undo the scenario's control-plane faults (idempotent)."""
        if self.applied is not None:
            self.applied.restore()


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
        world = build_world(
            spec.world.scale,
            seed=spec.world.seed,
            geoip_errors=spec.world.geoip_errors,
        )
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

    For callers (like the matrix runner) that manage fault application
    themselves — e.g. applying a fault set once for a whole group of
    seeds.  ``world`` must already be in the spec's faulted state and
    ``degradations`` carry the timeline's still-active transit events.
    The returned scenario has no fault bookkeeping (``applied=None``).
    """
    calls = scenario_calls(spec, world)
    config = CampaignConfig(seed=spec.seed + 2)
    return LoadedScenario(
        spec=spec,
        world=world,
        calls=calls,
        config=config,
        steering=scenario_steering(spec, world, calls, config),
        path_model=scenario_path_model(spec, world, calls, tuple(degradations)),
        applied=None,
    )


def run_scenario(
    spec: ScenarioSpec,
    *,
    base_world: World | None = None,
    workers: int = 1,
    pool: CampaignWorkerPool | None = None,
    shard_plan: ShardPlan | None = None,
) -> CampaignRun:
    """Load, run, and restore in one call (the common case)."""
    loaded = load_scenario(spec, base_world=base_world)
    try:
        return loaded.run(workers=workers, pool=pool, shard_plan=shard_plan)
    finally:
        loaded.restore()
