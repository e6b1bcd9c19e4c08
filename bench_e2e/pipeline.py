"""The pipeline stages the workloads share, each call under a span.

Everything here goes through the program's public functions.  The
untraced world build is the user's one call (``build_world``); the
traced build replays ``VideoNetworkService.build`` stage by stage on the
same single ``rng`` so every stage gets its own span — the workloads'
digests prove both builds give the same world.
"""

from __future__ import annotations

import hashlib
import pickle

from bench_e2e.tracing import Tracer

#: The deployment every workload runs against: the world (topology seed)
#: is the system's configuration, not a generated input.  ``--seed``
#: drives the traffic: population sample, arrival process, campaign
#: draws and the fault timeline's order.
WORLD_SEED = 7
CALLS_PER_USER_DAY = 9.0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Spans of the traced run's extra per-layer probes: work the untraced
#: run does not do, left out of ``trace.overhead_ratio``.
PROBE_SPANS = (
    "workload.resolve",
    "workload.run_warm",
    "workload.gather_columns",
    "dataplane.kernel",
    "workload.aggregate",
    "vns.freeze",
    "vns.freeze_pickle",
)


# --------------------------------------------------------------------- #
# world
# --------------------------------------------------------------------- #


def build_service(tracer: Tracer, scale: str, counts: dict):
    """A converged ``VideoNetworkService`` at ``scale``.

    Untraced: ``build_world(scale, seed=WORLD_SEED)``, the public entry
    point.  Traced: the same construction stage by stage.
    """
    from repro.experiments import common

    if not tracer.enabled:
        world, _ = tracer.call(
            "vns.build_world", common.build_world, scale, seed=WORLD_SEED
        )
        return world.service

    import numpy as np

    from repro.bgp.propagation import AsLevelRouting
    from repro.net.topology import generate_topology
    from repro.vns.builder import VnsConfig, build_vns
    from repro.vns.service import VideoNetworkService

    world_scale = common.WorldScale(scale)
    # The sizing tables are module-private; they are the only way to get
    # build_world's exact configuration for a staged replay.
    topology_config = common._TOPOLOGY_CONFIGS[world_scale]
    vns_config = VnsConfig(max_peers=common._MAX_PEERS[world_scale])

    rng = np.random.default_rng(WORLD_SEED)
    topology, _ = tracer.call("net.topology", generate_topology, topology_config, rng)
    routing = AsLevelRouting(topology.graph)
    geoip, _ = tracer.call("geo.build_geoip", topology.build_geoip)

    def propagate() -> int:
        # Every per-origin table the eBGP bulk load will ask for, so
        # vns.attach excludes route propagation.  (VNS joins the graph
        # later as a stub AS; it transits nothing, so the other ASes'
        # tables do not depend on it.)
        for origin in sorted(topology.ases):
            routing.table_for_origin(origin)
        return len(topology.ases)

    counts["bgp.propagation_tables"], _ = tracer.call("bgp.propagation", propagate)
    deployment, _ = tracer.call(
        "vns.attach", build_vns, topology, routing, geoip, vns_config, rng, converge=False
    )
    network = deployment.network
    counts["vns.attach_updates_queued"] = sum(
        network.engine.pending_by_receiver().values()
    )
    delivered, _ = tracer.call("bgp.converge", network.converge)
    deployment.messages_delivered = delivered
    counts["bgp.converge_msgs"] = delivered
    counts["bgp.loc_rib_routes"] = network.total_loc_rib_size()
    counts["net.ases"] = len(topology.ases)
    counts["net.prefixes"] = len(topology.prefixes())
    service, _ = tracer.call(
        "vns.service", VideoNetworkService, topology, routing, deployment, geoip
    )
    return service


def freeze_probe(tracer: Tracer, service, counts: dict) -> None:
    """``service.freeze()`` and its pickled size (what pool workers get)."""
    frozen, _ = tracer.call("vns.freeze", service.freeze)
    blob, _ = tracer.call(
        "vns.freeze_pickle", pickle.dumps, frozen, protocol=pickle.HIGHEST_PROTOCOL
    )
    counts["vns.frozen_bytes"] = len(blob)


def egress_scan(tracer: Tracer, service) -> tuple[str, int]:
    """Digest of ``egress_decision`` for every PoP x prefix; (sha, n)."""

    def scan() -> tuple[str, int]:
        digest = hashlib.sha256()
        decisions = 0
        prefixes = sorted(service.topology.prefixes())
        for pop in service.pops():
            for prefix in prefixes:
                decision = service.egress_decision(pop.code, prefix)
                decisions += 1
                digest.update(repr(decision).encode("utf-8"))
        return digest.hexdigest(), decisions

    result, _ = tracer.call("vns.egress_scan", scan)
    return result


# --------------------------------------------------------------------- #
# campaign
# --------------------------------------------------------------------- #


def generate_calls(tracer: Tracer, service, n_users: int, seed: int) -> list:
    from repro.workload import CallArrivalProcess, UserPopulation

    population, _ = tracer.call(
        "workload.population", UserPopulation.sample, service.topology, n_users, seed=seed
    )
    arrivals = CallArrivalProcess(
        population, calls_per_user_day=CALLS_PER_USER_DAY, seed=seed
    )
    calls, _ = tracer.call("workload.arrivals", arrivals.generate, days=1)
    return calls


def run_campaign(tracer: Tracer, service, calls: list, seed: int, span: str):
    """One campaign through a fresh sequential engine (cold path caches)."""
    from repro.workload import CampaignConfig, CampaignEngine

    engine = CampaignEngine(service, CampaignConfig(seed=seed))
    return tracer.call(span, engine.run, calls)


def campaign_probes(
    tracer: Tracer, service, calls: list, seed: int, cold_run, counts: dict
) -> list[str]:
    """Per-layer split of one campaign; returns the failed checks.

    ``cold_run`` is a fresh-engine run of ``calls`` (its stats give the
    cold hit ratios).  The probes re-run the campaign on an engine whose
    path caches were pre-resolved, then time the columnar kernel and the
    aggregation alone over the same streams; each must reproduce the
    cold run's report.
    """
    from repro.dataplane.columnar import StreamColumnSpec, simulate_stream_columns
    from repro.workload import (
        CampaignAggregator,
        CampaignConfig,
        CampaignEngine,
        group_key,
        warmup_manifest,
    )
    from repro.workload.engine import group_digest

    config = CampaignConfig(seed=seed)
    stats = cold_run.stats
    counts["workload.calls"] = stats.calls_total
    counts["workload.calls_failed"] = stats.calls_failed
    counts["workload.batches"] = stats.batches
    counts["workload.onward_hit_ratio"] = stats.onward_hit_rate
    internet = stats.internet_hits + stats.internet_misses
    counts["workload.internet_hit_ratio"] = (
        stats.internet_hits / internet if internet else 0.0
    )

    engine = CampaignEngine(service, config)
    manifest = warmup_manifest(calls)
    counts["workload.pairs_unique"] = len(manifest)
    tracer.call("workload.resolve", engine.warm_pairs, manifest)
    warm_run, _ = tracer.call("workload.run_warm", engine.run, calls)

    def gather() -> list:
        """The campaign's stream columns, gathered as the engine gathers them."""
        groups: dict = {}
        for spec in calls:
            groups.setdefault(group_key(spec), []).append(spec)
        specs = []
        for key, members in groups.items():
            first = members[0]
            pair = engine.resolve_pair(first.caller.prefix, first.callee.prefix)
            if pair is None:
                continue
            _, _, hour_bin, duration_s = key
            digest = group_digest(seed, key)
            for salt, path in enumerate((pair.via_vns, pair.via_internet)):
                specs.append(
                    StreamColumnSpec(
                        path, len(members), duration_s, hour_bin + 0.5, digest, salt
                    )
                )
        return specs

    specs, _ = tracer.call("workload.gather_columns", gather)
    streams, kernel_s = tracer.call(
        "dataplane.kernel",
        simulate_stream_columns,
        specs,
        packets_per_second=config.packets_per_second,
        slot_s=config.slot_s,
    )
    counts["dataplane.streams"] = sum(len(column) for column in streams)
    counts["dataplane.slot_elements"] = sum(
        stream.n_slots for column in streams for stream in column
    )
    counts["dataplane.elements_per_s"] = (
        counts["dataplane.slot_elements"] / kernel_s if kernel_s > 0 else 0.0
    )

    def refold() -> str:
        aggregator = CampaignAggregator()
        for result in warm_run.results:
            aggregator.add(result)
        return aggregator.report(
            seed=seed,
            n_failed=warm_run.stats.calls_failed,
            turn_allocations=warm_run.stats.turn_allocations,
        ).to_json()

    refolded, _ = tracer.call("workload.aggregate", refold)

    reference = cold_run.report.to_json()
    failures = []
    if warm_run.report.to_json() != reference:
        failures.append("warm-engine report differs from the cold-engine report")
    if refolded != reference:
        failures.append("re-aggregated report differs from the engine's report")
    return failures
