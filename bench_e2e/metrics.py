"""The metric catalogue: names, units, directions, and where each is read.

``BENCHMARK.json`` lists exactly these names (``test_smoke.py`` checks
it).  End-to-end metrics are measured with tracing off; per-layer
metrics come from a separate traced run — span totals, counts the
workloads read off return values and public result objects, and the
program's existing ``repro.perf`` counters.  A layer a workload bypasses
reads 0: that is the prediction "no change here" made checkable.
"""

from __future__ import annotations

#: (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

#: (name, unit, better, source) — ``span:<name>`` is the summed seconds
#: of that span; ``count:<key>`` a count a workload recorded (same name
#: unless given); ``derived`` is filled in by :func:`per_layer`.
PER_LAYER = (
    ("import.repro_s", "s", "lower", "span:import.repro"),
    ("net.topology_s", "s", "lower", "span:net.topology"),
    ("net.ases", "count", "lower", "count"),
    ("net.prefixes", "count", "lower", "count"),
    ("net.radix_lookups", "count", "lower", "count"),
    ("geo.build_geoip_s", "s", "lower", "span:geo.build_geoip"),
    ("bgp.propagation_s", "s", "lower", "span:bgp.propagation"),
    ("bgp.propagation_tables", "count", "lower", "count"),
    ("bgp.converge_s", "s", "lower", "span:bgp.converge"),
    ("bgp.converge_msgs", "count", "lower", "count"),
    ("bgp.converge_msgs_per_s", "1/s", "higher", "derived"),
    ("bgp.loc_rib_routes", "count", "lower", "count"),
    ("bgp.reconverge_s", "s", "lower", "span:bgp.reconverge"),
    ("bgp.reconverge_msgs", "count", "lower", "count"),
    ("bgp.reconverge_msgs_per_s", "1/s", "higher", "derived"),
    ("vns.attach_s", "s", "lower", "span:vns.attach"),
    ("vns.attach_updates_queued", "count", "lower", "count"),
    ("vns.geo_assign_calls", "count", "lower", "count"),
    ("vns.geo_assign_memo_hit_ratio", "ratio", "higher", "count"),
    ("vns.freeze_s", "s", "lower", "span:vns.freeze"),
    ("vns.frozen_bytes", "bytes", "lower", "count"),
    ("vns.egress_scan_s", "s", "lower", "span:vns.egress_scan"),
    ("vns.egress_decisions_per_s", "1/s", "higher", "derived"),
    ("faults.perturb_s", "s", "lower", "span:faults.perturb"),
    ("faults.events", "count", "higher", "count"),
    ("faults.restore_identical", "count", "higher", "count"),
    ("workload.population_s", "s", "lower", "span:workload.population"),
    ("workload.arrivals_s", "s", "lower", "span:workload.arrivals"),
    ("workload.calls", "count", "higher", "count"),
    ("workload.calls_failed", "count", "lower", "count"),
    ("workload.run_cold_s", "s", "lower", "span:workload.run_cold"),
    ("workload.resolve_s", "s", "lower", "span:workload.resolve"),
    ("workload.pairs_unique", "count", "lower", "count"),
    ("workload.onward_hit_ratio", "ratio", "higher", "count"),
    ("workload.internet_hit_ratio", "ratio", "higher", "count"),
    ("workload.batches", "count", "lower", "count"),
    ("workload.run_warm_s", "s", "lower", "span:workload.run_warm"),
    ("workload.aggregate_s", "s", "lower", "span:workload.aggregate"),
    ("workload.group_emit_self_s", "s", "lower", "derived"),
    ("workload.pool_cold_s", "s", "lower", "span:workload.pool_cold"),
    ("workload.pool_spawn_s", "s", "lower", "count"),
    ("workload.ship_s", "s", "lower", "count"),
    ("workload.world_bytes", "bytes", "lower", "count"),
    ("workload.warm_s", "s", "lower", "count"),
    ("workload.warmed_pairs", "count", "lower", "count"),
    ("workload.sharded_run_s", "s", "lower", "span:workload.sharded_run"),
    ("workload.queue_wait_s", "s", "lower", "count"),
    ("workload.shard_cost_ratio", "ratio", "lower", "count"),
    ("workload.shard_busy_ratio", "ratio", "lower", "count"),
    ("workload.critical_path_cpu_s", "s", "lower", "count"),
    ("workload.reduce_self_s", "s", "lower", "count"),
    ("workload.shard_retries", "count", "lower", "count"),
    ("dataplane.kernel_s", "s", "lower", "span:dataplane.kernel"),
    ("dataplane.streams", "count", "lower", "count"),
    ("dataplane.slot_elements", "count", "lower", "count"),
    ("dataplane.elements_per_s", "1/s", "higher", "count"),
    ("results.record_s", "s", "lower", "span:results.record"),
    ("results.rows_written", "count", "lower", "count"),
    ("results.store_bytes", "bytes", "lower", "count"),
    ("trace.coverage_ratio", "ratio", "higher", "derived"),
    ("trace.overhead_ratio", "ratio", "lower", "derived"),
    ("trace.time_scale", "ratio", "higher", "derived"),
    ("trace.wall_s", "s", "lower", "derived"),
    ("host.cold_to_report_s", "s", "lower", "count"),
    ("host.rerun_to_report_s", "s", "lower", "count"),
    ("host.cpus", "count", "higher", "derived"),
    ("host.workers", "count", "higher", "derived"),
    ("host.calib_py_s", "s", "lower", "derived"),
    ("host.calib_obj_s", "s", "lower", "derived"),
    ("host.calib_np_s", "s", "lower", "derived"),
)

#: Metrics that are pure counts of simulated work: they must repeat
#: exactly between two runs with the same ``(--seed, --seconds)``.
EXACT_UNITS = ("count", "bytes")


def per_layer(tracer, counts: dict, derived: dict) -> dict[str, float]:
    """Every per-layer metric's value for one traced run."""
    values: dict[str, float] = {}
    for name, _unit, _better, source in PER_LAYER:
        if source.startswith("span:"):
            values[name] = tracer.total(source[5:])
        elif source == "count":
            values[name] = counts.get(name, 0)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    values["bgp.converge_msgs_per_s"] = rate(
        values["bgp.converge_msgs"], values["bgp.converge_s"]
    )
    values["bgp.reconverge_msgs_per_s"] = rate(
        values["bgp.reconverge_msgs"], values["bgp.reconverge_s"]
    )
    values["vns.egress_decisions_per_s"] = rate(
        counts.get("vns.egress_decisions", 0) * tracer.count("vns.egress_scan"),
        values["vns.egress_scan_s"],
    )
    values["workload.group_emit_self_s"] = max(
        0.0,
        values["workload.run_warm_s"]
        - values["dataplane.kernel_s"]
        - values["workload.aggregate_s"],
    )
    values.update(derived)
    return values
