"""The campaign engine: resolve, simulate, aggregate — at population scale.

The paper's evidence is a two-week production campaign over millions of
calls; per-call path resolution and per-stream scalar simulation do not
get anywhere near that volume.  The engine exploits the two kinds of
redundancy a real campaign has:

* **Paths repeat.**  Anycast entry and the last mile depend only on the
  caller's prefix; the VNS onward leg only on ``(entry_pop,
  dst_prefix)``; the Internet leg only on the prefix pair.
  :class:`PathResolver` keeps one cache per key, so a campaign touching
  P prefixes resolves O(P²) paths once for O(calls) uses — the
  ``(entry_pop, dst_prefix)`` cache hit rate is the headline number in
  the recorded ``workload`` bench row.
* **Streams over one path are exchangeable.**  Calls sharing a path
  signature (prefix pair, hour bin, duration) are exchangeable and can
  be simulated together — and since real campaigns have ~1 call per
  exact signature, *all* groups are gathered into campaign-wide
  struct-of-arrays columns and simulated in a handful of wide numpy
  passes (:mod:`repro.dataplane.columnar`, the one simulation kernel;
  :func:`~repro.dataplane.transmit.simulate_stream` is its scalar
  distribution oracle).

**Determinism contract.**  Every simulation draw is keyed by
``(campaign seed, group signature)`` via a stable blake2b hash
(:func:`group_digest`) — never by the order groups were encountered —
and, one level finer, each *individual* draw by ``(digest, transport
salt, stream index, purpose, slot)`` counters, so results are also
independent of how streams were chunked into array passes.  A
campaign's measurements therefore depend only on the seed and on
*which* calls ran, not on how the call list was chunked, shuffled, or
sharded across worker processes.  This is what lets
:class:`~repro.workload.sharded.ShardedCampaignRunner` — which runs one
``CampaignEngine`` per slice of the call list, in this process or in
pool workers — reduce to the same report byte for byte however the
list was cut.

The three phases are instrumented with :mod:`repro.perf` timers
(``workload.resolve`` / ``workload.simulate`` / ``workload.aggregate``)
and counters; the engine also keeps its own :class:`CampaignStats` so
hit rates are available without enabling perf.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Protocol

import numpy as np

from repro import perf
from repro.dataplane.columnar import StreamColumns, simulate_table, spec_digest
from repro.dataplane.path import DataPath, PathView, ids_view, path_view, view_path
from repro.dataplane.transmit import SLOT_S, StreamResult
from repro.net.addressing import Prefix
from repro.vns.service import VideoNetworkService
from repro.workload.arrivals import CallSpec
from repro.workload.report import REGION_CODE, CampaignAggregator, CampaignReport

if TYPE_CHECKING:  # pragma: no cover - typing only (steering imports us back)
    from repro.steering.engine import SteeringEngine
    from repro.steering.policies import PathCandidates, SteeringDecision

#: Cache-miss sentinel (``None`` is a legitimate cached value).
_MISS: object = object()


class PathModel(Protocol):
    """A pure, picklable transform applied to paths at simulate time.

    Implementations model scenario-level data-plane conditions — e.g. a
    GEO-satellite last mile, corridor transit degradation, or PoP
    congestion — without touching the engine's shared path caches.

    ``transform`` receives the cached path, the transport it serves
    (``"vns"`` / ``"internet"`` / ``"detour"``) and the call group's
    anycast entry PoP, and returns either the path unchanged or a new
    :class:`~repro.dataplane.path.DataPath`.  It must be a pure function
    of its arguments (no hidden state, no randomness) so shard workers
    reproduce the parent's transformed paths exactly.
    """

    def transform(
        self, path: DataPath, transport: str, *, entry_pop: str
    ) -> DataPath: ...  # pragma: no cover - protocol


@dataclass(frozen=True, slots=True)
class CampaignConfig:
    """Frozen configuration for one campaign run.

    Replaces the growing keyword list of ``CampaignEngine.__init__`` —
    one value object travels from the caller through shard workers
    (it pickles) and into reports.

    Parameters
    ----------
    seed:
        Drives all simulation draws, via per-group keying (see the
        module docstring; arrival randomness lives in the
        :class:`~repro.workload.arrivals.CallArrivalProcess`).

    Every call's stream has the same shape, as for
    :func:`~repro.dataplane.transmit.simulate_stream`: the class constants
    ``packets_per_second`` (1080p video) and ``slot_s``.
    """

    seed: int = 0
    packets_per_second: ClassVar[float] = 420.0
    slot_s: ClassVar[float] = SLOT_S


#: A simulation-group signature: calls sharing one are exchangeable and
#: simulate as a single vectorised batch.
GroupKey = tuple[Prefix, Prefix, int, float]


def group_key(spec: CallSpec) -> GroupKey:
    """The simulation-group signature of one call.

    Hour is binned to whole hours (the diurnal models change slowly) so
    calls across a campaign day share batches.  A run groups its calls by
    an integer code of exactly this signature (no key is built per call).
    """
    return (
        spec.caller.prefix,
        spec.callee.prefix,
        int(spec.start_hour_cet),
        spec.duration_s,
    )


def group_digest(seed: int, key: GroupKey) -> tuple[int, int]:
    """The 128-bit signature of one simulation group, as two 64-bit words.

    The :func:`~repro.dataplane.columnar.spec_digest` of ``(campaign
    seed, group signature)``: identical inputs yield identical words in
    any process, which is the foundation of the sequential-vs-sharded
    equivalence guarantee.  The columnar kernel feeds these words into
    its per-draw counters (the ``digest`` column of
    :func:`~repro.dataplane.columnar.simulate_table`).
    """
    src, dst, hour_bin, duration_s = key
    return spec_digest(f"{seed}|{src}|{dst}|{hour_bin}|{duration_s:.6f}")


#: Transport salts separating a group's stream columns.  Baseline draws
#: never depend on whether a detour column exists, so the baseline
#: report columns stay bit-equal with and without steering.
_SALT_VNS = 0
_SALT_INTERNET = 1
_SALT_DETOUR = 2


@dataclass(slots=True)
class CallResult:
    """One completed call: the spec plus both transports' measurements.

    Under a steering engine the call additionally carries its
    :class:`~repro.steering.policies.SteeringDecision`, the stream it
    actually rode (``steered`` — one of the two baseline streams, or a
    third PoP-detour draw), and the media bytes the VNS transport would
    have pushed across the backbone (``backbone_bytes``, the quantity a
    policy's offload saves).
    """

    spec: CallSpec
    entry_pop: str
    egress_pop: str
    via_vns: StreamResult
    via_internet: StreamResult
    decision: "SteeringDecision | None" = None
    steered: StreamResult | None = None
    backbone_bytes: int = 0


@dataclass(slots=True, eq=False)
class CallResults(Sequence):
    """A run's completed calls, kept as columns until someone asks.

    One entry per call, in result order.  ``streams`` holds every
    simulated stream of the run (:class:`~repro.dataplane.columnar.
    StreamColumns`); ``vns_row`` / ``inet_row`` — and, under steering,
    ``steered_row`` — say which of its rows each call rode.  The
    aggregator folds these columns directly
    (:meth:`~repro.workload.report.CampaignAggregator.add_columns`);
    ``len``, indexing and iteration build the :class:`CallResult` /
    :class:`~repro.dataplane.transmit.StreamResult` objects on demand, a
    fresh one per access.
    """

    specs: list[CallSpec]
    entry_pops: list[str]
    egress_pops: list[str]
    streams: StreamColumns
    vns_row: np.ndarray
    inet_row: np.ndarray
    #: Parallel to ``specs`` under a steering engine, else ``None``.
    decisions: "list[SteeringDecision] | None" = None
    steered_row: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.specs)

    def __getitem__(self, index):
        positions = np.arange(len(self))
        if isinstance(index, slice):
            return self.take(positions[index])._objects()
        return self.take(positions[[range(len(self))[index]]])._objects()[0]

    def __iter__(self) -> Iterator[CallResult]:
        return iter(self._objects())

    @property
    def backbone_bytes(self) -> np.ndarray:
        """Media bytes each call's VNS stream would push over the backbone
        (zero without a steering engine, as nothing could save them)."""
        if self.decisions is None:
            return np.zeros(len(self), dtype=np.int64)
        from repro.steering.policies import MEDIA_PACKET_BYTES

        return self.streams.packets_sent[self.vns_row] * MEDIA_PACKET_BYTES

    def _objects(self) -> list[CallResult]:
        """Every call, as objects."""
        via_vns = self.streams.results(self.vns_row)
        via_internet = self.streams.results(self.inet_row)
        if self.decisions is None:
            decisions = steered = [None] * len(self)
        else:
            decisions = self.decisions
            # A steered call rides one of its two baseline streams — the
            # same object — or a third, detour, stream.
            rows = self.steered_row
            steered = [
                vns if on_vns else inet
                for on_vns, vns, inet in zip(
                    (rows == self.vns_row).tolist(), via_vns, via_internet
                )
            ]
            detoured = np.flatnonzero((rows != self.vns_row) & (rows != self.inet_row))
            for at, stream in zip(detoured.tolist(), self.streams.results(rows[detoured])):
                steered[at] = stream
        return list(
            map(
                CallResult,
                self.specs,
                self.entry_pops,
                self.egress_pops,
                via_vns,
                via_internet,
                decisions,
                steered,
                self.backbone_bytes.tolist(),
            )
        )

    def take(self, calls: np.ndarray) -> "CallResults":
        """The calls at positions ``calls`` (a reordering or a subset)."""
        picked = calls.tolist()
        steering = self.decisions is not None
        return CallResults(
            specs=[self.specs[i] for i in picked],
            entry_pops=[self.entry_pops[i] for i in picked],
            egress_pops=[self.egress_pops[i] for i in picked],
            streams=self.streams,
            vns_row=self.vns_row[calls],
            inet_row=self.inet_row[calls],
            decisions=[self.decisions[i] for i in picked] if steering else None,
            steered_row=self.steered_row[calls] if steering else None,
        )

    @classmethod
    def concat(cls, parts: "list[CallResults]") -> "CallResults":
        """The parts' calls end to end over their concatenated streams."""
        shifts = np.cumsum([0, *(len(part.streams) for part in parts)])[:-1].tolist()
        steering = parts[0].decisions is not None

        def rows(name: str) -> np.ndarray:
            return np.concatenate(
                [getattr(part, name) + shift for part, shift in zip(parts, shifts)]
            )

        return cls(
            specs=[spec for part in parts for spec in part.specs],
            entry_pops=[pop for part in parts for pop in part.entry_pops],
            egress_pops=[pop for part in parts for pop in part.egress_pops],
            streams=StreamColumns.concat([part.streams for part in parts]),
            vns_row=rows("vns_row"),
            inet_row=rows("inet_row"),
            decisions=(
                [decision for part in parts for decision in part.decisions]
                if steering
                else None
            ),
            steered_row=rows("steered_row") if steering else None,
        )


@dataclass(slots=True)
class CampaignStats:
    """Engine-side accounting for one campaign run."""

    calls_total: int = 0
    calls_failed: int = 0  #: routing failed to resolve either transport
    onward_hits: int = 0
    onward_misses: int = 0
    internet_hits: int = 0
    internet_misses: int = 0
    batches: int = 0
    largest_batch: int = 0
    turn_allocations: int = 0
    elapsed_s: float = 0.0

    @property
    def calls_resolved(self) -> int:
        return self.calls_total - self.calls_failed

    @property
    def onward_hit_rate(self) -> float:
        """Hit rate of the ``(entry_pop, dst_prefix)`` path cache."""
        lookups = self.onward_hits + self.onward_misses
        return self.onward_hits / lookups if lookups else 0.0

    @property
    def calls_per_second(self) -> float:
        return self.calls_resolved / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def merge(self, other: "CampaignStats") -> None:
        """Fold another run's (shard's) accounting into this one.

        Counts sum; ``largest_batch`` takes the max.  ``elapsed_s`` sums
        too — for shards running concurrently that is aggregate busy
        time, and the sharded runner overwrites it with the observed
        wall clock after reducing.
        """
        self.calls_total += other.calls_total
        self.calls_failed += other.calls_failed
        self.onward_hits += other.onward_hits
        self.onward_misses += other.onward_misses
        self.internet_hits += other.internet_hits
        self.internet_misses += other.internet_misses
        self.batches += other.batches
        self.largest_batch = max(self.largest_batch, other.largest_batch)
        self.turn_allocations += other.turn_allocations
        self.elapsed_s += other.elapsed_s


@dataclass(slots=True)
class CampaignRun:
    """Everything a campaign produces.

    ``results`` is the per-call view — a :class:`CallResults` over the
    run's result columns, or ``[]`` when they were dropped
    (``ShardPlan.keep_results=False``).  ``aggregator`` is the streaming
    state the report is frozen from; shard reducers merge these (see
    :meth:`~repro.workload.report.CampaignAggregator.merge`) instead of
    re-folding every call.  ``report`` is frozen on first access, so a
    shard — whose report the reducer never reads — never computes one.
    """

    results: Sequence[CallResult]
    stats: CampaignStats
    aggregator: CampaignAggregator
    seed: int
    steering_policy: str | None = None
    _report: CampaignReport | None = None

    @property
    def report(self) -> CampaignReport:
        if self._report is None:
            self._report = self.aggregator.report(
                seed=self.seed,
                n_failed=self.stats.calls_failed,
                turn_allocations=self.stats.turn_allocations,
                steering_policy=self.steering_policy,
            )
        return self._report

    def render(self) -> str:
        """The campaign summary as rows (one per directed region pair)."""
        stats = self.stats
        report = self.report
        lines = ["Campaign — population-scale QoE, VNS vs native Internet"]
        lines.append(
            f"  calls: {stats.calls_resolved} completed, {stats.calls_failed} unroutable;"
            f" {report.turn_allocations} TURN-relayed multiparty legs"
        )
        # No wall-clock figures here: render output is deterministic under
        # the seed (throughput lives in the ``workload`` bench row).
        lines.append(
            f"  engine: {stats.batches} batches (largest {stats.largest_batch}),"
            f" onward path-cache hit rate {stats.onward_hit_rate:.1%}"
        )
        steering = report.steering
        if steering is not None:
            delta = steering["qoe_delta_vs_vns"]
            lines.append(
                f"  steering[{steering['policy']}]:"
                f" offload {steering['offload_rate']:.1%}"
                f" ({steering['offloaded_calls']}/{steering['steered_calls']} calls,"
                f" {steering['detour_calls']} via PoP detour),"
                f" backbone bytes saved {steering['backbone_bytes_saved']:,}"
                f" of {steering['backbone_bytes']:,}"
                f" ({steering['backbone_saved_fraction']:.1%}),"
                f" QoE delta vs always-VNS {delta['delay_ms_mean']:+.2f} ms"
                f" / {delta['loss_pct_mean']:+.4f}% loss"
            )
        lines.append(
            "  corridor   calls   vns p50/p95 delay      loss"
            "      inet p50/p95 delay      loss   delay-win  loss-win"
        )
        for key in sorted(report.pairs):
            pair = report.pairs[key]
            vns, inet = pair["vns"], pair["internet"]
            lines.append(
                f"  {key:<9} {pair['calls']:5d}"
                f"   {vns['delay_ms']['p50']:6.1f}/{vns['delay_ms']['p95']:6.1f} ms"
                f" {vns['loss_pct']['p95']:6.2f}%"
                f"   {inet['delay_ms']['p50']:6.1f}/{inet['delay_ms']['p95']:6.1f} ms"
                f" {inet['loss_pct']['p95']:6.2f}%"
                f"   {pair['vns_delay_win_rate']:8.1%}  {pair['vns_loss_win_rate']:8.1%}"
            )
        return "\n".join(lines)

    def to_row(self) -> dict:
        """Flat scalar summary (seed-deterministic; no wall clock)."""
        stats = self.stats
        row = {
            "calls": stats.calls_total,
            "calls_failed": stats.calls_failed,
            "batches": stats.batches,
            "largest_batch": stats.largest_batch,
            "onward_cache_hit_rate": stats.onward_hit_rate,
            "turn_allocations": self.report.turn_allocations,
            "pairs": len(self.report.pairs),
        }
        steering = self.report.steering
        if steering is not None:
            row["steering.offload_rate"] = steering["offload_rate"]
            row["steering.detour_calls"] = steering["detour_calls"]
            row["steering.backbone_saved_fraction"] = steering[
                "backbone_saved_fraction"
            ]
        return row

    def to_json(self) -> str:
        """Canonical JSON: the full report plus the flat summary row."""
        payload = {"report": self.report.to_dict(), "row": self.to_row()}
        return json.dumps(payload, indent=2, sort_keys=True)


@dataclass(slots=True)
class _ResolvedPair:
    """Cached end-to-end paths for one (src_prefix, dst_prefix) pair.

    Each transport is kept as the kernel's view of it (segment ids, RTT,
    jitter scale: a plain tuple the cyclic collector untracks).  Its
    :class:`~repro.dataplane.path.DataPath` is built only when something
    reads :attr:`via_vns` / :attr:`via_internet` — a path model, or a
    caller inspecting the paths.  ``candidates`` and ``via_detour`` are
    filled by :meth:`PathResolver.candidates_for` on the first steered
    resolve.
    """

    key: tuple[Prefix, Prefix]  #: the resolver's cache key for the pair
    entry_pop: str
    egress_pop: str
    vns_view: PathView  #: last mile to ``entry_pop``, then the onward leg
    internet_view: PathView
    _via_vns: DataPath | None = None
    _via_internet: DataPath | None = None
    candidates: "PathCandidates | None" = None
    via_detour: DataPath | None = None  #: the one-hop PoP detour, if any

    @property
    def via_vns(self) -> DataPath:
        if self._via_vns is None:
            src_prefix, dst_prefix = self.key
            self._via_vns = view_path(self.vns_view, f"call-vns:{src_prefix}->{dst_prefix}")
        return self._via_vns

    @property
    def via_internet(self) -> DataPath:
        if self._via_internet is None:
            src_prefix, dst_prefix = self.key
            self._via_internet = view_path(
                self.internet_view, f"call-inet:{src_prefix}->{dst_prefix}"
            )
        return self._via_internet


@dataclass(frozen=True, slots=True)
class _Unresolved:
    """A cached failed resolution: which leg caches its miss consulted.

    One shared instance per failure kind (below), so the pair cache
    holds nothing of its own for a failed pair.
    """

    counted_onward: bool
    counted_internet: bool


_NO_ENTRY = _Unresolved(counted_onward=False, counted_internet=False)
_NO_ONWARD = _Unresolved(counted_onward=True, counted_internet=False)
_NO_INTERNET = _Unresolved(counted_onward=True, counted_internet=True)


class PathResolver:
    """Resolves prefix pairs to call paths over one service, memoised.

    One cache per key a call's path depends on: ``_entry`` per source
    prefix (the anycast entry PoP and the last mile to it, paper Fig. 7),
    ``_onward`` per ``(entry_pop, dst_prefix)`` (the geo-LP onward leg and
    its egress PoP, Sec. 3.2) and ``_pairs`` per prefix pair (the
    :class:`_ResolvedPair`: the Internet leg and, once steered, the
    candidate RTTs and the PoP detour); ``_local_exit`` is the one
    steering-only memo.  Cache contents depend only on the service's
    converged state — never on a campaign's config, seed or steering
    policy — so one resolver serves every engine run over the *same*
    service: the engine, each pool worker and each in-process run of the
    shard runner hold one, and warm caches change *when* resolution work
    happens, never what is resolved.
    """

    def __init__(self, service: VideoNetworkService) -> None:
        self.service = service
        self._entry: dict[Prefix, tuple[str, DataPath] | None] = {}
        self._onward: dict[tuple[str, Prefix], tuple[DataPath, str] | None] = {}
        # The Internet leg is resolved once per pair, so it lives only in
        # the pair cache, as its view.  A resolved pair is stored bare; a
        # failure as the shared ``_Unresolved`` of its kind, which says
        # which legs the original miss consulted, so cache hits only
        # re-count those legs (an entry-PoP failure short-circuits before
        # either leg).
        self._pairs: dict[tuple[Prefix, Prefix], _ResolvedPair | _Unresolved] = {}
        # A detour's exit depends on (entry PoP, dst prefix), not the pair:
        # per pair it would ask the service about four times as often.
        self._local_exit: dict[tuple[str, Prefix], DataPath | None] = {}

    def warm_pairs(self, pairs: "Iterable[tuple[Prefix, Prefix]]") -> int:
        """Pre-resolve prefix pairs into the path caches.

        The shard warmup hook: workers run this once over a campaign's
        unique pair manifest before the first shard lands, so the
        per-shard resolve phase is all cache hits.  Counts nothing into
        any campaign's :class:`CampaignStats` (a scratch instance absorbs
        the miss accounting) and therefore cannot perturb reports.
        Returns the number of pairs that resolved to usable paths.
        """
        scratch = CampaignStats()
        resolved = 0
        with perf.timer("workload.warmup"):
            for src_prefix, dst_prefix in pairs:
                if self.resolve_pair(src_prefix, dst_prefix, scratch) is not None:
                    resolved += 1
        return resolved

    def _entry_leg(self, prefix: Prefix) -> tuple[str, DataPath] | None:
        """The prefix's anycast entry PoP and the last mile to it."""
        entry = self._entry.get(prefix, _MISS)
        if entry is _MISS:
            location = self.service.topology.prefix_location[prefix]
            asn = self.service.topology.origin_of[prefix]
            pop = self.service.anycast.entry_pop(asn, location)
            entry = self._entry[prefix] = (
                None
                if pop is None
                else (pop.code, self.service.last_mile_path(prefix, location, pop.code))
            )
        return entry

    def _onward_leg(
        self, entry_pop: str, dst_prefix: Prefix, stats: CampaignStats
    ) -> tuple[DataPath, str] | None:
        """The onward leg from ``entry_pop`` and its egress PoP."""
        key = (entry_pop, dst_prefix)
        cached = self._onward.get(key, _MISS)
        if cached is not _MISS:
            stats.onward_hits += 1
            return cached
        stats.onward_misses += 1
        decision = self.service.egress_decision(entry_pop, dst_prefix)
        if decision is None:
            self._onward[key] = None
            return None
        path = self.service.path_via_vns(entry_pop, dst_prefix, decision=decision)
        assert path is not None  # decision already resolved
        leg = self._onward[key] = (path, decision.egress_pop)
        return leg

    def _internet_leg(
        self, key: tuple[Prefix, Prefix], stats: CampaignStats
    ) -> PathView | None:
        """The Internet leg's view; asked once per pair, on a pair-cache miss."""
        stats.internet_misses += 1
        src_prefix, dst_prefix = key
        location = self.service.topology.prefix_location
        path = self.service.path_via_internet(
            src_prefix, location[src_prefix], dst_prefix, location[dst_prefix]
        )
        return None if path is None else path_view(path)

    def resolve_pair(
        self, src_prefix: Prefix, dst_prefix: Prefix, stats: CampaignStats | None = None
    ) -> _ResolvedPair | None:
        """Both transports for a prefix pair, through every cache layer.

        What :meth:`VideoNetworkService.call_paths` returns for users at
        the prefixes' true locations, built from the same service-level
        legs; ``None`` when routing fails either way, as there.
        """
        if stats is None:
            stats = CampaignStats()
        key = (src_prefix, dst_prefix)
        cached = self._pairs.get(key)
        if cached is not None:
            # The pair cache short-circuits the per-leg caches; re-count
            # exactly the lookups the original miss performed, so hit
            # rates reflect reuse without inflating legs a failed
            # resolution never consulted.
            if type(cached) is _ResolvedPair:
                stats.onward_hits += 1
                stats.internet_hits += 1
                return cached
            stats.onward_hits += cached.counted_onward
            stats.internet_hits += cached.counted_internet
            return None
        entry = self._entry_leg(src_prefix)
        if entry is None:
            self._pairs[key] = _NO_ENTRY
            return None
        entry_pop, lastmile = entry
        leg = self._onward_leg(entry_pop, dst_prefix, stats)
        if leg is None:
            self._pairs[key] = _NO_ONWARD
            return None
        internet_view = self._internet_leg(key, stats)
        if internet_view is None:
            self._pairs[key] = _NO_INTERNET
            return None
        onward, egress_pop = leg
        pair = _ResolvedPair(
            key=key,
            entry_pop=entry_pop,
            egress_pop=egress_pop,
            vns_view=ids_view(path_view(lastmile)[0] + path_view(onward)[0]),
            internet_view=internet_view,
        )
        self._pairs[key] = pair
        return pair

    def candidates_for(self, pair: _ResolvedPair) -> "PathCandidates":
        """The pair's candidate-transport RTTs (path delay is exact).

        The one-hop PoP detour is the cached last mile to the pair's
        entry PoP followed by the cached forced local exit there
        (:meth:`VideoNetworkService.path_local_exit`; Sec. 4.1) — zero
        backbone circuits; none when the PoP has no external route.  Both
        are kept on the pair: the simulate phase reads the detour back
        from :attr:`_ResolvedPair.via_detour` for detoured streams.
        """
        candidates = pair.candidates
        if candidates is None:
            from repro.steering.policies import PathCandidates

            src_prefix, dst_prefix = pair.key
            key = (pair.entry_pop, dst_prefix)
            exit_leg = self._local_exit.get(key, _MISS)
            if exit_leg is _MISS:
                exit_leg = self._local_exit[key] = self.service.path_local_exit(*key)
            via_detour = None
            if exit_leg is not None:
                via_detour = self._entry_leg(src_prefix)[1].concat(exit_leg)
                via_detour.description = f"call-detour:{src_prefix}->{dst_prefix}"
            pair.via_detour = via_detour
            candidates = pair.candidates = PathCandidates(
                vns_rtt_ms=pair.vns_view[1],
                internet_rtt_ms=pair.internet_view[1],
                detour_rtt_ms=None if via_detour is None else via_detour.rtt_ms(),
                detour_pop=None if via_detour is None else pair.entry_pop,
            )
        return candidates


class CampaignEngine:
    """Runs call campaigns against a :class:`VideoNetworkService`.

    Parameters
    ----------
    service:
        The VNS under test.
    config:
        The frozen :class:`CampaignConfig` (defaults when omitted).
    steering:
        An optional :class:`~repro.steering.engine.SteeringEngine`.
        When present, every resolved call gets a per-call transport
        verdict (VNS / direct Internet / one-hop PoP detour) and the
        report grows offload-rate, backbone-byte and QoE-delta columns.
        Decisions are pure in the call's identity and the engine's
        (static) health table, so steering preserves the sequential-vs-
        sharded byte-identity contract.
    path_model:
        An optional :class:`PathModel` applied to each resolved path in
        the *simulate* phase only — the shared path caches stay pure
        (they depend only on the service's converged state) and steering
        decisions keep seeing the unmodelled candidate RTTs.  The
        transform must be a pure function of the path value, so shard
        workers reproduce the parent's transformed paths exactly and the
        sequential-vs-sharded byte-identity contract holds.
    """

    def __init__(
        self,
        service: VideoNetworkService,
        config: CampaignConfig | None = None,
        *,
        steering: "SteeringEngine | None" = None,
        path_model: "PathModel | None" = None,
    ) -> None:
        self.service = service
        self.config = config if config is not None else CampaignConfig()
        self.steering = steering
        self.path_model = path_model
        #: Resolves prefix pairs to paths and owns the path caches.  A
        #: shard runner's engine resolves through the resolver it was
        #: handed: one built for that run, or a pool worker's, which stays
        #: warm across the shards and runs the pool serves.
        self.resolver = PathResolver(service)

    # ------------------------------------------------------------------ #
    # resolution (delegated to the resolver, which owns the caches)
    # ------------------------------------------------------------------ #

    def warm_pairs(self, pairs: "Iterable[tuple[Prefix, Prefix]]") -> int:
        """:meth:`PathResolver.warm_pairs` on this engine's resolver."""
        return self.resolver.warm_pairs(pairs)

    def resolve_pair(
        self, src_prefix: Prefix, dst_prefix: Prefix, stats: CampaignStats | None = None
    ) -> _ResolvedPair | None:
        """:meth:`PathResolver.resolve_pair` on this engine's resolver."""
        return self.resolver.resolve_pair(src_prefix, dst_prefix, stats)

    # ------------------------------------------------------------------ #
    # phase 2: the simulation kernel
    # ------------------------------------------------------------------ #

    def _modeled_view(self, path: DataPath, transport: str, entry_pop: str) -> PathView:
        """The kernel's view of ``path`` through the path model (of
        ``path`` itself without one).  Each (pair, transport) path is
        transformed once per run: a run simulates each pair's path once.
        """
        model = self.path_model
        if model is None:
            return path_view(path)
        return path_view(model.transform(path, transport, entry_pop=entry_pop))

    def _simulate_columnar(
        self,
        resolved: list[CallSpec],
        pair_of: list[int],
        pairs: list[_ResolvedPair],
        decisions: list["SteeringDecision"],
        stats: CampaignStats,
    ) -> CallResults:
        """Group the calls, simulate every group's streams, index back.

        ``pairs[pair_of[i]]`` holds call ``resolved[i]``'s paths.  A
        group is one :func:`group_key`, coded as one integer over the
        pair, the whole hour and the duration; groups come in
        first-appearance order and keep their calls in list order.  Per
        group: a vns column (salt 0), an internet column (salt 1), and —
        only for groups where some call's steering decision is a PoP
        detour — a detour column (salt 2).  Draw keying is per ``(group
        digest, salt, stream)``, so column order and co-resident groups
        cannot affect any stream's outcome.  Nothing is scattered: a
        call's streams are the rows ``spec_start[column] + position in
        group`` of the kernel's result columns.
        """
        n_calls, n_pairs = len(resolved), len(pairs)
        pair = np.asarray(pair_of, dtype=np.int64)
        hour_bins, hour = np.unique(
            np.array([spec.start_hour_cet for spec in resolved]).astype(np.int64),
            return_inverse=True,
        )
        durations, duration = np.unique(
            np.array([spec.duration_s for spec in resolved], dtype=float),
            return_inverse=True,
        )
        code = (pair * hour_bins.size + hour) * durations.size + duration
        _, first, group = np.unique(code, return_index=True, return_inverse=True)
        order = np.argsort(first)
        first, group = first[order], np.argsort(order)[group]
        sizes = np.bincount(group, minlength=first.size)
        stats.batches, stats.largest_batch = first.size, int(sizes.max(initial=0))
        slot = np.empty(n_calls, dtype=np.int64)  # a call's position in its group
        slot[np.argsort(group, kind="stable")] = np.arange(n_calls) - np.repeat(
            np.cumsum(sizes) - sizes, sizes
        )

        # Per pair, salt by salt: the view of the (modelled) path its
        # groups simulate — the pair's own views when nothing models them.
        group_pair = pair[first]
        views: list[PathView | None]
        if self.path_model is None:
            views = [p.vns_view for p in pairs] + [p.internet_view for p in pairs]
        else:
            views = [self._modeled_view(p.via_vns, "vns", p.entry_pop) for p in pairs]
            views += [
                self._modeled_view(p.via_internet, "internet", p.entry_pop) for p in pairs
            ]
        views += [None] * n_pairs
        detour = np.zeros(first.size, dtype=bool)
        if self.steering is not None:
            from repro.steering.policies import PathChoice

            on_detour = np.fromiter(
                (d.choice is PathChoice.POP_DETOUR for d in decisions), bool, n_calls
            )
            detour = np.bincount(group, on_detour) > 0
            has_path = np.zeros(n_pairs, dtype=bool)
            for p in np.unique(group_pair[detour]).tolist():
                path = pairs[p].via_detour
                if path is not None:
                    has_path[p] = True
                    views[2 * n_pairs + p] = self._modeled_view(
                        path, "detour", pairs[p].entry_pop
                    )
            detour &= has_path[group_pair]

        # The spec table: each group's vns, internet and detour columns.
        per_group = 2 + detour
        spec_first = np.cumsum(per_group) - per_group
        spec_group = np.repeat(np.arange(first.size), per_group)
        salt = np.arange(spec_group.size) - spec_first[spec_group]
        digest: list[int] = []
        for call in first.tolist():
            digest += group_digest(self.config.seed, group_key(resolved[call]))
        streams = simulate_table(
            list(map(views.__getitem__, (salt * n_pairs + group_pair[spec_group]).tolist())),
            sizes[spec_group],
            durations[duration[first]][spec_group],
            hour_bins[hour[first]][spec_group] + 0.5,
            np.array(digest, dtype=np.uint64).reshape(-1, 2)[spec_group],
            salt.astype(np.uint64),
            packets_per_second=self.config.packets_per_second,
            slot_s=self.config.slot_s,
        )

        def row(column: int) -> np.ndarray:
            """Each call's stream row in its group's column of salt ``column``."""
            return streams.spec_start[spec_first + column][group] + slot

        vns_row, inet_row = row(_SALT_VNS), row(_SALT_INTERNET)
        steered_row = None
        if self.steering is not None:
            # The stream a call rode: its VNS stream, its group's detour
            # column when it chose a detour and the group has one, else
            # its Internet stream.
            on_vns = np.fromiter(
                (d.choice is PathChoice.VNS for d in decisions), bool, n_calls
            )
            on_detour &= detour[group]
            steered_row = np.where(
                on_vns, vns_row, np.where(on_detour, row(_SALT_DETOUR), inet_row)
            )
        return CallResults(
            specs=resolved,
            entry_pops=[pairs[p].entry_pop for p in pair_of],
            egress_pops=[pairs[p].egress_pop for p in pair_of],
            streams=streams,
            vns_row=vns_row,
            inet_row=inet_row,
            decisions=decisions if self.steering is not None else None,
            steered_row=steered_row,
        )

    # ------------------------------------------------------------------ #
    # the campaign
    # ------------------------------------------------------------------ #

    def run(self, calls: list[CallSpec]) -> CampaignRun:
        """Run a campaign: resolve every call, simulate in batches, aggregate.

        Calls whose routing fails either way are counted in
        ``stats.calls_failed`` and carry no measurement (the paper's
        campaign likewise only reports completed calls).  Deterministic:
        the same seed and call *set* produce an identical
        :meth:`CampaignReport.to_json`, regardless of call order or of
        how the list was sharded (per-group draw keys, see
        :func:`group_digest`).
        """
        stats = CampaignStats(calls_total=len(calls))
        started = time.perf_counter()
        steering = self.steering
        resolver = self.resolver
        if steering is not None:
            from repro.steering.policies import stream_payload_bytes

        # Phase 1: resolve paths (and, under steering, decide each call's
        # transport); number the distinct resolved pairs as they appear.
        resolved: list[CallSpec] = []
        pair_of: list[int] = []  # parallel to ``resolved``: its index in ``pairs``
        pairs: list[_ResolvedPair] = []
        pair_index: dict[int, int] = {}  # id(pair) -> index (the caches pin pairs)
        decisions: list["SteeringDecision"] = []  # parallel to ``resolved``
        with perf.timer("workload.resolve"):
            for spec in calls:
                pair = resolver.resolve_pair(
                    spec.caller.prefix, spec.callee.prefix, stats
                )
                if pair is None:
                    stats.calls_failed += 1
                    perf.incr("workload.calls.failed")
                    continue
                if spec.multiparty:
                    # Multiparty legs relay via the TURN server at the
                    # caller's anycast entry PoP; campaign relays are open
                    # (no credential set), so every leg is one allocation.
                    stats.turn_allocations += 1
                if steering is not None:
                    decisions.append(
                        steering.decide_for_regions(
                            REGION_CODE[spec.caller.region],
                            REGION_CODE[spec.callee.region],
                            spec.day * 24.0 + spec.start_hour_cet,
                            candidates=resolver.candidates_for(pair),
                            call_id=spec.call_id,
                            payload_bytes=stream_payload_bytes(
                                spec.duration_s,
                                self.config.packets_per_second,
                                self.config.slot_s,
                            ),
                        )
                    )
                index = pair_index.setdefault(id(pair), len(pairs))
                if index == len(pairs):
                    pairs.append(pair)
                resolved.append(spec)
                pair_of.append(index)
        perf.incr("workload.calls", len(calls))

        # Phase 2: group the calls and simulate every group's streams,
        # gathered into campaign-wide array passes; the results stay columns.
        with perf.timer("workload.simulate"):
            results = self._simulate_columnar(resolved, pair_of, pairs, decisions, stats)
        perf.incr("workload.batches", stats.batches)

        # Phase 3: fold the columns into the per-region-pair aggregator.
        aggregator = CampaignAggregator()
        with perf.timer("workload.aggregate"):
            aggregator.add_columns(results)
        stats.elapsed_s = time.perf_counter() - started
        return CampaignRun(
            results=results,
            stats=stats,
            aggregator=aggregator,
            seed=self.config.seed,
            steering_policy=None if steering is None else steering.policy.name,
        )
