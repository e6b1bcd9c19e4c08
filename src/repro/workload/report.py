"""Campaign QoE aggregation per (source region, destination region).

The paper reports its two-week campaign as per-corridor aggregates:
loss CCDF thresholds (Fig. 9), VNS-vs-Internet dominance (Figs. 6/7),
lossy-slot accounting (Sec. 5.1.2).  A campaign run reduces to the same
shapes here — per directed region pair: delay and loss percentiles,
the fraction of 5-second slots losing at least 2% of their packets, and
the rate at which the VNS transport beats the native Internet path.

Aggregation is streaming: an aggregator folds a run's result columns in
one grouped pass (:meth:`CampaignAggregator.add_columns`; folding calls
one at a time through :meth:`~CampaignAggregator.add` is its oracle) and
two accumulators :meth:`merge <PairAccumulator.merge>` (shard-friendly).
The final :class:`CampaignReport` is a plain dataclass whose
:meth:`~CampaignReport.to_json` is byte-stable for a given campaign —
seeded runs diff clean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.geo.regions import REGION_CODE
from repro.measurement.stats import percentiles

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.workload.engine import CallResult, CallResults


@dataclass(slots=True)
class PairAccumulator:
    """Streaming QoE accumulator for one directed region pair."""

    src: str
    dst: str
    calls: int = 0
    multiparty: int = 0
    #: Raw per-call samples: percentiles need them, and means taken over
    #: the sorted samples are what makes a report permutation-invariant.
    vns_delay_samples: list[float] = field(default_factory=list)
    inet_delay_samples: list[float] = field(default_factory=list)
    vns_loss_samples: list[float] = field(default_factory=list)
    inet_loss_samples: list[float] = field(default_factory=list)
    vns_slots: int = 0
    vns_lossy_slots: int = 0
    inet_slots: int = 0
    inet_lossy_slots: int = 0
    vns_delay_wins: int = 0
    vns_loss_wins: int = 0
    # Steering accounting (all zero / empty when no steering engine ran).
    steered_calls: int = 0
    offloaded_calls: int = 0
    detour_calls: int = 0
    backbone_bytes: int = 0
    backbone_bytes_saved: int = 0
    steered_delay_samples: list[float] = field(default_factory=list)
    steered_loss_samples: list[float] = field(default_factory=list)

    def add(self, result: "CallResult") -> None:
        """Fold one call into the pair."""
        self.calls += 1
        if result.spec.multiparty:
            self.multiparty += 1
        vns, inet = result.via_vns, result.via_internet
        vns_rtt, vns_loss = vns.rtt_ms, vns.loss_percent
        inet_rtt, inet_loss = inet.rtt_ms, inet.loss_percent
        self.vns_delay_samples.append(vns_rtt)
        self.vns_loss_samples.append(vns_loss)
        self.inet_delay_samples.append(inet_rtt)
        self.inet_loss_samples.append(inet_loss)
        self.vns_slots += vns.n_slots
        self.vns_lossy_slots += vns.heavy_loss_slots
        self.inet_slots += inet.n_slots
        self.inet_lossy_slots += inet.heavy_loss_slots
        if vns_rtt <= inet_rtt:
            self.vns_delay_wins += 1
        if vns_loss <= inet_loss:
            self.vns_loss_wins += 1
        decision = result.decision
        if decision is not None:
            self.steered_calls += 1
            self.backbone_bytes += result.backbone_bytes
            steered = result.steered if result.steered is not None else result.via_vns
            self.steered_delay_samples.append(steered.rtt_ms)
            self.steered_loss_samples.append(steered.loss_percent)
            if decision.offloaded:
                self.offloaded_calls += 1
                self.backbone_bytes_saved += result.backbone_bytes
                if decision.choice.value == "pop_detour":
                    self.detour_calls += 1

    def merge(self, other: "PairAccumulator") -> None:
        """Fold another shard's accumulator for the same pair into this one.

        Raises
        ------
        ValueError
            If the pairs differ.
        """
        if (self.src, self.dst) != (other.src, other.dst):
            raise ValueError(
                f"cannot merge pair {other.src}->{other.dst} into {self.src}->{self.dst}"
            )
        self.calls += other.calls
        self.multiparty += other.multiparty
        self.vns_delay_samples.extend(other.vns_delay_samples)
        self.inet_delay_samples.extend(other.inet_delay_samples)
        self.vns_loss_samples.extend(other.vns_loss_samples)
        self.inet_loss_samples.extend(other.inet_loss_samples)
        self.vns_slots += other.vns_slots
        self.vns_lossy_slots += other.vns_lossy_slots
        self.inet_slots += other.inet_slots
        self.inet_lossy_slots += other.inet_lossy_slots
        self.vns_delay_wins += other.vns_delay_wins
        self.vns_loss_wins += other.vns_loss_wins
        self.steered_calls += other.steered_calls
        self.offloaded_calls += other.offloaded_calls
        self.detour_calls += other.detour_calls
        self.backbone_bytes += other.backbone_bytes
        self.backbone_bytes_saved += other.backbone_bytes_saved
        self.steered_delay_samples.extend(other.steered_delay_samples)
        self.steered_loss_samples.extend(other.steered_loss_samples)

    def summary(self) -> dict:
        """The pair's JSON-ready aggregate (floats rounded for stability).

        Every float here is *permutation-invariant*: means and percentiles
        are computed over the sorted sample arrays, so any shard partition
        and merge order of the same calls reproduces the summary — and
        hence :meth:`CampaignReport.to_json` — byte for byte.
        """

        def transport(
            delay_samples: list[float],
            loss_samples: list[float],
            lossy: int,
            slots: int,
        ) -> dict:
            delay_p50, delay_p95 = percentiles(delay_samples, (50, 95))
            loss_p50, loss_p95 = percentiles(loss_samples, (50, 95))
            return {
                "delay_ms": {
                    "mean": round(_stable_mean(delay_samples), 4),
                    "p50": round(delay_p50, 4),
                    "p95": round(delay_p95, 4),
                },
                "loss_pct": {
                    "mean": round(_stable_mean(loss_samples), 6),
                    "p50": round(loss_p50, 6),
                    "p95": round(loss_p95, 6),
                },
                "lossy_slot_fraction": round(lossy / slots, 6) if slots else 0.0,
            }

        summary = {
            "calls": self.calls,
            "multiparty": self.multiparty,
            "vns": transport(
                self.vns_delay_samples,
                self.vns_loss_samples,
                self.vns_lossy_slots,
                self.vns_slots,
            ),
            "internet": transport(
                self.inet_delay_samples,
                self.inet_loss_samples,
                self.inet_lossy_slots,
                self.inet_slots,
            ),
            "vns_delay_win_rate": round(self.vns_delay_wins / self.calls, 6),
            "vns_loss_win_rate": round(self.vns_loss_wins / self.calls, 6),
        }
        if self.steered_calls:
            # Reports without steering keep their exact historical shape;
            # the block appears only when a steering engine decided calls.
            delay_p50, delay_p95 = percentiles(self.steered_delay_samples, (50, 95))
            loss_p50, loss_p95 = percentiles(self.steered_loss_samples, (50, 95))
            summary["steering"] = {
                "steered_calls": self.steered_calls,
                "offloaded_calls": self.offloaded_calls,
                "detour_calls": self.detour_calls,
                "offload_rate": round(self.offloaded_calls / self.steered_calls, 6),
                "backbone_bytes": self.backbone_bytes,
                "backbone_bytes_saved": self.backbone_bytes_saved,
                "steered": {
                    "delay_ms": {
                        "mean": round(_stable_mean(self.steered_delay_samples), 4),
                        "p50": round(delay_p50, 4),
                        "p95": round(delay_p95, 4),
                    },
                    "loss_pct": {
                        "mean": round(_stable_mean(self.steered_loss_samples), 6),
                        "p50": round(loss_p50, 6),
                        "p95": round(loss_p95, 6),
                    },
                },
                "qoe_delta_vs_vns": {
                    "delay_ms_mean": round(
                        _stable_mean(self.steered_delay_samples)
                        - _stable_mean(self.vns_delay_samples),
                        4,
                    ),
                    "loss_pct_mean": round(
                        _stable_mean(self.steered_loss_samples)
                        - _stable_mean(self.vns_loss_samples),
                        6,
                    ),
                },
            }
        return summary


def _stable_mean(samples: list[float]) -> float:
    """Mean over the sorted samples: identical for any sample ordering."""
    if not samples:
        return 0.0
    return float(np.sort(np.asarray(samples, dtype=float)).mean())


class CampaignAggregator:
    """Folds a campaign's calls into per-region-pair accumulators.

    :meth:`add_columns` is the path every campaign takes;
    :meth:`add` folds one materialised :class:`CallResult` and is its
    per-call oracle.
    """

    def __init__(self) -> None:
        self.pairs: dict[tuple[str, str], PairAccumulator] = {}

    def add(self, result: "CallResult") -> None:
        src = REGION_CODE[result.spec.caller.region]
        dst = REGION_CODE[result.spec.callee.region]
        accumulator = self.pairs.get((src, dst))
        if accumulator is None:
            accumulator = PairAccumulator(src=src, dst=dst)
            self.pairs[(src, dst)] = accumulator
        accumulator.add(result)

    def add_columns(self, results: "CallResults") -> None:
        """Fold a run's result columns: one grouped pass over region pairs.

        Leaves every accumulator exactly as folding ``results`` call by
        call through :meth:`add` would — same sample lists in the same
        order, same sums — without building a call or stream object.
        """
        n_calls = len(results)
        if not n_calls:
            return
        specs = results.specs
        pair_code: dict[tuple[str, str], int] = {}  # first-seen order, as ``add``
        codes = np.fromiter(
            (
                pair_code.setdefault(
                    (REGION_CODE[spec.caller.region], REGION_CODE[spec.callee.region]),
                    len(pair_code),
                )
                for spec in specs
            ),
            np.int64,
            n_calls,
        )
        # Calls sorted by pair (stably: call order within a pair); pair g
        # owns sorted positions starts[g]:starts[g + 1].
        order = np.argsort(codes, kind="stable")
        starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
        bounds = [*starts.tolist(), n_calls]

        streams = results.streams

        def loss_percent(rows: np.ndarray) -> np.ndarray:
            # StreamResult.loss_percent, operation for operation.
            return 100.0 * streams.packets_lost[rows] / streams.packets_sent[rows]

        vns, inet = results.vns_row[order], results.inet_row[order]
        vns_rtt, inet_rtt = streams.rtt_ms[vns], streams.rtt_ms[inet]
        vns_loss, inet_loss = loss_percent(vns), loss_percent(inet)
        samples = {
            "vns_delay_samples": vns_rtt,
            "vns_loss_samples": vns_loss,
            "inet_delay_samples": inet_rtt,
            "inet_loss_samples": inet_loss,
        }
        counts = {
            "calls": np.ones(n_calls, dtype=np.int64),
            "multiparty": np.fromiter((spec.multiparty for spec in specs), bool, n_calls)[order],
            "vns_slots": streams.n_slots[vns],
            "vns_lossy_slots": streams.heavy_loss_slots[vns],
            "inet_slots": streams.n_slots[inet],
            "inet_lossy_slots": streams.heavy_loss_slots[inet],
            "vns_delay_wins": vns_rtt <= inet_rtt,
            "vns_loss_wins": vns_loss <= inet_loss,
        }
        decisions = results.decisions
        if decisions is not None:
            steered = results.steered_row[order]
            offloaded = np.fromiter((d.offloaded for d in decisions), bool, n_calls)[order]
            detour = np.fromiter(
                (d.choice.value == "pop_detour" for d in decisions), bool, n_calls
            )[order]
            backbone = results.backbone_bytes[order]
            samples["steered_delay_samples"] = streams.rtt_ms[steered]
            samples["steered_loss_samples"] = loss_percent(steered)
            counts["steered_calls"] = counts["calls"]
            counts["offloaded_calls"] = offloaded
            counts["detour_calls"] = detour
            counts["backbone_bytes"] = backbone
            counts["backbone_bytes_saved"] = np.where(offloaded, backbone, 0)
        sums = {
            name: np.add.reduceat(column.astype(np.int64), starts).tolist()
            for name, column in counts.items()
        }
        for (src, dst), g in pair_code.items():
            accumulator = self.pairs.get((src, dst))
            if accumulator is None:
                accumulator = self.pairs[(src, dst)] = PairAccumulator(src=src, dst=dst)
            lo, hi = bounds[g], bounds[g + 1]
            for name, column in samples.items():
                getattr(accumulator, name).extend(column[lo:hi].tolist())
            for name, per_pair in sums.items():
                setattr(accumulator, name, getattr(accumulator, name) + per_pair[g])

    def merge(self, other: "CampaignAggregator") -> None:
        """Fold another shard's aggregator into this one."""
        for key, accumulator in other.pairs.items():
            mine = self.pairs.get(key)
            if mine is None:
                self.pairs[key] = accumulator
            else:
                mine.merge(accumulator)

    def report(
        self,
        *,
        seed: int,
        n_failed: int = 0,
        turn_allocations: int = 0,
        steering_policy: str | None = None,
    ) -> "CampaignReport":
        """Freeze the accumulated state into a :class:`CampaignReport`.

        ``steering_policy`` names the policy that decided the campaign's
        calls; passing it adds the campaign-wide ``steering`` block
        (offload rate, backbone bytes saved, QoE delta vs always-VNS).
        """
        pair_summaries = {
            f"{src}->{dst}": accumulator.summary()
            for (src, dst), accumulator in self.pairs.items()
        }
        steering = None
        if steering_policy is not None:
            steering = self._steering_summary(steering_policy)
        return CampaignReport(
            seed=seed,
            n_calls=sum(a.calls for a in self.pairs.values()),
            n_failed=n_failed,
            turn_allocations=turn_allocations,
            pairs=pair_summaries,
            steering=steering,
        )

    def _steering_summary(self, policy: str) -> dict:
        """The campaign-wide steering aggregate (permutation-invariant:
        counts sum, means run over sorted concatenated samples)."""
        accumulators = list(self.pairs.values())
        steered = sum(a.steered_calls for a in accumulators)
        offloaded = sum(a.offloaded_calls for a in accumulators)
        total_bytes = sum(a.backbone_bytes for a in accumulators)
        saved_bytes = sum(a.backbone_bytes_saved for a in accumulators)
        steered_delay = [s for a in accumulators for s in a.steered_delay_samples]
        steered_loss = [s for a in accumulators for s in a.steered_loss_samples]
        vns_delay = [s for a in accumulators for s in a.vns_delay_samples]
        vns_loss = [s for a in accumulators for s in a.vns_loss_samples]
        return {
            "policy": policy,
            "steered_calls": steered,
            "offloaded_calls": offloaded,
            "detour_calls": sum(a.detour_calls for a in accumulators),
            "offload_rate": round(offloaded / steered, 6) if steered else 0.0,
            "backbone_bytes": total_bytes,
            "backbone_bytes_saved": saved_bytes,
            "backbone_saved_fraction": (
                round(saved_bytes / total_bytes, 6) if total_bytes else 0.0
            ),
            "qoe_delta_vs_vns": {
                "delay_ms_mean": round(
                    _stable_mean(steered_delay) - _stable_mean(vns_delay), 4
                ),
                "loss_pct_mean": round(
                    _stable_mean(steered_loss) - _stable_mean(vns_loss), 6
                ),
            },
        }


@dataclass(slots=True)
class CampaignReport:
    """The campaign's aggregate result, JSON-stable under a seed.

    ``steering`` is the campaign-wide policy aggregate (offload rate,
    backbone bytes saved, QoE delta vs always-VNS), present only when a
    steering engine decided the campaign's calls — reports without
    steering serialise exactly as before.
    """

    seed: int
    n_calls: int
    n_failed: int
    turn_allocations: int
    pairs: dict[str, dict]
    steering: dict | None = None

    def pair(self, src_code: str, dst_code: str) -> dict | None:
        """One directed pair's summary, or ``None`` if no calls matched."""
        return self.pairs.get(f"{src_code}->{dst_code}")

    def to_dict(self) -> dict:
        payload = {
            "seed": self.seed,
            "n_calls": self.n_calls,
            "n_failed": self.n_failed,
            "turn_allocations": self.turn_allocations,
            "pairs": self.pairs,
        }
        if self.steering is not None:
            payload["steering"] = self.steering
        return payload

    def to_json(self) -> str:
        """A stable serialisation: sorted keys, rounded floats."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
