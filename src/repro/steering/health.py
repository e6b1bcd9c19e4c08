"""Per-corridor path-health telemetry: the steering engine's memory.

"Saving Private WAN" steers traffic off the backbone only where direct
Internet quality is *measured* to be comparable; the measurement side of
that loop lives here.  Probe observations (RTT, loss) are folded into a
:class:`PathHealthTable` keyed by directed region pair and transport
(via the VNS backbone vs forced out at the PoP onto the Internet), with:

* **EWMA smoothing** — one exponentially weighted moving average per
  (corridor, transport, diurnal bucket), so a burst of bad rounds decays
  instead of poisoning the corridor forever;
* **diurnal bucketing** — the paper's Fig. 12 shows last-mile loss
  cycling with local busy hours, so health is tracked per hour-of-day
  bucket with an all-day aggregate as fallback;
* **staleness expiry** — entries stop being served (and can be dropped)
  once no probe has refreshed them within ``max_age_hours``;
* **confidence counts** — an entry is only served after ``min_samples``
  observations, so one lucky probe round cannot trigger an offload.

The table is plain data (dicts of dataclasses): it pickles to shard
workers and serialises into reports.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field


class Transport(enum.Enum):
    """How probes (and calls) traverse a corridor."""

    VNS = "vns"  #: entry PoP -> backbone circuits -> egress -> Internet tail
    INTERNET = "internet"  #: forced out of VNS immediately at the PoP

    def __str__(self) -> str:
        return self.value


#: All-day fallback bucket index (real buckets are >= 0).
AGGREGATE_BUCKET = -1


@dataclass(slots=True)
class HealthEntry:
    """EWMA health state for one (corridor, transport, bucket).

    ``rtt_ms`` / ``loss_fraction`` are the smoothed estimates; ``samples``
    is the confidence count and ``updated_hours`` the campaign-absolute
    hour of the latest observation (staleness is judged against it).
    """

    rtt_ms: float = 0.0
    loss_fraction: float = 0.0
    samples: int = 0
    updated_hours: float = -math.inf

    def observe(self, rtt_ms: float, loss_fraction: float, t_hours: float, alpha: float) -> None:
        """Fold one probe round in (the first sample seeds the EWMA)."""
        if self.samples == 0:
            self.rtt_ms = rtt_ms
            self.loss_fraction = loss_fraction
        else:
            self.rtt_ms += alpha * (rtt_ms - self.rtt_ms)
            self.loss_fraction += alpha * (loss_fraction - self.loss_fraction)
        self.samples += 1
        self.updated_hours = max(self.updated_hours, t_hours)

    def is_stale(self, now_hours: float, max_age_hours: float) -> bool:
        return now_hours - self.updated_hours > max_age_hours

    @property
    def loss_percent(self) -> float:
        return 100.0 * self.loss_fraction


@dataclass(slots=True)
class PathHealthTable:
    """Probe-fed corridor health, queried by the steering policies.

    Parameters
    ----------
    alpha:
        EWMA weight of the newest observation (0 < alpha <= 1).
    bucket_hours:
        Width of the diurnal buckets; 24 must be divisible by it.
    max_age_hours:
        Entries older than this are not served by :meth:`lookup` and are
        dropped by :meth:`expire`.
    min_samples:
        Confidence floor: entries with fewer samples are not served.
    """

    alpha: float = 0.3
    bucket_hours: float = 4.0
    max_age_hours: float = 48.0
    min_samples: int = 3
    _entries: dict[tuple[str, str, str, int], HealthEntry] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha!r}")
        if self.bucket_hours <= 0 or (24.0 / self.bucket_hours) % 1.0 != 0.0:
            raise ValueError(
                f"bucket_hours must divide 24, got {self.bucket_hours!r}"
            )
        if self.max_age_hours <= 0:
            raise ValueError(f"max_age_hours must be positive, got {self.max_age_hours!r}")
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {self.min_samples!r}")

    # ------------------------------------------------------------------ #

    def bucket_of(self, hour_cet: float) -> int:
        """The diurnal bucket index of an hour-of-day stamp."""
        return int((hour_cet % 24.0) // self.bucket_hours)

    def observe(
        self,
        src_region: str,
        dst_region: str,
        transport: Transport,
        *,
        rtt_ms: float,
        loss_fraction: float,
        t_hours: float,
    ) -> None:
        """Fold one probe round into its diurnal bucket and the aggregate.

        ``t_hours`` is the campaign-absolute hour (day * 24 + CET hour);
        its hour-of-day picks the bucket.
        """
        buckets = (self.bucket_of(t_hours % 24.0), AGGREGATE_BUCKET)
        for bucket in buckets:
            key = (src_region, dst_region, transport.value, bucket)
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = HealthEntry()
            entry.observe(rtt_ms, loss_fraction, t_hours, self.alpha)

    def lookup(
        self,
        src_region: str,
        dst_region: str,
        transport: Transport,
        *,
        t_hours: float,
    ) -> HealthEntry | None:
        """The freshest confident entry for a corridor at time ``t_hours``.

        The matching diurnal bucket is preferred; a corridor whose bucket
        is unknown, stale, or below the confidence floor falls back to the
        all-day aggregate; ``None`` when neither qualifies.
        """
        for bucket in (self.bucket_of(t_hours % 24.0), AGGREGATE_BUCKET):
            entry = self._entries.get((src_region, dst_region, transport.value, bucket))
            if (
                entry is not None
                and entry.samples >= self.min_samples
                and not entry.is_stale(t_hours, self.max_age_hours)
            ):
                return entry
        return None

    def expire(self, now_hours: float) -> int:
        """Drop every entry stale at ``now_hours``; returns how many."""
        stale = [
            key
            for key, entry in self._entries.items()
            if entry.is_stale(now_hours, self.max_age_hours)
        ]
        for key in stale:
            del self._entries[key]
        return len(stale)

    # ------------------------------------------------------------------ #

    def corridors(self) -> list[tuple[str, str]]:
        """The directed region pairs with any recorded health."""
        return sorted({(src, dst) for src, dst, _, _ in self._entries})

    def __len__(self) -> int:
        return len(self._entries)

    def to_dict(self) -> dict:
        """A JSON-ready view (sorted keys, rounded floats, aggregates only)."""
        rows: dict[str, dict] = {}
        for (src, dst, transport, bucket), entry in sorted(self._entries.items()):
            if bucket != AGGREGATE_BUCKET:
                continue
            rows.setdefault(f"{src}->{dst}", {})[transport] = {
                "rtt_ms": round(entry.rtt_ms, 3),
                "loss_pct": round(entry.loss_percent, 4),
                "samples": entry.samples,
            }
        return rows
