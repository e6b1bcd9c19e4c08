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
* **staleness** — entries stop being served once no probe has
  refreshed them within :data:`MAX_AGE_HOURS`;
* **confidence counts** — an entry is only served after
  :data:`MIN_SAMPLES` observations, so one lucky probe round cannot
  trigger an offload.

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

#: EWMA weight of the newest observation.
EWMA_ALPHA = 0.3
#: Width of the diurnal buckets (divides 24).
BUCKET_HOURS = 4.0
#: Entries not refreshed for longer than this are not served.
MAX_AGE_HOURS = 48.0
#: Confidence floor: entries with fewer samples are not served.
MIN_SAMPLES = 3


def bucket_of(hour: float) -> int:
    """The diurnal bucket index of an hour stamp (its hour of day)."""
    return int((hour % 24.0) // BUCKET_HOURS)


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

    def observe(self, rtt_ms: float, loss_fraction: float, t_hours: float) -> None:
        """Fold one probe round in (the first sample seeds the EWMA)."""
        if self.samples == 0:
            self.rtt_ms = rtt_ms
            self.loss_fraction = loss_fraction
        else:
            self.rtt_ms += EWMA_ALPHA * (rtt_ms - self.rtt_ms)
            self.loss_fraction += EWMA_ALPHA * (loss_fraction - self.loss_fraction)
        self.samples += 1
        self.updated_hours = max(self.updated_hours, t_hours)

    def is_stale(self, now_hours: float) -> bool:
        return now_hours - self.updated_hours > MAX_AGE_HOURS

    @property
    def loss_percent(self) -> float:
        return 100.0 * self.loss_fraction


@dataclass(slots=True)
class PathHealthTable:
    """Probe-fed corridor health, queried by the steering policies."""

    _entries: dict[tuple[str, str, str, int], HealthEntry] = field(default_factory=dict)

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
        for bucket in (bucket_of(t_hours), AGGREGATE_BUCKET):
            key = (src_region, dst_region, transport.value, bucket)
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = HealthEntry()
            entry.observe(rtt_ms, loss_fraction, t_hours)

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
        for bucket in (bucket_of(t_hours), AGGREGATE_BUCKET):
            entry = self._entries.get((src_region, dst_region, transport.value, bucket))
            if (
                entry is not None
                and entry.samples >= MIN_SAMPLES
                and not entry.is_stale(t_hours)
            ):
                return entry
        return None

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
