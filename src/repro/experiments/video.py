"""The Sec. 5.1 video streaming campaign, shared by Fig. 9 and Fig. 10.

"We send a bidirectional HD video stream between B and C through VNS
infrastructure and through upstream providers simultaneously.  Traffic is
sent from four clients located at PoPs in Australia, Hong Kong,
Netherlands, and US West Coast to echo SIP servers located inside VNS
network in Europe (EU), Asia Pacific (AP), and North America (NA).  We
use two echo servers in each region. [...] The pre-recorded streams are
streamed to all six echo servers by each client for two minutes once
every half hour."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataplane.columnar import StreamColumnSpec, simulate_columns, spec_digest
from repro.experiments.common import World
from repro.geo.regions import PopRegion
from repro.measurement.scheduler import rounds_every
from repro.media.codec import PROFILE_1080P, VideoProfile

#: The four client sites (Sydney, Hong Kong, Amsterdam, San Jose).
CLIENT_POPS = ("SYD", "HK", "AMS", "SJS")

#: Every session streams the paper's two-minute video.
SESSION_S = 120.0

#: Two echo servers per region, hosted at these PoPs.
ECHO_POPS: dict[PopRegion, tuple[str, str]] = {
    PopRegion.EU: ("AMS", "FRA"),
    PopRegion.AP: ("SIN", "HK"),
    PopRegion.NA: ("SJS", "ASH"),
}

#: The label tables the campaign's ``server`` / ``region`` / ``transport``
#: codes index.  Transport "I" is internal (VNS), "T" transit (upstreams).
SERVER_POPS = tuple(pop for pops in ECHO_POPS.values() for pop in pops)
REGIONS = tuple(ECHO_POPS)
TRANSPORTS = ("I", "T")
#: Each server's code into :data:`REGIONS`.
SERVER_REGION = tuple(code for code, pops in enumerate(ECHO_POPS.values()) for _ in pops)


@dataclass(slots=True, eq=False)
class VideoCampaignResult:
    """Every session of one campaign run, one array entry per session.

    Label columns hold codes: ``client`` into :attr:`clients`, ``profile``
    into :attr:`profiles`, ``server`` / ``region`` / ``transport`` into
    :data:`SERVER_POPS` / :data:`REGIONS` / :data:`TRANSPORTS`.  Loss
    columns describe the forward stream; ``jitter_p95_ms`` is the worse
    of the two legs.
    """

    clients: tuple[str, ...]
    profiles: tuple[VideoProfile, ...]
    client: np.ndarray
    server: np.ndarray
    region: np.ndarray
    transport: np.ndarray
    profile: np.ndarray
    day: np.ndarray
    hour: np.ndarray
    loss_percent: np.ndarray
    lossy_slots: np.ndarray
    n_slots: np.ndarray
    jitter_p95_ms: np.ndarray

    def __len__(self) -> int:
        return self.day.size

    def mask(
        self,
        client_pop: str | None = None,
        dest_region: PopRegion | None = None,
        transport: str | None = None,
        profile: VideoProfile | None = None,
    ) -> np.ndarray:
        """The sessions carrying every given label, as a boolean mask."""
        rows = np.ones(len(self), dtype=bool)
        for column, labels, value in (
            (self.client, self.clients, client_pop),
            (self.region, REGIONS, dest_region),
            (self.transport, TRANSPORTS, transport),
            (self.profile, self.profiles, profile),
        ):
            if value is not None:
                rows &= column == (labels.index(value) if value in labels else -1)
        return rows

    def loss_values(
        self,
        client_pop: str,
        dest_region: PopRegion,
        transport: str,
    ) -> list[float]:
        """Loss percentages for one Fig. 9 curve (its 1080p streams)."""
        rows = self.mask(client_pop, dest_region, transport, PROFILE_1080P)
        return self.loss_percent[rows].tolist()

    def jitter_values(self, profile: VideoProfile) -> list[float]:
        """Jitter samples for the Sec. 5.1.1 jitter summary."""
        return self.jitter_p95_ms[self.mask(profile=profile)].tolist()


def run_video_campaign(
    world: World,
    *,
    days: int = 1,
    minutes_between_rounds: float = 120.0,
    profiles: tuple[VideoProfile, ...] = (PROFILE_1080P,),
    client_pops: tuple[str, ...] = CLIENT_POPS,
) -> VideoCampaignResult:
    """Run the campaign: one :func:`simulate_columns` call per profile.

    The paper ran every half hour for two weeks (576 videos per client
    per definition per day); the defaults here are scaled down.  A spec
    holds one (client, server, profile, transport, round hour)'s
    sessions, one stream per day, keyed by the digest of those labels:
    the client's streams under salt 0, their echoes over the reversed
    path under salt 1.  So a session's draws do not depend on which other
    sessions the campaign runs.

    Raises
    ------
    ValueError
        Wherever :func:`simulate_columns` does (fewer than one day leaves
        the specs no streams).
    """
    service = world.service
    hours = [round_.hour_cet for round_ in rounds_every(minutes_between_rounds, 1)]
    specs = []  # (client, server, transport, hour) codes, then both paths
    for client, client_pop in enumerate(client_pops):
        for server, server_pop in enumerate(SERVER_POPS):
            vns = service.vns_internal_path(client_pop, server_pop)
            transit = service.path_between_pops_via_upstream(client_pop, server_pop)
            for transport, path in enumerate((vns, transit)):
                echo = path.reversed()
                specs += [(client, server, transport, hour, path, echo) for hour in hours]
    client, server, transport, hour, forward, echoed = zip(*specs)

    measured = []
    for profile in profiles:
        digests = [
            spec_digest(
                f"{world.seed}|{client_pops[c]}|{SERVER_POPS[s]}"
                f"|{profile.name}|{TRANSPORTS[t]}|{h:.6f}"
            )
            for c, s, t, h in zip(client, server, transport, hour)
        ]
        columns = simulate_columns(
            [
                StreamColumnSpec(path, days, SESSION_S, h, digest, salt)
                for salt, paths in enumerate((forward, echoed))
                for path, h, digest in zip(paths, hour, digests)
            ],
            packets_per_second=profile.packets_per_second,
        )
        n = len(specs) * days  # forward rows, spec-major and one per day; echoes follow
        measured.append(
            (
                100.0 * columns.packets_lost[:n] / columns.packets_sent[:n],
                columns.lossy_slots()[:n],
                columns.n_slots[:n],
                np.maximum(columns.jitter_p95_ms[:n], columns.jitter_p95_ms[n:]),
            )
        )

    def per_session(spec_column) -> np.ndarray:
        return np.tile(np.repeat(spec_column, days), len(profiles))

    loss_percent, lossy_slots, n_slots, jitter_p95_ms = map(np.concatenate, zip(*measured))
    return VideoCampaignResult(
        clients=tuple(client_pops),
        profiles=tuple(profiles),
        client=per_session(client),
        server=per_session(server),
        region=per_session(np.take(SERVER_REGION, server)),
        transport=per_session(transport),
        profile=np.repeat(np.arange(len(profiles)), len(specs) * days),
        day=np.tile(np.arange(days), len(specs) * len(profiles)),
        hour=per_session(hour),
        loss_percent=loss_percent,
        lossy_slots=lossy_slots,
        n_slots=n_slots,
        jitter_p95_ms=jitter_p95_ms,
    )
