"""The management interface of Sec. 3.2 ("Overriding Geo-routing").

Two failure cases require manual override: (a) the geographically closest
PoP is not the closest data-plane-wise (routing policies), and (b)
subnets of a contiguous prefix are geographically spread.  The interface
supports:

* **force-exit** — pin a prefix's egress to a specific PoP;
* **geo-exempt** — exclude a prefix from geo-routing entirely (globally
  spread prefixes), reverting it to default BGP behaviour;
* **static more-specifics** — have the PoP closest to a remote subnet
  statically advertise the more-specific prefix, tagged ``no-export`` so
  it never leaks outside VNS.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bgp.attributes import NO_EXPORT, Route
from repro.net.addressing import Prefix
from repro.vns.geo_rr import GeoRouteReflector, ManagementHook

#: Preference used to pin forced exits; above any geo-assigned value.
FORCED_EXIT_LP = 100_000


class ManagementInterface(ManagementHook):
    """Concrete override store, shared by all reflectors of the AS.

    The interface "communicates with the Quagga-RR and border routers";
    here the reflectors consult it during import, and the network builder
    consults it for static more-specific originations.
    """

    def __init__(self) -> None:
        self._forced_exit: dict[Prefix, str] = {}  # prefix -> PoP code
        self._geo_exempt: set[Prefix] = set()
        self._static_more_specifics: dict[Prefix, str] = {}  # prefix -> PoP code

    # ----------------------------------------------------------------- #
    # operator actions
    # ----------------------------------------------------------------- #

    def force_exit(self, prefix: Prefix, pop_code: str) -> None:
        """Pin ``prefix``'s egress to the PoP with ``pop_code``."""
        self._forced_exit[prefix] = pop_code

    def clear_forced_exit(self, prefix: Prefix) -> None:
        """Remove a force-exit override (no-op if absent)."""
        self._forced_exit.pop(prefix, None)

    def exempt_from_geo(self, prefix: Prefix) -> None:
        """Exclude ``prefix`` from geo-routing (globally spread prefix)."""
        self._geo_exempt.add(prefix)

    def clear_exemption(self, prefix: Prefix) -> None:
        """Remove a geo exemption (no-op if absent)."""
        self._geo_exempt.discard(prefix)

    def add_static_more_specific(self, prefix: Prefix, pop_code: str) -> None:
        """Register a more-specific to be advertised from ``pop_code``.

        The builder/service layer performs the actual origination on a
        border router at that PoP, tagged with :data:`NO_EXPORT`.
        """
        self._static_more_specifics[prefix] = pop_code

    # ----------------------------------------------------------------- #
    # queries
    # ----------------------------------------------------------------- #

    def static_more_specifics(self) -> dict[Prefix, str]:
        """All registered more-specifics (prefix → PoP code)."""
        return dict(self._static_more_specifics)

    def overrides_count(self) -> int:
        """Total number of active overrides of any kind."""
        return (
            len(self._forced_exit)
            + len(self._geo_exempt)
            + len(self._static_more_specifics)
        )

    # ----------------------------------------------------------------- #
    # reflector hook
    # ----------------------------------------------------------------- #

    def transform(self, reflector: GeoRouteReflector, route: Route) -> Route | None:
        """Apply overrides during reflector import.

        Returns the fully handled route, or ``None`` when geo-routing
        should proceed normally.
        """
        if route.prefix in self._geo_exempt:
            reflector.stats["exempt"] += 1
            return route  # leave LOCAL_PREF as imported: default behaviour
        pop_code = self._forced_exit.get(route.prefix)
        if pop_code is not None:
            reflector.stats["forced"] += 1
            if route.next_hop.startswith(f"{pop_code}-"):
                return replace(route, local_pref=FORCED_EXIT_LP)
            # Candidate egresses at other PoPs keep (low) geo preference so
            # they remain usable if the forced PoP loses the route.
            return reflector.assign_geo_preference(route)
        return None


def tag_no_export(route: Route) -> Route:
    """Tag a route with the ``no-export`` community."""
    return route.with_communities(NO_EXPORT)
