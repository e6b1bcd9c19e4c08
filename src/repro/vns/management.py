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
  it never leaks outside VNS.  A border router originates it
  (:meth:`~repro.vns.service.VideoNetworkService.apply_static_more_specific`);
  this interface holds the other two.
"""

from __future__ import annotations

from repro.bgp.attributes import Route
from repro.net.addressing import Prefix
from repro.vns.geo_rr import GeoRouteReflector

#: Preference used to pin forced exits; above any geo-assigned value.
FORCED_EXIT_LP = 100_000


class ManagementInterface:
    """Concrete override store, shared by all reflectors of the AS.

    The interface "communicates with the Quagga-RR and border routers";
    here the reflectors consult it during import.
    """

    def __init__(self) -> None:
        self._forced_exit: dict[Prefix, str] = {}  # prefix -> PoP code
        self._geo_exempt: set[Prefix] = set()

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

    # ----------------------------------------------------------------- #
    # reflector hook
    # ----------------------------------------------------------------- #

    def override_local_pref(
        self, reflector: GeoRouteReflector, route: Route, local_pref: int
    ) -> int | None:
        """Apply overrides during reflector import.

        Returns the LOCAL_PREF to import ``route`` with (``local_pref`` is
        the one import assigned), or ``None`` when geo-routing should
        proceed normally.
        """
        if route.prefix in self._geo_exempt:
            reflector.stats["exempt"] += 1
            return local_pref  # leave LOCAL_PREF as imported: default behaviour
        pop_code = self._forced_exit.get(route.prefix)
        if pop_code is not None:
            reflector.stats["forced"] += 1
            if route.next_hop.startswith(f"{pop_code}-"):
                return FORCED_EXIT_LP
            # Candidate egresses at other PoPs keep (low) geo preference so
            # they remain usable if the forced PoP loses the route.
            return reflector.geo_local_pref(route, local_pref)
        return None
