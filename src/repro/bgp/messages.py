"""BGP UPDATE messages (announcements and withdrawals).

Also defines :class:`IgpNotification`, the intra-router event the IGP
delivers when its topology view changes: real speakers re-validate BGP
next hops and re-run selection when SPF moves.  With next-hop tracking
the IGP names the next hops whose metric moved and the speaker re-decides
only the prefixes that resolve through one of them; without it the
speaker walks its whole table (the BGP scanner).  Modelling it as a
queued message rather than a synchronous callback means remote routers
react in delivery order, which is what creates an observable window of
stale forwarding decisions after a fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple

from repro.bgp.attributes import Route
from repro.net.addressing import Prefix


class Update(NamedTuple):
    """An announcement of a route, addressed between two speakers.

    A tuple, like :class:`~repro.bgp.attributes.Route`: one is built per
    message, so construction and field reads run in C.
    """

    sender: str
    receiver: str
    route: Route

    @property
    def prefix(self) -> Prefix:
        return self.route.prefix

    def __str__(self) -> str:
        return f"UPDATE {self.sender}->{self.receiver}: {self.route}"


class Withdraw(NamedTuple):
    """A withdrawal of a previously announced prefix (a tuple, as :class:`Update`)."""

    sender: str
    receiver: str
    prefix: Prefix

    def __str__(self) -> str:
        return f"WITHDRAW {self.sender}->{self.receiver}: {self.prefix}"


@dataclass(frozen=True, slots=True)
class IgpNotification:
    """The IGP tells one speaker that next-hop reachability/costs changed.

    ``changed`` is the set of BGP next hops whose IGP metric, seen from
    the receiver, moved in the SPF run that triggered the notification;
    ``None`` means "unknown — re-validate everything".
    """

    receiver: str
    sender: ClassVar[str] = "igp"
    changed: frozenset[str] | None = None

    def __str__(self) -> str:
        return f"IGP-EVENT ->{self.receiver}"


#: Any message kind the engine delivers.
Message = Update | Withdraw | IgpNotification
