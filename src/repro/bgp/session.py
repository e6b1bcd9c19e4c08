"""BGP session descriptors."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class SessionType(enum.Enum):
    """Whether a session crosses an AS boundary."""

    EBGP = "eBGP"
    IBGP = "iBGP"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Session:
    """One side of a BGP session, as configured on a speaker.

    Parameters
    ----------
    peer_id:
        The remote speaker's identifier.
    session_type:
        eBGP or iBGP.
    peer_asn:
        The remote AS number (equals the local ASN for iBGP).
    rr_client:
        On a route reflector: whether the remote speaker is a client.
        Ignored on ordinary speakers.
    """

    peer_id: str
    session_type: SessionType
    peer_asn: int
    rr_client: bool = False
    #: derived from ``session_type`` once: the speakers read them per message.
    is_ebgp: bool = field(init=False, repr=False, compare=False, default=False)
    is_ibgp: bool = field(init=False, repr=False, compare=False, default=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "is_ebgp", self.session_type is SessionType.EBGP)
        object.__setattr__(self, "is_ibgp", self.session_type is SessionType.IBGP)
