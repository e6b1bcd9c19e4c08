"""IPv4 addresses and CIDR prefixes.

A tiny, fast re-implementation of the parts of IPv4 addressing the
simulation needs.  ``ipaddress`` from the standard library would work, but a
purpose-built value type with cheap hashing and ordering keeps routing-table
operations (the hot path of the BGP simulator) inexpensive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, total_ordering

_MAX_ADDRESS = (1 << 32) - 1


def _parse_dotted_quad(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"invalid IPv4 address {text!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"invalid IPv4 address {text!r}")
        value = (value << 8) | octet
    return value


def _format_dotted_quad(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@lru_cache(maxsize=None)
def _render_prefix(network: int, length: int) -> str:
    """Memoised CIDR rendering — campaign reports stringify the same few
    thousand prefixes tens of thousands of times per run."""
    return f"{_format_dotted_quad(network)}/{length}"


@total_ordering
@dataclass(frozen=True, slots=True)
class IPv4Address:
    """A single IPv4 address, stored as an unsigned 32-bit integer."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= _MAX_ADDRESS:
            raise ValueError(f"address value {self.value!r} outside 32-bit range")

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        """Parse dotted-quad notation, e.g. ``"192.0.2.1"``."""
        return cls(_parse_dotted_quad(text))

    def __str__(self) -> str:
        return _format_dotted_quad(self.value)

    def __lt__(self, other: "IPv4Address") -> bool:
        if not isinstance(other, IPv4Address):
            return NotImplemented
        return self.value < other.value

    def __int__(self) -> int:
        return self.value


@total_ordering
@dataclass(frozen=True, slots=True)
class Prefix:
    """A CIDR prefix such as ``192.0.2.0/24``.

    ``network`` must have all host bits zero; the constructor enforces this
    so that two representations of the same prefix always compare equal.
    """

    network: int
    length: int
    #: value hash, precomputed once — prefixes key every RIB dict, and the
    #: generated dataclass hash led the control plane's profile.  It is
    #: pickled with the prefix, which is sound only because the key is
    #: ints: a ``str`` hash is salted per process, so a str-keyed type
    #: storing one would carry a stale hash into spawned pool workers.
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length {self.length!r} outside [0, 32]")
        if not 0 <= self.network <= _MAX_ADDRESS:
            raise ValueError(f"network value {self.network!r} outside 32-bit range")
        if self.network & ~self.netmask():
            raise ValueError(
                f"network {_format_dotted_quad(self.network)} has host bits set "
                f"for /{self.length}"
            )
        object.__setattr__(self, "_hash", hash((self.network, self.length)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse CIDR notation, e.g. ``"10.0.0.0/8"``."""
        try:
            addr_text, length_text = text.split("/")
        except ValueError:
            raise ValueError(f"invalid prefix {text!r}: missing '/'") from None
        if not length_text.isdigit():
            raise ValueError(f"invalid prefix length in {text!r}")
        return cls(network=_parse_dotted_quad(addr_text), length=int(length_text))

    def netmask(self) -> int:
        """The netmask as a 32-bit integer."""
        if self.length == 0:
            return 0
        return (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF

    def contains_prefix(self, other: "Prefix") -> bool:
        """Whether ``other`` is equal to or more specific than this prefix."""
        if other.length < self.length:
            return False
        return (other.network & self.netmask()) == self.network

    @property
    def probe_address(self) -> IPv4Address:
        """First host address (network + 1), the paper's probe target."""
        if self.length == 32:
            return IPv4Address(self.network)
        return IPv4Address(self.network + 1)

    def subnets(self, new_length: int) -> tuple["Prefix", ...]:
        """All subnets of this prefix at ``new_length``.

        Raises
        ------
        ValueError
            If ``new_length`` is shorter than the current length.
        """
        if new_length < self.length:
            raise ValueError(
                f"cannot subnet /{self.length} into shorter /{new_length}"
            )
        if new_length > 32:
            raise ValueError(f"prefix length {new_length!r} outside [0, 32]")
        step = 1 << (32 - new_length)
        count = 1 << (new_length - self.length)
        return tuple(
            Prefix(network=self.network + i * step, length=new_length)
            for i in range(count)
        )

    def __str__(self) -> str:
        return _render_prefix(self.network, self.length)

    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (self.network, self.length) < (other.network, other.length)


#: The IPv4 default route.
DEFAULT_ROUTE = Prefix(network=0, length=0)
