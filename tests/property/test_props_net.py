"""Property-based tests for addressing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addressing import IPv4Address, Prefix

addresses = st.integers(min_value=0, max_value=(1 << 32) - 1).map(IPv4Address)
lengths = st.integers(min_value=0, max_value=32)


@st.composite
def prefixes(draw):
    address = draw(addresses)
    length = draw(lengths)
    host_bits = 32 - length
    return Prefix(network=address.value >> host_bits << host_bits, length=length)


class TestAddressProperties:
    @given(addresses)
    def test_parse_format_roundtrip(self, address):
        assert IPv4Address.parse(str(address)) == address

    @given(prefixes())
    def test_prefix_parse_roundtrip(self, prefix):
        assert Prefix.parse(str(prefix)) == prefix

    @given(prefixes())
    def test_prefix_contains_its_network(self, prefix):
        assert prefix.contains_prefix(Prefix(network=prefix.network, length=32))
        assert prefix.contains_prefix(Prefix(network=prefix.probe_address.value, length=32))

    @given(prefixes())
    @settings(max_examples=100)
    def test_subnets_partition(self, prefix):
        if prefix.length > 30:
            return
        subnets = prefix.subnets(prefix.length + 2)
        assert len(subnets) == 4
        total = sum(1 << (32 - s.length) for s in subnets)
        assert total == 1 << (32 - prefix.length)
        for subnet in subnets:
            assert prefix.contains_prefix(subnet)

    @given(prefixes(), prefixes())
    def test_containment_antisymmetry(self, a, b):
        if a == b:
            return
        if a.contains_prefix(b):
            assert not b.contains_prefix(a)
