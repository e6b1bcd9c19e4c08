"""Unit tests for IPv4 addresses and prefixes."""

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.net.addressing import DEFAULT_ROUTE, IPv4Address, Prefix


class TestIPv4Address:
    def test_parse_and_format(self):
        addr = IPv4Address.parse("192.0.2.1")
        assert str(addr) == "192.0.2.1"
        assert int(addr) == 0xC0000201

    @pytest.mark.parametrize(
        "text", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1.2.3.-4", ""]
    )
    def test_parse_invalid(self, text):
        with pytest.raises(ValueError):
            IPv4Address.parse(text)

    def test_ordering(self):
        assert IPv4Address.parse("10.0.0.1") < IPv4Address.parse("10.0.0.2")
        assert IPv4Address.parse("9.255.255.255") < IPv4Address.parse("10.0.0.0")

    def test_out_of_range_value(self):
        with pytest.raises(ValueError):
            IPv4Address(1 << 32)
        with pytest.raises(ValueError):
            IPv4Address(-1)


class TestPrefix:
    def test_parse_and_format(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert str(prefix) == "10.0.0.0/8"
        assert prefix.length == 8

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            Prefix.parse("10.0.0.1/8")

    @pytest.mark.parametrize("text", ["10.0.0.0", "10.0.0.0/33", "10.0.0.0/x"])
    def test_parse_invalid(self, text):
        with pytest.raises(ValueError):
            Prefix.parse(text)

    def test_contains_prefix(self):
        outer = Prefix.parse("10.0.0.0/8")
        inner = Prefix.parse("10.5.0.0/16")
        assert outer.contains_prefix(inner)
        assert not inner.contains_prefix(outer)
        assert outer.contains_prefix(outer)

    def test_probe_address_is_network_plus_one(self):
        prefix = Prefix.parse("192.0.2.0/24")
        assert str(prefix.probe_address) == "192.0.2.1"

    def test_probe_address_host_route(self):
        host = Prefix.parse("192.0.2.7/32")
        assert str(host.probe_address) == "192.0.2.7"

    def test_subnets(self):
        subnets = Prefix.parse("10.0.0.0/8").subnets(10)
        assert len(subnets) == 4
        assert str(subnets[1]) == "10.64.0.0/10"

    def test_subnets_shorter_rejected(self):
        with pytest.raises(ValueError):
            Prefix.parse("10.0.0.0/16").subnets(8)

    def test_ordering(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.0.0.0/16")
        c = Prefix.parse("11.0.0.0/8")
        assert a < b < c

    def test_netmask(self):
        assert Prefix.parse("10.0.0.0/8").netmask() == 0xFF000000
        assert DEFAULT_ROUTE.netmask() == 0


class TestPrefixHash:
    """``Prefix`` stores its hash; it must stay the value hash everywhere."""

    def test_built_prefixes_hash_by_value(self, tiny_topology):
        prefixes = list(tiny_topology.prefix_location)
        assert prefixes
        for prefix in prefixes:
            assert hash(prefix) == hash((prefix.network, prefix.length))

    def test_pickle_round_trip_keeps_the_value_hash(self, tiny_topology):
        prefixes = list(tiny_topology.prefix_location)
        restored = pickle.loads(pickle.dumps(prefixes))
        assert restored == prefixes
        assert [hash(p) for p in restored] == [hash((p.network, p.length)) for p in prefixes]
        assert set(restored) == set(prefixes)

    def test_spawned_process_agrees(self, tiny_topology):
        """A pool worker unpickles the stored hash; it must equal the hash
        the worker itself computes from the value."""
        prefixes = list(tiny_topology.prefix_location)[:64]
        values = [(p.network, p.length) for p in prefixes]
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            stored = list(pool.map(hash, prefixes, timeout=120))
            computed = list(pool.map(hash, values, timeout=120))
        assert stored == computed == [hash(value) for value in values]
