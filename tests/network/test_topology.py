"""Tests for repro.network.topology."""

import pytest

from repro.errors import TopologyError, UnknownSiteError
from repro.network.site import Site, SiteKind
from repro.network.topology import (
    LOCAL_BANDWIDTH_MBPS,
    LOCAL_LATENCY_MS,
    Topology,
)


@pytest.fixture
def topo():
    t = Topology(
        [
            Site("a", SiteKind.EDGE, 2),
            Site("b", SiteKind.DATA_CENTER, 8),
        ]
    )
    t.set_link("a", "b", 10.0, 50.0)
    t.set_link("b", "a", 20.0, 50.0)
    return t


class TestSites:
    def test_lookup(self, topo):
        assert topo.site("a").name == "a"

    def test_unknown_site(self, topo):
        with pytest.raises(UnknownSiteError):
            topo.site("zzz")

    def test_contains(self, topo):
        assert "a" in topo and "zzz" not in topo

    def test_duplicate_names_rejected(self):
        with pytest.raises(TopologyError):
            Topology([Site("a", SiteKind.EDGE, 1), Site("a", SiteKind.EDGE, 1)])

    def test_sites_of_kind(self, topo):
        assert [s.name for s in topo.sites_of_kind(SiteKind.EDGE)] == ["a"]

    def test_available_slots_map(self, topo):
        topo.site("b").allocate(3)
        assert topo.available_slots() == {"a": 2, "b": 5}

    def test_available_slots_zero_for_failed(self, topo):
        topo.site("a").fail()
        assert topo.available_slots()["a"] == 0

    def test_total_used_slots(self, topo):
        topo.site("a").allocate(1)
        topo.site("b").allocate(2)
        assert topo.total_used_slots() == 3


class TestLinks:
    def test_directional_bandwidth(self, topo):
        assert topo.bandwidth_mbps("a", "b") == 10.0
        assert topo.bandwidth_mbps("b", "a") == 20.0

    def test_latency(self, topo):
        assert topo.latency_ms("a", "b") == 50.0

    def test_local_transfers_effectively_free(self, topo):
        assert topo.bandwidth_mbps("a", "a") == LOCAL_BANDWIDTH_MBPS
        assert topo.latency_ms("a", "a") == LOCAL_LATENCY_MS

    def test_undefined_link_rejected(self):
        topo = Topology([Site("a", SiteKind.EDGE, 1), Site("b", SiteKind.EDGE, 1)])
        with pytest.raises(TopologyError):
            topo.bandwidth_mbps("a", "b")

    def test_self_link_rejected(self, topo):
        with pytest.raises(TopologyError):
            topo.set_link("a", "a", 1.0, 1.0)

    def test_zero_bandwidth_rejected(self, topo):
        with pytest.raises(TopologyError):
            topo.set_link("a", "b", 0.0, 1.0)

    def test_negative_latency_rejected(self, topo):
        with pytest.raises(TopologyError):
            topo.set_link("a", "b", 1.0, -1.0)

    def test_links_lists_current_values(self, topo):
        links = {(l.src, l.dst): l.bandwidth_mbps for l in topo.links()}
        assert links[("a", "b")] == 10.0

    def test_fully_connected(self, topo):
        assert topo.fully_connected()

    def test_not_fully_connected(self):
        topo = Topology([Site("a", SiteKind.EDGE, 1), Site("b", SiteKind.EDGE, 1)])
        topo.set_link("a", "b", 1.0, 1.0)
        assert not topo.fully_connected()


class TestDynamics:
    def test_per_link_factor(self, topo):
        topo.set_bandwidth_factor("a", "b", 0.5)
        assert topo.bandwidth_mbps("a", "b") == 5.0
        assert topo.bandwidth_mbps("b", "a") == 20.0  # untouched

    def test_global_factor(self, topo):
        topo.set_global_bandwidth_factor(0.5)
        assert topo.bandwidth_mbps("a", "b") == 5.0
        assert topo.bandwidth_mbps("b", "a") == 10.0

    def test_restore_is_exact(self, topo):
        """Section 8.4 halves at t=900 and restores at t=1200."""
        topo.set_global_bandwidth_factor(0.5)
        topo.set_global_bandwidth_factor(1.0)
        assert topo.bandwidth_mbps("a", "b") == 10.0

    def test_factor_on_undefined_link_rejected(self, topo):
        with pytest.raises(TopologyError):
            topo.set_bandwidth_factor("b", "b", 0.5)

    def test_negative_factor_rejected(self, topo):
        with pytest.raises(TopologyError):
            topo.set_global_bandwidth_factor(-1.0)

    def test_factor_query(self, topo):
        topo.set_bandwidth_factor("a", "b", 0.25)
        assert topo.bandwidth_factor("a", "b") == 0.25
        assert topo.bandwidth_factor("b", "a") == 1.0


class TestLinkTable:
    def test_rows_follow_sorted_keys(self, topo):
        table = topo.link_table()
        assert table.keys == [("a", "b"), ("b", "a")]
        assert table.index == {("a", "b"): 0, ("b", "a"): 1}
        assert table.latency_ms.tolist() == [50.0, 50.0]

    def test_current_bandwidth_matches_scalar_reads(self, testbed):
        testbed.set_global_bandwidth_factor(0.7)
        src, dst = testbed.link_table().keys[3]
        testbed.set_bandwidth_factor(src, dst, 0.3)
        table = testbed.link_table()
        assert table.bandwidth_mbps.tolist() == [
            testbed.bandwidth_mbps(s, d) for s, d in table.keys
        ]
        assert [
            (l.src, l.dst, l.bandwidth_mbps, l.latency_ms)
            for l in testbed.links()
        ] == [
            (s, d, testbed.bandwidth_mbps(s, d), testbed.latency_ms(s, d))
            for s, d in table.keys
        ]

    def test_cached_until_a_factor_changes(self, topo):
        snapshot = topo.link_table().bandwidth_mbps
        assert topo.link_table().bandwidth_mbps is snapshot
        topo.set_global_bandwidth_factor(1.0)  # no change, no recompute
        assert topo.link_table().bandwidth_mbps is snapshot
        topo.set_bandwidth_factor("a", "b", 0.5)
        assert topo.link_table().bandwidth_mbps.tolist() == [5.0, 20.0]
        assert snapshot.tolist() == [10.0, 20.0]  # never written in place

    def test_set_link_invalidates_the_table(self, topo):
        """Redefining a link after the table was built must not leave its
        old base capacity or latency in the table."""
        topo.set_global_bandwidth_factor(0.5)
        before = topo.link_table()
        topo.set_link("a", "b", 40.0, 10.0)
        after = topo.link_table()
        assert after is not before
        assert after.base_mbps.tolist() == [40.0, 20.0]
        assert after.bandwidth_mbps.tolist() == [20.0, 10.0]
        assert after.latency_ms.tolist() == [10.0, 50.0]
