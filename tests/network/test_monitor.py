"""Tests for repro.network.monitor - the WAN Monitor."""

import itertools

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network.monitor import LinkMeasurement, WanMonitor
from repro.network.site import Site, SiteKind
from repro.network.topology import Topology


class TestMeasurement:
    def test_exact_without_noise(self, small_topology, rng):
        monitor = WanMonitor(small_topology, rng)
        monitor.refresh(0.0)
        assert monitor.bandwidth_mbps("edge-x", "dc-1") == 10.0

    def test_latency_measured(self, small_topology, rng):
        monitor = WanMonitor(small_topology, rng)
        monitor.refresh(0.0)
        assert monitor.latency_ms("edge-x", "dc-1") == 50.0

    def test_noise_bounded(self, small_topology, rng):
        monitor = WanMonitor(small_topology, rng, relative_error=0.2)
        monitor.refresh(0.0)
        measured = monitor.bandwidth_mbps("edge-x", "dc-1")
        assert 8.0 <= measured <= 12.0

    def test_invalid_error_rejected(self, small_topology, rng):
        with pytest.raises(ConfigurationError):
            WanMonitor(small_topology, rng, relative_error=1.0)

    def test_local_transfer_delegates_to_topology(self, small_topology, rng):
        monitor = WanMonitor(small_topology, rng)
        assert monitor.bandwidth_mbps("dc-1", "dc-1") == (
            small_topology.bandwidth_mbps("dc-1", "dc-1")
        )


class TestStaleness:
    def test_measurement_is_stale_until_refresh(self, small_topology, rng):
        """The controller plans against the last measurement, not ground
        truth - mis-estimation the alpha headroom must absorb."""
        monitor = WanMonitor(small_topology, rng)
        monitor.refresh(0.0)
        small_topology.set_bandwidth_factor("edge-x", "dc-1", 0.5)
        assert monitor.bandwidth_mbps("edge-x", "dc-1") == 10.0
        monitor.refresh(40.0)
        assert monitor.bandwidth_mbps("edge-x", "dc-1") == 5.0

    def test_unmeasured_link_falls_back_to_truth(self, small_topology, rng):
        monitor = WanMonitor(small_topology, rng)
        assert monitor.bandwidth_mbps("edge-x", "dc-1") == 10.0

    def test_last_refresh_tracked(self, small_topology, rng):
        monitor = WanMonitor(small_topology, rng)
        monitor.refresh(42.0)
        assert monitor.last_refresh_s == 42.0

    def test_measurement_record(self, small_topology, rng):
        monitor = WanMonitor(small_topology, rng)
        monitor.refresh(10.0)
        sample = monitor.measurement("edge-x", "dc-1")
        assert sample is not None
        assert sample.measured_at_s == 10.0

    def test_bandwidth_matrix_covers_all_links(self, small_topology, rng):
        monitor = WanMonitor(small_topology, rng)
        monitor.refresh(0.0)
        assert len(monitor.bandwidth_matrix()) == 6


def scalar_refresh_oracle(topology, rng, relative_error, now_s):
    """The link-by-link refresh of a fully connected topology: one scalar
    noise draw per link, in sorted link order, each sample the current
    capacity times its noise."""
    assert topology.fully_connected()
    measured = {}
    for src, dst in sorted(itertools.permutations(topology.site_names, 2)):
        noise = rng.uniform(1.0 - relative_error, 1.0 + relative_error)
        measured[(src, dst)] = LinkMeasurement(
            src,
            dst,
            topology.bandwidth_mbps(src, dst) * noise,
            topology.latency_ms(src, dst),
            now_s,
        )
    return measured


class TestNoisyRefresh:
    """The vectorized refresh must reproduce the link-by-link draws bit for
    bit, or every seeded run with estimation error changes."""

    def test_bit_identical_to_scalar_draws(self, testbed):
        testbed.set_global_bandwidth_factor(0.6)
        testbed.set_bandwidth_factor("edge-1", "dc-oregon", 0.25)
        monitor = WanMonitor(
            testbed, np.random.default_rng(7), relative_error=0.2
        )
        monitor.refresh(40.0)
        expected = scalar_refresh_oracle(
            testbed, np.random.default_rng(7), 0.2, 40.0
        )
        assert monitor.bandwidth_matrix() == {
            key: m.bandwidth_mbps for key, m in expected.items()
        }
        for (src, dst), sample in expected.items():
            assert monitor.measurement(src, dst) == sample
            assert monitor.latency_ms(src, dst) == sample.latency_ms

    def test_remeasure_consumes_one_draw(self, testbed):
        """A remeasure between two refreshes takes exactly one stream
        position, so the second refresh sees the same draws as the
        link-by-link monitor did."""
        monitor = WanMonitor(
            testbed, np.random.default_rng(11), relative_error=0.2
        )
        oracle_rng = np.random.default_rng(11)
        monitor.refresh(0.0)
        scalar_refresh_oracle(testbed, oracle_rng, 0.2, 0.0)

        testbed.set_bandwidth_factor("edge-1", "dc-oregon", 0.5)
        remeasured = monitor.remeasure("edge-1", "dc-oregon", 15.0)
        noise = oracle_rng.uniform(0.8, 1.2)
        assert remeasured == testbed.bandwidth_mbps("edge-1", "dc-oregon") * noise
        assert monitor.bandwidth_mbps("edge-1", "dc-oregon") == remeasured

        monitor.refresh(40.0)
        expected = scalar_refresh_oracle(testbed, oracle_rng, 0.2, 40.0)
        assert monitor.bandwidth_matrix() == {
            key: m.bandwidth_mbps for key, m in expected.items()
        }


class TestSnapshot:
    def test_measured_at_from_refresh_or_remeasure(self, small_topology, rng):
        monitor = WanMonitor(small_topology, rng)
        monitor.refresh(10.0)
        monitor.remeasure("edge-x", "dc-1", 25.0)
        assert monitor.measurement("edge-x", "dc-1").measured_at_s == 25.0
        assert monitor.measurement("dc-1", "edge-x").measured_at_s == 10.0
        monitor.refresh(50.0)
        assert monitor.measurement("edge-x", "dc-1").measured_at_s == 50.0

    def test_measurement_is_none_before_first_refresh(self, small_topology, rng):
        monitor = WanMonitor(small_topology, rng)
        assert monitor.measurement("edge-x", "dc-1") is None
        assert monitor.bandwidth_matrix() == {}

    def test_bandwidth_matrix_is_the_snapshot(self, testbed, rng):
        monitor = WanMonitor(testbed, rng)
        monitor.refresh(0.0)
        assert monitor.bandwidth_matrix() == {
            (l.src, l.dst): l.bandwidth_mbps for l in testbed.links()
        }

    def test_remeasure_before_first_refresh_is_kept(self, small_topology):
        monitor = WanMonitor(
            small_topology, np.random.default_rng(3), relative_error=0.2
        )
        sample = monitor.remeasure("dc-1", "dc-2", 5.0)
        assert sample != 100.0
        assert monitor.bandwidth_mbps("dc-1", "dc-2") == sample
        assert monitor.bandwidth_matrix() == {("dc-1", "dc-2"): sample}
        assert monitor.measurement("dc-1", "dc-2") == LinkMeasurement(
            "dc-1", "dc-2", sample, 20.0, 5.0
        )

    def test_link_defined_after_refresh_falls_back_to_truth(self, rng):
        topo = Topology(
            [Site("a", SiteKind.EDGE, 1), Site("b", SiteKind.DATA_CENTER, 1)]
        )
        topo.set_link("a", "b", 10.0, 5.0)
        monitor = WanMonitor(topo, rng)
        monitor.refresh(0.0)
        topo.set_link("b", "a", 30.0, 7.0)
        assert monitor.measurement("b", "a") is None
        assert monitor.bandwidth_mbps("b", "a") == 30.0
        assert monitor.latency_ms("b", "a") == 7.0
        monitor.refresh(40.0)
        assert monitor.measurement("b", "a") == LinkMeasurement(
            "b", "a", 30.0, 7.0, 40.0
        )

    def test_stale_until_next_refresh(self, small_topology, rng):
        """Bandwidth *and* latency stay at the last refresh, even when the
        link is redefined; the next refresh sees the new definition."""
        monitor = WanMonitor(small_topology, rng)
        monitor.refresh(0.0)
        small_topology.set_global_bandwidth_factor(0.5)
        small_topology.set_link("edge-x", "dc-1", 40.0, 5.0)
        assert monitor.bandwidth_mbps("edge-x", "dc-1") == 10.0
        assert monitor.latency_ms("edge-x", "dc-1") == 50.0
        monitor.refresh(40.0)
        assert monitor.bandwidth_mbps("edge-x", "dc-1") == 20.0
        assert monitor.latency_ms("edge-x", "dc-1") == 5.0
        assert monitor.bandwidth_mbps("dc-1", "dc-2") == 50.0
