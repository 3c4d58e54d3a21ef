"""Unified-memory paging engine."""

import pytest

from repro.machine.interconnect import PCIE4_X16
from repro.machine.memory import Residency
from repro.machine.unified_memory import UnifiedMemoryManager
from repro.util.units import MiB


@pytest.fixture
def um():
    return UnifiedMemoryManager(host_link=PCIE4_X16)


class TestRegistration:
    def test_starts_host_resident(self, um):
        um.register("a")
        assert um.residency("a") is Residency.HOST

    def test_duplicate_rejected(self, um):
        um.register("a")
        with pytest.raises(ValueError):
            um.register("a")

    def test_unregister(self, um):
        um.register("a")
        um.unregister("a")
        assert "a" not in um


class TestTouchDevice:
    def test_first_touch_costs(self, um):
        um.register("a")
        dt = um.touch_device("a", 64 * MiB)
        assert dt > 0
        assert um.residency("a") is Residency.DEVICE

    def test_second_touch_free(self, um):
        um.register("a")
        um.touch_device("a", 64 * MiB)
        assert um.touch_device("a", 64 * MiB) == 0.0

    def test_cost_scales_with_bytes(self, um):
        um.register("a")
        um.register("b")
        small = um.touch_device("a", 1 * MiB)
        large = um.touch_device("b", 64 * MiB)
        assert large > small

    def test_zero_touch_free(self, um):
        um.register("a")
        assert um.touch_device("a", 0) == 0.0
        assert um.residency("a") is Residency.HOST

    def test_negative_rejected(self, um):
        um.register("a")
        with pytest.raises(ValueError):
            um.touch_device("a", -1)

    def test_unknown_allocation_raises(self, um):
        with pytest.raises(KeyError):
            um.touch_device("missing", 1)


class TestThrash:
    def test_ping_pong_accumulates_both_directions(self, um):
        um.register("a")
        um.touch_device("a", 8 * MiB)
        um.touch_host("a", 8 * MiB)
        um.touch_device("a", 8 * MiB)
        assert um.stats.bytes_h2d == 16 * MiB
        assert um.stats.bytes_d2h == 8 * MiB
        assert um.stats.total_faults > 0

    def test_migration_slower_than_nvlink_estimate(self, um):
        """The UM path (PCIe + faults) must be slower per byte than NVLink
        P2P -- this ordering is the entire Fig. 4 mechanism."""
        from repro.machine.interconnect import NVLINK3

        um.register("a")
        nbytes = 64 * MiB
        t_um = um.touch_device("a", nbytes)
        t_p2p = NVLINK3.transfer_time(nbytes)
        assert t_um > 3 * t_p2p


class TestStats:
    def test_merge(self, um):
        um.register("a")
        um.touch_device("a", MiB)
        other = UnifiedMemoryManager(host_link=PCIE4_X16)
        other.register("b")
        other.touch_device("b", MiB)
        um.stats.merge(other.stats)
        assert um.stats.bytes_h2d == 2 * MiB

    def test_validation(self):
        with pytest.raises(ValueError):
            UnifiedMemoryManager(host_link=PCIE4_X16, page_size=0)
        with pytest.raises(ValueError):
            UnifiedMemoryManager(host_link=PCIE4_X16, fault_latency=-1)
