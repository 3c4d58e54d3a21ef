"""Device memory ledger."""

import pytest

from repro.machine.memory import AllocationError, DeviceMemory, Residency


@pytest.fixture
def mem():
    return DeviceMemory(capacity=1000)


class TestAllocate:
    def test_tracks_usage(self, mem):
        mem.allocate("a", 400)
        assert mem.used == 400
        assert mem.free == 600

    def test_oom_raises(self, mem):
        mem.allocate("a", 900)
        with pytest.raises(AllocationError, match="out of device memory"):
            mem.allocate("b", 200)

    def test_duplicate_name_raises(self, mem):
        mem.allocate("a", 1)
        with pytest.raises(AllocationError, match="already live"):
            mem.allocate("a", 1)

    def test_negative_size_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.allocate("a", -1)

    def test_peak_tracks_high_water(self, mem):
        mem.allocate("a", 600)
        mem.deallocate("a")
        mem.allocate("b", 100)
        assert mem.peak == 600

    def test_exact_fill_allowed(self, mem):
        mem.allocate("a", 1000)
        assert mem.free == 0


class TestDeallocate:
    def test_frees(self, mem):
        mem.allocate("a", 500)
        mem.deallocate("a")
        assert mem.used == 0
        assert "a" not in mem

    def test_unknown_raises(self, mem):
        with pytest.raises(KeyError):
            mem.deallocate("missing")


class TestQueries:
    def test_contains(self, mem):
        mem.allocate("a", 1)
        assert "a" in mem and "b" not in mem

    def test_get(self, mem):
        mem.allocate("a", 7)
        assert mem.get("a").nbytes == 7

    def test_default_residency_device(self, mem):
        assert mem.allocate("a", 1).residency is Residency.DEVICE

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            DeviceMemory(0)
