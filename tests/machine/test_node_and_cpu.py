"""Node topologies and the CPU node model."""

import pytest

from repro.machine.cpu import EPYC_7742_NODE, CpuNodeModel
from repro.machine.node import DELTA_A100_NODE, make_delta_node


class TestDeltaNode:
    def test_eight_gpus(self):
        assert DELTA_A100_NODE.num_gpus == 8

    def test_device_lookup(self):
        assert DELTA_A100_NODE.device(3).device_id == 3

    def test_device_out_of_range(self):
        with pytest.raises(IndexError):
            DELTA_A100_NODE.device(8)

    def test_visible_devices_all_when_unset(self):
        assert len(DELTA_A100_NODE.visible_devices(None)) == 8
        assert len(DELTA_A100_NODE.visible_devices("")) == 8

    def test_visible_devices_mask(self):
        vis = DELTA_A100_NODE.visible_devices("5")
        assert [d.device_id for d in vis] == [5]

    def test_visible_devices_multi(self):
        vis = DELTA_A100_NODE.visible_devices("2, 0")
        assert [d.device_id for d in vis] == [2, 0]

    def test_visible_devices_invalid(self):
        with pytest.raises(ValueError):
            DELTA_A100_NODE.visible_devices("9")

    def test_fresh_gives_pristine_memory(self):
        node = make_delta_node()
        node.device(0).memory.allocate("x", 1)
        fresh = node.fresh()
        assert "x" not in fresh.device(0).memory


class TestCpuModel:
    def test_single_node_roofline(self):
        m = CpuNodeModel(EPYC_7742_NODE)
        bw = EPYC_7742_NODE.mem_bandwidth * EPYC_7742_NODE.stream_efficiency
        assert m.kernel_time(bw) == pytest.approx(1.0)

    def test_multi_node_faster(self):
        m = CpuNodeModel(EPYC_7742_NODE)
        assert m.kernel_time(1e12, num_nodes=8) < m.kernel_time(1e12, num_nodes=1) / 7.9

    def test_speedup_super_linear_as_calibrated(self):
        """Table III implies 725.54/79.58 = 9.12x wall speedup on 8 nodes;
        the raw kernel speedup is higher because MPI overheads eat part of
        it in the full model."""
        m = CpuNodeModel(EPYC_7742_NODE)
        assert 9.12 < m.speedup(8) < 10.5

    def test_speedup_validations(self):
        m = CpuNodeModel(EPYC_7742_NODE)
        with pytest.raises(ValueError):
            m.speedup(0)
        with pytest.raises(ValueError):
            m.kernel_time(-1.0)
        with pytest.raises(ValueError):
            m.kernel_time(1.0, num_nodes=0)
