"""Device binding: set device_num vs launch.sh CUDA_VISIBLE_DEVICES."""

import pytest

from repro.machine.node import make_delta_node
from repro.runtime.config import DeviceBindingMethod
from repro.runtime.launch import (
    LOCAL_RANK_ENV_VARS,
    LaunchScript,
    bind_devices,
    devices_for_binding,
)


@pytest.fixture
def node():
    return make_delta_node()


class TestLaunchScript:
    def test_renders_listing6(self):
        script = LaunchScript("openmpi").render()
        assert 'CUDA_VISIBLE_DEVICES="$OMPI_COMM_WORLD_LOCAL_RANK"' in script
        assert script.startswith("#!/bin/bash")
        assert "exec $*" in script

    def test_other_mpi_libraries(self):
        for lib, var in LOCAL_RANK_ENV_VARS.items():
            assert var in LaunchScript(lib).render()

    def test_unknown_library_rejected(self):
        with pytest.raises(ValueError):
            LaunchScript("not-an-mpi")

    def test_visible_devices_for_rank(self):
        assert LaunchScript().visible_devices_for(3) == "3"

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            LaunchScript().visible_devices_for(-1)


class TestBindDevices:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_both_methods_agree(self, node, n):
        """Code 5's env-var binding must reproduce set device_num exactly."""
        a = bind_devices(node, n, DeviceBindingMethod.SET_DEVICE_NUM)
        b = bind_devices(node, n, DeviceBindingMethod.ENV_VISIBLE_DEVICES)
        assert a.devices == b.devices == tuple(range(n))

    def test_one_gpu_per_rank_enforced(self, node):
        with pytest.raises(ValueError, match="1 GPU per MPI local rank"):
            bind_devices(node, 9, DeviceBindingMethod.SET_DEVICE_NUM)

    def test_zero_ranks_rejected(self, node):
        with pytest.raises(ValueError):
            bind_devices(node, 0, DeviceBindingMethod.SET_DEVICE_NUM)

    def test_devices_materialized(self, node):
        binding = bind_devices(node, 4, DeviceBindingMethod.ENV_VISIBLE_DEVICES)
        devs = devices_for_binding(node, binding)
        assert [d.device_id for d in devs] == [0, 1, 2, 3]

