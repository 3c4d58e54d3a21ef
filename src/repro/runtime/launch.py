"""Multi-GPU device binding: ``acc_set_device_num`` vs ``launch.sh``.

The last OpenACC directive Code 5 removes is ``set device_num`` (SIV-E).
Its replacement is a bash wrapper (Listing 6) exporting
``CUDA_VISIBLE_DEVICES=$OMPI_COMM_WORLD_LOCAL_RANK`` so each MPI process
sees exactly one GPU. Both paths are implemented and tested to yield the
same rank->device binding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.gpu import GpuDevice
from repro.machine.node import GpuNode
from repro.runtime.config import DeviceBindingMethod

#: The launch wrapper of Listing 6, reproduced verbatim in spirit. ``{var}``
#: is the MPI library's local-rank environment variable.
LAUNCH_SH_TEMPLATE = """\
#!/bin/bash
# Assume 1 GPU per MPI local rank
# Set device for this MPI rank:
export CUDA_VISIBLE_DEVICES="${var}"
# Execute code:
exec $*
"""

#: Local-rank environment variables by MPI library ("similar environment
#: variables exist in other MPI libraries", SIV-E).
LOCAL_RANK_ENV_VARS = {
    "openmpi": "OMPI_COMM_WORLD_LOCAL_RANK",
    "mpich": "MPI_LOCALRANKID",
    "mvapich2": "MV2_COMM_WORLD_LOCAL_RANK",
    "slurm": "SLURM_LOCALID",
}


@dataclass(frozen=True, slots=True)
class LaunchScript:
    """A rendered launch.sh for a given MPI library."""

    mpi_library: str = "openmpi"

    def __post_init__(self) -> None:
        if self.mpi_library not in LOCAL_RANK_ENV_VARS:
            raise ValueError(
                f"unknown MPI library {self.mpi_library!r}; "
                f"known: {sorted(LOCAL_RANK_ENV_VARS)}"
            )

    @property
    def local_rank_var(self) -> str:
        """The env var the script reads the local rank from."""
        return LOCAL_RANK_ENV_VARS[self.mpi_library]

    def render(self) -> str:
        """The bash script text (Listing 6)."""
        return LAUNCH_SH_TEMPLATE.format(var=self.local_rank_var)

    def visible_devices_for(self, local_rank: int) -> str:
        """CUDA_VISIBLE_DEVICES the wrapped process will see."""
        if local_rank < 0:
            raise ValueError("local rank cannot be negative")
        return str(local_rank)


@dataclass(frozen=True, slots=True)
class DeviceBinding:
    """Resolved rank -> GPU assignment for a node-local job."""

    method: DeviceBindingMethod
    devices: tuple[int, ...]  # devices[rank] = CUDA ordinal on the node


def bind_devices(
    node: GpuNode,
    num_ranks: int,
    method: DeviceBindingMethod,
    *,
    script: LaunchScript | None = None,
) -> DeviceBinding:
    """Assign one GPU per local MPI rank by either mechanism.

    ``SET_DEVICE_NUM``: every rank sees all GPUs and calls
    ``acc_set_device_num(local_rank)``.

    ``ENV_VISIBLE_DEVICES``: launch.sh masks visibility so each rank sees a
    single GPU, which is then CUDA device 0 *within the rank's view*; the
    physical ordinal is the mask value.
    """
    if num_ranks < 1:
        raise ValueError("need at least one rank")
    if num_ranks > node.num_gpus:
        raise ValueError(
            f"{num_ranks} ranks > {node.num_gpus} GPUs on {node.name}: "
            "the paper assumes 1 GPU per MPI local rank"
        )
    if method is DeviceBindingMethod.SET_DEVICE_NUM:
        devices = tuple(range(num_ranks))
    else:
        script = script or LaunchScript()
        devices = []
        for local_rank in range(num_ranks):
            mask = script.visible_devices_for(local_rank)
            visible = node.visible_devices(mask)
            if len(visible) != 1:
                raise RuntimeError(
                    f"launch.sh mask {mask!r} exposed {len(visible)} devices, expected 1"
                )
            # The rank's device 0 is the masked physical device.
            devices.append(visible[0].device_id)
        devices = tuple(devices)
    return DeviceBinding(method=method, devices=devices)


def devices_for_binding(node: GpuNode, binding: DeviceBinding) -> list[GpuDevice]:
    """Materialize the bound GpuDevice objects, one per rank."""
    return [node.device(d) for d in binding.devices]
