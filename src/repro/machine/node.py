"""Node and cluster topologies used by the paper.

* :data:`DELTA_A100_NODE` -- one NCSA Delta GPU node: dual EPYC 7763 plus
  eight NVLink-connected A100-40GB GPUs (all Fig. 2/3/4 runs).
* :data:`EXPANSE_NODE` -- one SDSC Expanse CPU node (Table III runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.cpu import EPYC_7742_NODE, EPYC_7763_NODE, CpuNodeModel
from repro.machine.gpu import A100_40GB, GpuDevice
from repro.machine.interconnect import DELTA_INTERCONNECT, Interconnect
from repro.machine.spec import CpuSpec, GpuSpec


@dataclass(slots=True)
class GpuNode:
    """A single multi-GPU node (the paper never crosses node boundaries)."""

    name: str
    gpu_spec: GpuSpec
    num_gpus: int
    host_spec: CpuSpec
    interconnect: Interconnect
    gpus: list[GpuDevice] = field(init=False)

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise ValueError("a GPU node needs at least one GPU")
        self.gpus = [GpuDevice(self.gpu_spec, i) for i in range(self.num_gpus)]

    def device(self, device_id: int) -> GpuDevice:
        """Fetch a GPU by CUDA ordinal."""
        if not 0 <= device_id < self.num_gpus:
            raise IndexError(
                f"device {device_id} out of range on {self.name} ({self.num_gpus} GPUs)"
            )
        return self.gpus[device_id]

    def visible_devices(self, mask: str | None) -> list[GpuDevice]:
        """Apply a CUDA_VISIBLE_DEVICES-style mask string.

        ``None`` or empty means all devices visible, matching CUDA semantics
        for an unset variable. Ordinals in the mask re-index the visible set.
        """
        if mask is None or mask == "":
            return list(self.gpus)
        ids = []
        for tok in mask.split(","):
            tok = tok.strip()
            if not tok:
                continue
            dev = int(tok)
            if not 0 <= dev < self.num_gpus:
                raise ValueError(f"CUDA_VISIBLE_DEVICES entry {dev} does not exist")
            ids.append(dev)
        return [self.gpus[i] for i in ids]

    def fresh(self) -> "GpuNode":
        """A new node with the same topology and pristine device state."""
        return GpuNode(
            name=self.name,
            gpu_spec=self.gpu_spec,
            num_gpus=self.num_gpus,
            host_spec=self.host_spec,
            interconnect=self.interconnect,
        )


@dataclass(frozen=True, slots=True)
class CpuCluster:
    """A homogeneous CPU cluster (Expanse) for the Table III baseline."""

    name: str
    node_model: CpuNodeModel
    max_nodes: int = 64


def make_delta_node() -> GpuNode:
    """Construct a fresh Delta 8xA100 node."""
    return GpuNode(
        name="Delta 8xA100-40GB",
        gpu_spec=A100_40GB,
        num_gpus=8,
        host_spec=EPYC_7763_NODE,
        interconnect=DELTA_INTERCONNECT,
    )


#: Shared default instances. Experiments that mutate device state should call
#: ``DELTA_A100_NODE.fresh()`` (GpuNode) instead of mutating these.
DELTA_A100_NODE = make_delta_node()
EXPANSE_NODE = CpuCluster(name="Expanse 2xEPYC-7742", node_model=CpuNodeModel(EPYC_7742_NODE))
