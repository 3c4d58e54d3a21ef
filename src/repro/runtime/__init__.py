"""Accelerator programming-model runtimes.

One pricing engine (:class:`~repro.runtime.engine.GpuEngine`) driven two
ways reproduces the mechanism-level differences between OpenACC and
Fortran ``do concurrent`` (DC) that the paper identifies (SIV-B):

* OpenACC -- parallel regions with kernel *fusion*, ``async`` queues,
  manual data directives, ``atomic`` array reductions, ``kernels``
  regions, ``routine`` support.
* DC -- one kernel per loop (kernel *fission*), synchronous launches
  only, and the compiler restrictions of
  :mod:`repro.runtime.doconcurrent`: the Fortran 202X ``reduce`` clause,
  inlined routines, and the flipped outer-DC/inner-reduce array-reduction
  rewrite of Code 5.

A :class:`~repro.runtime.config.RuntimeConfig` (built per code version in
`repro.codes`) routes each loop category to a backend, mirroring Table I.
"""

from repro.runtime.clock import SimClock, TimeCategory
from repro.runtime.kernel import KernelSpec, LoopCategory
from repro.runtime.config import Backend, ArrayReductionStrategy, RuntimeConfig
from repro.runtime.data_env import DataEnvironment, DataMode
from repro.runtime.stream import AsyncQueue
from repro.runtime.fusion import FusionPlanner, plan_fusion
from repro.runtime.engine import GpuEngine
from repro.runtime.dispatcher import RankRuntime
from repro.runtime.launch import DeviceBinding, LaunchScript, bind_devices

__all__ = [
    "SimClock",
    "TimeCategory",
    "KernelSpec",
    "LoopCategory",
    "Backend",
    "ArrayReductionStrategy",
    "RuntimeConfig",
    "DataEnvironment",
    "DataMode",
    "AsyncQueue",
    "FusionPlanner",
    "plan_fusion",
    "GpuEngine",
    "RankRuntime",
    "DeviceBinding",
    "LaunchScript",
    "bind_devices",
]
