"""The MAS-analog solar MHD code.

A real, runnable thermodynamic MHD solver standing in for the 70k-line
Fortran MAS (paper SIII): logically rectangular non-uniform staggered
spherical grid, finite-difference/finite-volume discretizations, explicit
ideal-MHD advance with constrained transport (exact div(B) preservation),
implicit viscosity via preconditioned conjugate gradient, thermal
conduction advanced with RKL2 super time-stepping (paper ref [25]),
radiative losses and coronal heating.

Every array operation is issued through `repro.runtime` kernels, so the six
code versions of Table I execute the identical numerics while accruing
different simulated cost -- exactly the porting situation of the paper.
"""

from repro.mas.constants import PhysicsParams
from repro.mas.stretch import geometric_spacing, uniform_spacing
from repro.mas.grid import LocalGrid, SphericalGrid
from repro.mas.state import MhdState
from repro.mas.model import MasModel, ModelConfig, StepTiming, NOMINAL_SHAPE_PAPER
from repro.mas.history import EnergyBudget, RunHistory, model_energy_budget

__all__ = [
    "PhysicsParams",
    "geometric_spacing",
    "uniform_spacing",
    "SphericalGrid",
    "LocalGrid",
    "MhdState",
    "MasModel",
    "ModelConfig",
    "StepTiming",
    "NOMINAL_SHAPE_PAPER",
    "RunHistory",
    "EnergyBudget",
    "model_energy_budget",
]
