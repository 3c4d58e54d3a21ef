"""Source-to-source porting passes (Codes 2-6 of Table I)."""

from repro.fortran.transforms.base import TransformPass
from repro.fortran.transforms.convert import ConvertRegionsPass
from repro.fortran.transforms.unified_mem import UnifiedMemPass
from repro.fortran.transforms.pure_dc import PureDcPass
from repro.fortran.transforms.readd_data import ReaddDataPass

__all__ = [
    "TransformPass",
    "ConvertRegionsPass",
    "UnifiedMemPass",
    "PureDcPass",
    "ReaddDataPass",
]
