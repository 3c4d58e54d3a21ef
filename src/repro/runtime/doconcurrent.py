"""What nvfortran 22.11 compiles as ``do concurrent``, and what it refuses.

DC semantics as the compiler maps them (SIV-B/D/E):

* one device kernel per DC loop -- converting a fused OpenACC region to DC
  *fissions* it (each loop pays its own launch);
* no ``async`` clause exists -- every launch is a synchronous host round
  trip;
* Fortran 2018 DC has no ``reduce``; scalar reductions need the Fortran
  202X preview (``dc2x_reduce=True``);
* array reductions are either ``!$acc atomic`` inside the DC body
  (Listing 4, Code 4) or the flipped outer-DC/inner-serial-reduce rewrite
  (Listing 5, Code 5/6) -- the strategy is picked by the config and the
  cost model charges the appropriate penalty.

The first two are how :class:`~repro.runtime.dispatcher.RankRuntime` drives
its DC :class:`~repro.runtime.engine.Engine`, the same class its OpenACC
and CPU engines are: the DC engine is never handed a fusion group, only
one kernel per charge, and it has ``async_launch=False``. The rest is
:func:`check_supported`, the DC engine's ``admit`` check.
"""

from __future__ import annotations

from repro.runtime.config import ArrayReductionStrategy
from repro.runtime.kernel import KernelSpec, LoopCategory


class UnsupportedLoopError(RuntimeError):
    """A loop shape the DC backend cannot compile.

    Mirrors nvfortran's real restrictions: Fortran-2018 DC rejects
    reductions (no ``reduce`` clause before 202X) and routine calls are
    only supported when inlined.
    """


def check_supported(
    spec: KernelSpec,
    *,
    dc2x_reduce: bool,
    routines_inlined: bool,
    array_reduction: ArrayReductionStrategy,
) -> None:
    """Raise :class:`UnsupportedLoopError` unless ``spec`` compiles as DC.

    ``dc2x_reduce``: Fortran 202X preview features (-stdpar with the reduce
    clause). ``routines_inlined``: pure routines are callable in DC bodies
    only after inlining (-Minline).
    """
    if spec.category is LoopCategory.SCALAR_REDUCTION and not dc2x_reduce:
        raise UnsupportedLoopError(
            f"scalar reduction {spec.name!r} needs the Fortran 202X reduce "
            "clause (dc2x_reduce=False keeps it on OpenACC, as in Code 2/3)"
        )
    if spec.category is LoopCategory.ARRAY_REDUCTION:
        if not dc2x_reduce and array_reduction is not ArrayReductionStrategy.ACC_ATOMIC:
            raise UnsupportedLoopError(
                f"array reduction {spec.name!r}: DC array reductions need either "
                "acc atomic inside DC (202X compilers) or the flipped rewrite"
            )
    if spec.category is LoopCategory.ROUTINE_CALLER and not routines_inlined:
        raise UnsupportedLoopError(
            f"loop {spec.name!r} calls a pure routine; nvfortran requires "
            "!$acc routine (OpenACC) or -Minline inlining for DC offload"
        )
    if spec.category is LoopCategory.KERNELS_REGION:
        raise UnsupportedLoopError(
            f"kernels region {spec.name!r} has no DC equivalent until its "
            "intrinsics are expanded into explicit DC loops (Code 5 rewrite)"
        )
