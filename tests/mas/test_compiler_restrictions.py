"""End-to-end enforcement of the compiler restrictions from SIV.

The paper's porting order exists because Fortran-2018 DC *cannot* express
some of MAS's loops: reductions need the 202X ``reduce`` clause, routine
calls need ``!$acc routine`` or inlining, kernels regions need rewriting.
Configuring a hypothetical code version that ignores those restrictions
must fail at the first offending loop -- the simulated analog of
nvfortran rejecting the build.
"""

import pytest

from repro.mas.model import MasModel, ModelConfig
from repro.runtime.config import (
    ArrayReductionStrategy,
    Backend,
    RuntimeConfig,
    uniform_backend,
)
from repro.runtime.doconcurrent import UnsupportedLoopError
from repro.runtime.kernel import LoopCategory

SMALL = dict(shape=(8, 6, 8), pcg_iters=2, sts_stages=2, extra_model_arrays=0)


def config_with(backends, **kw) -> RuntimeConfig:
    defaults = dict(name="hypothetical", loop_backend=backends)
    defaults.update(kw)
    return RuntimeConfig(**defaults)


class TestF2018Restrictions:
    def test_f2018_dc_cannot_run_reductions(self):
        """Plain F2018 DC for everything: the first scalar reduction (the
        CFL) fails -- exactly why Code 2 kept reductions on OpenACC."""
        cfg = config_with(uniform_backend(Backend.DC))
        m = MasModel(ModelConfig(**SMALL), cfg)
        with pytest.raises(UnsupportedLoopError, match="202X"):
            m.step()

    def test_dc2x_without_inlining_cannot_call_routines(self):
        """DC2X everywhere but no -Minline: the EMF assembly (a routine
        caller) fails -- why Codes 4 kept !$acc routine and Code 5 added
        the inline flags."""
        backends = uniform_backend(Backend.DC2X)
        cfg = config_with(
            backends,
            array_reduction=ArrayReductionStrategy.FLIPPED_DC,
            inline_routines=False,
        )
        m = MasModel(ModelConfig(**SMALL), cfg)
        with pytest.raises(UnsupportedLoopError, match="Minline"):
            m.step()

    def test_code5_semantics_run_clean(self):
        """With reduce + inlining + flipped reductions (Code 5's recipe)
        the same step succeeds."""
        cfg = config_with(
            uniform_backend(Backend.DC2X),
            array_reduction=ArrayReductionStrategy.FLIPPED_DC,
            inline_routines=True,
            unified_memory=True,
        )
        m = MasModel(ModelConfig(**SMALL), cfg)
        t = m.step()
        assert t.wall > 0

    def test_failure_is_at_first_offending_loop(self):
        """The failure happens before any state is corrupted: arrays are
        unchanged after the rejected step."""
        cfg = config_with(uniform_backend(Backend.DC))
        m = MasModel(ModelConfig(**SMALL), cfg)
        rho0 = m.states[0].rho.copy()
        import numpy as np

        with pytest.raises(UnsupportedLoopError):
            m.step()
        # the CFL reduction is rejected after exchanges/BCs but before any
        # physics update touched rho's interior
        i = m.local_grids[0].interior()
        assert np.array_equal(m.states[0].rho[i], rho0[i])
