"""Validation helpers."""

import numpy as np
import pytest

from repro.codes import CodeVersion, runtime_config_for
from repro.mas.model import MasModel, ModelConfig
from tests.mas.validate import (
    compare_states,
    gather_global,
    max_rel_diff,
    states_equivalent,
)


class TestMaxRelDiff:
    def test_zero_for_identical(self):
        a = np.random.default_rng(0).random((4, 4))
        assert max_rel_diff(a, a.copy()) == 0.0

    def test_scale_invariant(self):
        a = np.ones((3, 3))
        assert max_rel_diff(a, a * 1.01) == pytest.approx(0.01 / 1.01)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            max_rel_diff(np.ones(3), np.ones(4))

    def test_zero_arrays(self):
        assert max_rel_diff(np.zeros(4), np.zeros(4)) == 0.0


class TestCompareStates:
    def test_all_fields_covered(self):
        m = MasModel(ModelConfig(shape=(8, 6, 8), extra_model_arrays=0,
                                 pcg_iters=2, sts_stages=2),
                     runtime_config_for(CodeVersion.A))
        d = compare_states(m.states[0], m.states[0].copy())
        assert set(d) == {"rho", "temp", "vr", "vt", "vp", "br", "bt", "bp"}
        assert all(v == 0.0 for v in d.values())


class TestGatherGlobal:
    @pytest.fixture(scope="class")
    def models(self):
        kw = dict(shape=(8, 6, 8), extra_model_arrays=0, pcg_iters=2, sts_stages=2)
        m1 = MasModel(ModelConfig(num_ranks=1, **kw), runtime_config_for(CodeVersion.A))
        m2 = MasModel(ModelConfig(num_ranks=2, **kw), runtime_config_for(CodeVersion.A))
        return m1, m2

    def test_centered_gather_shape(self, models):
        m1, _ = models
        g = gather_global(m1.states, m1.decomp, "rho")
        assert g.shape == (8, 6, 8)

    def test_face_gather_shape(self, models):
        m1, _ = models
        g = gather_global(m1.states, m1.decomp, "br", face_axis=0)
        assert g.shape == (9, 6, 8)

    def test_equivalence_passes_on_fresh_states(self, models):
        m1, m2 = models
        diffs = states_equivalent(m1.states, m1.decomp, m2.states, m2.decomp)
        assert max(diffs.values()) < 1e-12

    def test_equivalence_detects_divergence(self, models):
        m1, m2 = models
        m2.states[0].rho[2, 2, 2] *= 2.0
        with pytest.raises(AssertionError, match="diverge"):
            states_equivalent(m1.states, m1.decomp, m2.states, m2.decomp)
        m2.states[0].rho[2, 2, 2] /= 2.0

    def test_grid_mismatch_rejected(self, models):
        m1, _ = models
        kw = dict(shape=(10, 6, 8), extra_model_arrays=0, pcg_iters=2, sts_stages=2)
        other = MasModel(ModelConfig(num_ranks=1, **kw), runtime_config_for(CodeVersion.A))
        with pytest.raises(ValueError, match="different global grids"):
            states_equivalent(m1.states, m1.decomp, other.states, other.decomp)
