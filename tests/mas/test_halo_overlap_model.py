"""Model-level overlap + cross-region fusion: identity and cost effects.

The tentpole guarantees: interior/boundary stencil splitting with
overlapped exchanges is bit-identical to the bulk-synchronous model (cost
changes, numerics do not), it lowers wall and MPI time on async-capable
runtimes, it degrades gracefully where async queues are unavailable, and
the cross-region fusion window collapses the plain-kernel launch stream
without reordering a single hazard.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.codes import CodeVersion, runtime_config_for
from repro.mas.model import MasModel, ModelConfig
from tests.mas.validate import states_equivalent
from repro.obs.telemetry import session

SMALL = dict(shape=(10, 8, 16), pcg_iters=3, sts_stages=3, extra_model_arrays=3)

STATE_FIELDS = ("rho", "temp", "vr", "vt", "vp", "br", "bt", "bp")


def make(version=CodeVersion.A, num_ranks=1, *, fuse=False, **kw):
    args = {**SMALL, **kw, "num_ranks": num_ranks}
    rt_cfg = runtime_config_for(version)
    if fuse:
        rt_cfg = replace(rt_cfg, cross_region_fusion=True)
    return MasModel(ModelConfig(**args), rt_cfg)


class TestOverlapBitIdentity:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_split_matches_monolithic(self, n):
        """Interior+boundary-shell splitting with overlapped exchanges is
        bit-identical to the monolithic bulk-synchronous stencils."""
        sync = make(num_ranks=n)
        over = make(num_ranks=n, halo_overlap=True)
        assert over.halo_overlap
        sync.run(3)
        over.run(3)
        for rank in range(n):
            for name in STATE_FIELDS:
                assert np.array_equal(
                    sync.states[rank].get(name), over.states[rank].get(name)
                ), (rank, name)

    def test_overlap_matches_single_rank_reference(self):
        """Overlapped multi-rank run still reconstructs the 1-rank solution."""
        m1 = make(num_ranks=1)
        mn = make(num_ranks=4, halo_overlap=True)
        m1.run(3)
        mn.run(3)
        diffs = states_equivalent(
            m1.states, m1.decomp, mn.states, mn.decomp, tol=1e-9
        )
        assert max(diffs.values()) < 1e-9

    def test_overlap_dt_sequence_identical(self):
        sync = make(num_ranks=2)
        over = make(num_ranks=2, halo_overlap=True)
        ts = sync.run(3)
        to = over.run(3)
        assert [t.dt for t in ts] == [t.dt for t in to]


class TestOverlapCost:
    def _mean(self, m, steps=2):
        m.run(1)  # warmup
        ts = m.run(steps)
        wall = sum(t.wall for t in ts) / len(ts)
        mpi = sum(t.mpi for t in ts) / len(ts)
        return wall, mpi

    def test_overlap_reduces_wall_and_mpi(self):
        sw, sm = self._mean(make(num_ranks=2))
        ow, om = self._mean(make(num_ranks=2, halo_overlap=True))
        assert ow < sw
        assert om < sm

    def test_overlap_splits_stencils_into_more_launches(self):
        """The interior/shell split issues extra (smaller) kernels."""
        t_sync = make(num_ranks=2).step()
        t_over = make(num_ranks=2, halo_overlap=True).step()
        assert t_over.launches > t_sync.launches

    def test_degrades_gracefully_without_async_queues(self):
        """Code 2 (AD) has no async launch queue: requesting overlap is a
        no-op -- same numerics AND the exact synchronous cost."""
        m = make(CodeVersion.AD, num_ranks=2, halo_overlap=True)
        assert not m.halo_overlap
        ref = make(CodeVersion.AD, num_ranks=2)
        t_ref = ref.step()
        t = m.step()
        assert t.wall == t_ref.wall
        assert t.mpi == t_ref.mpi
        assert np.array_equal(ref.states[0].rho, m.states[0].rho)


def _plain_launches(tel):
    metrics = json.loads(tel.metrics.to_json_text())
    fam = metrics.get("kernel_launches_total", {})
    return sum(
        s["value"]
        for s in fam.get("samples", [])
        if s["labels"].get("category") == "plain"
    )


class TestCrossRegionFusion:
    def test_fusion_bit_identical(self):
        base = make(num_ranks=2)
        fused = make(num_ranks=2, fuse=True)
        base.run(3)
        fused.run(3)
        for rank in range(2):
            for name in STATE_FIELDS:
                assert np.array_equal(
                    base.states[rank].get(name), fused.states[rank].get(name)
                ), (rank, name)

    def test_fusion_halves_plain_launches(self, tmp_path):
        """Acceptance gate: the window planner collapses the plain-category
        launch stream by at least 2x at test scale."""
        counts = {}
        for key, fuse in (("base", False), ("fused", True)):
            with session(tmp_path / key) as tel:
                make(num_ranks=2, fuse=fuse).step()
                counts[key] = _plain_launches(tel)
        assert counts["base"] > 0
        assert counts["fused"] <= counts["base"] / 2

    def test_fusion_reduces_wall(self):
        base = make(num_ranks=2)
        fused = make(num_ranks=2, fuse=True)
        base.run(1), fused.run(1)
        tb = base.run(2)
        tf = fused.run(2)
        assert sum(t.wall for t in tf) < sum(t.wall for t in tb)

    def test_fusion_composes_with_overlap(self):
        """Overlap + fusion together still reproduce the reference state,
        in less simulated time."""
        ref = make(num_ranks=2)
        both = make(num_ranks=2, fuse=True, halo_overlap=True)
        t_ref = ref.run(3)
        t_both = both.run(3)
        for name in STATE_FIELDS:
            assert np.array_equal(
                ref.states[0].get(name), both.states[0].get(name)
            ), name
        assert sum(t.wall for t in t_both) < sum(t.wall for t in t_ref)
