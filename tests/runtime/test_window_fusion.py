"""Cross-region fusion window: hoisting planner + plan validator."""

import pytest

from repro.runtime.fusion import (
    FusionGroup,
    plan_fusion,
    plan_fusion_window,
    validate_plan,
)
from repro.runtime.kernel import KernelSpec


def k(name, reads=(), writes=()):
    return KernelSpec(name=name, reads=tuple(reads), writes=tuple(writes))


def names(groups):
    return [tuple(spec.name for spec in g.kernels) for g in groups]


class TestWindowPlanner:
    def test_independent_kernels_all_fuse(self):
        ks = [k(f"k{i}", writes=(f"w{i}",)) for i in range(5)]
        groups = plan_fusion_window(ks)
        assert names(groups) == [("k0", "k1", "k2", "k3", "k4")]
        assert validate_plan(ks, groups) == []

    def test_hoists_past_an_intervening_dependent_pair(self):
        """plan_fusion cannot merge k0 and k2 across the dependent k1;
        the window planner hoists k2 back into k0's group."""
        ks = [
            k("k0", writes=("a",)),
            k("k1", reads=("a",), writes=("b",)),
            k("k2", writes=("c",)),
        ]
        consecutive = plan_fusion(ks, enabled=True)
        assert names(consecutive) == [("k0",), ("k1", "k2")]
        windowed = plan_fusion_window(ks)
        assert names(windowed) == [("k0", "k2"), ("k1",)]
        assert validate_plan(ks, windowed) == []

    def test_hazard_chain_stays_sequential(self):
        ks = [
            k("k0", writes=("a",)),
            k("k1", reads=("a",), writes=("b",)),
            k("k2", reads=("b",), writes=("c",)),
        ]
        groups = plan_fusion_window(ks)
        assert names(groups) == [("k0",), ("k1",), ("k2",)]
        assert validate_plan(ks, groups) == []

    def test_qualified_ghost_shell_writes_fuse(self):
        """Per-direction unpack kernels write disjoint qualified regions of
        one array -- the planner may run them as a single launch."""
        ks = [
            k("unpack_m", reads=("buf_m",), writes=("rho@g2m",)),
            k("unpack_p", reads=("buf_p",), writes=("rho@g2p",)),
        ]
        groups = plan_fusion_window(ks)
        assert names(groups) == [("unpack_m", "unpack_p")]
        assert validate_plan(ks, groups) == []

    def test_bare_reader_orders_after_qualified_writes(self):
        ks = [
            k("unpack_m", writes=("rho@g2m",)),
            k("stencil", reads=("rho",), writes=("out",)),
        ]
        groups = plan_fusion_window(ks)
        assert names(groups) == [("unpack_m",), ("stencil",)]
        assert validate_plan(ks, groups) == []

    def test_empty_window(self):
        assert plan_fusion_window([]) == []


class TestValidatePlan:
    def test_detects_fused_hazard(self):
        a, b = k("a", writes=("x",)), k("b", reads=("x",))
        bad = [FusionGroup((a, b))]
        violations = validate_plan([a, b], bad)
        assert any("fused into one group" in v for v in violations)

    def test_detects_reordering(self):
        a, b = k("a", writes=("x",)), k("b", reads=("x",))
        bad = [FusionGroup((b,)), FusionGroup((a,))]
        violations = validate_plan([a, b], bad)
        assert any("reordered before" in v for v in violations)

    def test_detects_missing_and_duplicated_kernels(self):
        a, b = k("a", writes=("x",)), k("b", writes=("y",))
        violations = validate_plan([a, b], [FusionGroup((a, a))])
        assert any("appears twice" in v for v in violations)
        assert any("missing" in v for v in violations)

    def test_valid_plan_is_clean(self):
        a, b = k("a", writes=("x",)), k("b", writes=("y",))
        assert validate_plan([a, b], [FusionGroup((a, b))]) == []

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            FusionGroup(())
