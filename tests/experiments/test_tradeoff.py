"""Trade-off synthesis experiment."""

import pytest

from repro.codes import CodeVersion
from repro.experiments.tradeoff import (
    TradeoffPoint,
    TradeoffResult,
    render_tradeoff,
    run_tradeoff,
)
from repro.perf.calibration import Calibration

FAST = Calibration(pcg_iters=2, sts_stages=2, bench_steps=1)


@pytest.fixture(scope="module")
def result():
    return run_tradeoff(2, calibration=FAST)


class TestTradeoff:
    def test_all_gpu_versions_present(self, result):
        assert len(result.points) == 6

    def test_directive_counts_are_table1(self, result):
        assert result.points[CodeVersion.A].acc_lines == 1458
        assert result.points[CodeVersion.D2XU].acc_lines == 0
        assert result.points[CodeVersion.D2XAD].acc_lines == 277

    def test_code1_fastest(self, result):
        w = {v: p.wall_minutes for v, p in result.points.items()}
        assert min(w.values()) == w[CodeVersion.A]

    def test_front_endpoints(self, result):
        front = result.pareto_front()
        assert front[0] is CodeVersion.D2XU   # fewest directives
        assert front[-1] is CodeVersion.A     # fastest

    def test_front_is_a_genuine_tradeoff(self, result):
        """The paper's recommended middle grounds (Codes 2 and 6) make the
        front, and along it wall time strictly falls as directive counts
        rise (the front is ordered by ascending acc lines)."""
        front = result.pareto_front()
        assert CodeVersion.AD in front or CodeVersion.D2XAD in front
        pts = [result.points[v] for v in front]
        accs = [p.acc_lines for p in pts]
        walls = [p.wall_minutes for p in pts]
        assert accs == sorted(accs)
        assert walls == sorted(walls, reverse=True)

    def test_um_codes_dominated(self, result):
        """Codes 3/4 are dominated: Code 5 has fewer directives at the
        same (UM-bound) speed."""
        front = set(result.pareto_front())
        assert CodeVersion.ADU not in front
        assert CodeVersion.AD2XU not in front

    def test_render(self, result):
        out = render_tradeoff(result)
        assert "Pareto" in out
        assert "1458" in out


class TestParetoLogic:
    def test_dominated_point_excluded(self):
        pts = {
            CodeVersion.A: TradeoffPoint(CodeVersion.A, 100, 10.0),
            CodeVersion.AD: TradeoffPoint(CodeVersion.AD, 50, 12.0),
            CodeVersion.ADU: TradeoffPoint(CodeVersion.ADU, 120, 12.0),  # dominated
        }
        r = TradeoffResult(num_gpus=8, points=pts)
        front = r.pareto_front()
        assert CodeVersion.ADU not in front
        assert set(front) == {CodeVersion.A, CodeVersion.AD}
