"""Per-category time accounting."""

import pytest

from repro.codes import CodeVersion
from repro.perf.calibration import Calibration
from repro.perf.categories import (
    CategoryBreakdown,
    measure_categories,
    render_categories,
)
from repro.runtime.clock import TimeCategory

FAST = Calibration(pcg_iters=2, sts_stages=2, bench_steps=1)


@pytest.fixture(scope="module")
def breakdowns():
    return {
        v: measure_categories(v, 2, calibration=FAST)
        for v in (CodeVersion.A, CodeVersion.ADU)
    }


class TestMeasurement:
    def test_compute_dominates(self, breakdowns):
        for b in breakdowns.values():
            assert b.fraction(TimeCategory.COMPUTE) > 0.4

    def test_total_positive(self, breakdowns):
        for b in breakdowns.values():
            assert b.total > 0

    def test_um_fault_only_under_um(self, breakdowns):
        assert breakdowns[CodeVersion.A].seconds.get(TimeCategory.UM_FAULT, 0.0) == 0.0

    def test_fraction_of_absent_category_zero(self, breakdowns):
        assert breakdowns[CodeVersion.A].fraction(TimeCategory.UM_FAULT) == 0.0

    def test_render(self, breakdowns):
        out = render_categories(list(breakdowns.values()))
        assert "A@2" in out and "ADU@2" in out
        assert "compute" in out

    def test_empty_breakdown_fraction(self):
        b = CategoryBreakdown(CodeVersion.A, 1, {})
        assert b.fraction(TimeCategory.COMPUTE) == 0.0


def test_category_fingerprints():
    """The mechanisms the paper names, visible as category signatures at
    8 GPUs: DC codes (fission, no async) carry more launch-gap time than
    Code 1; UM codes carry page-migration time nobody else has; manual
    codes' MPI is pack-dominated while UM codes' MPI is
    transfer(migration)-dominated. Run with ``-s`` to see the table."""
    cal = Calibration(pcg_iters=3, sts_stages=3, bench_steps=2)
    by = {
        v: measure_categories(v, 8, calibration=cal)
        for v in (CodeVersion.A, CodeVersion.AD, CodeVersion.ADU, CodeVersion.D2XU)
    }
    print("\n" + render_categories(list(by.values())))

    # compute time is identical maths: within the UM body penalty
    a = by[CodeVersion.A].seconds[TimeCategory.COMPUTE]
    for b in by.values():
        assert 0.8 * a < b.seconds[TimeCategory.COMPUTE] < 1.5 * a

    # fission + synchronous launches: DC codes gap more than Code 1
    launch_a = by[CodeVersion.A].seconds[TimeCategory.LAUNCH]
    assert by[CodeVersion.AD].seconds[TimeCategory.LAUNCH] > launch_a
    assert by[CodeVersion.D2XU].seconds[TimeCategory.LAUNCH] > launch_a

    # page migration exists only under UM
    assert by[CodeVersion.A].seconds.get(TimeCategory.UM_FAULT, 0.0) == 0.0
    assert by[CodeVersion.AD].seconds.get(TimeCategory.UM_FAULT, 0.0) == 0.0

    # UM codes' MPI is dominated by migration-laden transfers
    um, manual = by[CodeVersion.ADU], by[CodeVersion.A]
    assert um.seconds[TimeCategory.MPI_TRANSFER] > um.seconds[TimeCategory.MPI_PACK]
    assert (
        um.seconds[TimeCategory.MPI_TRANSFER]
        > 5 * manual.seconds[TimeCategory.MPI_TRANSFER]
    )
