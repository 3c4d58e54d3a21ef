"""Table experiments: paper-vs-measured assertions."""

import pytest

from repro.codes import CodeVersion
from repro.experiments.table1 import render_table1, run_table1
from repro.experiments.table2 import PAPER_CENSUS, PAPER_TOTAL, render_table2, run_table2
from repro.experiments.table3 import (
    NODE_COUNTS,
    PAPER_TABLE3,
    render_table3,
    run_table3,
)


@pytest.fixture(scope="module")
def table1():
    return run_table1()


@pytest.fixture(scope="module")
def table3():
    return run_table3()


class TestTable1:
    def test_every_row_matches_paper_exactly(self, table1):
        for row in table1:
            assert row.total_matches, row.tag
            assert row.acc_matches, row.tag

    def test_render_contains_all_tags(self, table1):
        out = render_table1(table1)
        for row in table1:
            assert row.tag in out
        assert "73865" in out and "1458" in out


class TestTable2:
    def test_census_exact(self):
        assert run_table2() == PAPER_CENSUS

    def test_render_total(self):
        out = render_table2(run_table2())
        assert str(PAPER_TOTAL) in out
        assert "parallel, loop" in out


class TestTable3:
    def test_within_two_percent_of_paper(self, table3):
        for (nodes, version), paper in PAPER_TABLE3.items():
            measured = table3.value(nodes, version)
            assert abs(measured - paper) / paper < 0.02, (nodes, version)

    def test_dc_equals_openacc_on_cpu(self, table3):
        """The paper's headline for Table III: within noise at every node count."""
        for n in NODE_COUNTS:
            a = table3.value(n, CodeVersion.A)
            assert abs(a - table3.value(n, CodeVersion.AD)) / a < 0.005, n

    def test_multi_node_speedup_super_linear(self, table3):
        speedup = table3.value(1, CodeVersion.A) / table3.value(8, CodeVersion.A)
        assert speedup > 8.0

    def test_render(self, table3):
        out = render_table3(table3)
        assert "725.54" in out and "79.58" in out
