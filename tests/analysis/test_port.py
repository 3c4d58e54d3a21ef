"""Auto-porter: analyzer-driven conversion + differential verification."""

import dataclasses

import pytest

from repro.analysis.port import (
    PortRefusedError,
    PortTarget,
    TARGET_VERSION,
    port_codebase,
    verify_port,
)
from repro.codes import CodeVersion
from repro.fortran.codebase import MAS_BUDGET, generate_mas_codebase
from repro.fortran.directives import is_directive_line
from repro.fortran.pipeline import build_version
from repro.fortran.source import Codebase, SourceFile

#: A scaled-down corpus: same construct mix, ~4x fewer instances, so the
#: differential runs in test time (paper numbers only apply to the full
#: MAS budget and are skipped automatically).
SMALL = dataclasses.replace(
    MAS_BUDGET,
    plain3=40, caller3=5, plain2=10, double_regions=15, double_with_cont=3,
    scalar_reductions=6, array_reductions=4, atomic_other=2,
    enter_data=30, exit_data=30, update_data=12, enter_data_cont=17,
    dup_cpu_routines=8, legacy_lines_total=52, gpu_support_lines=100,
    total_lines_code1=20000,
)


@pytest.fixture(scope="module")
def code1():
    return generate_mas_codebase(SMALL)


class TestTargets:
    def test_target_version_mapping(self):
        assert TARGET_VERSION[PortTarget.ACC_OPT] is CodeVersion.AD
        assert TARGET_VERSION[PortTarget.PURE_DC] is CodeVersion.D2XU
        assert TARGET_VERSION[PortTarget.DC] is CodeVersion.D2XAD

    def test_cli_values_are_the_enum_values(self):
        assert {t.value for t in PortTarget} == {"acc-opt", "dc", "pure-dc"}


class TestDifferential:
    """The tentpole acceptance: every target is the hand-built text."""

    @pytest.mark.parametrize("target", list(PortTarget), ids=lambda t: t.value)
    def test_port_verifies_against_hand_built(self, code1, target):
        result = port_codebase(target, code1=code1, budget=SMALL)
        assert not result.refused
        report = verify_port(result, code1=code1, budget=SMALL)
        # the two trees are the same text, file name for file name
        assert report.ok, report.render()
        # Table I's numbers only apply to the MAS budget
        assert {c.name for c in report.checks} == {"text"}

    def test_one_changed_line_fails_and_is_named(self, code1):
        result = port_codebase(PortTarget.DC, code1=code1, budget=SMALL)
        f = result.codebase.file("mod_routines.f90")
        f.lines[41] += "  ! edited after the port"
        report = verify_port(result, code1=code1, budget=SMALL)
        assert not report.ok
        assert f"{f.name}:42" in report.render()

    def test_missing_file_fails(self, code1):
        result = port_codebase(PortTarget.DC, code1=code1, budget=SMALL)
        dropped = result.codebase.files.pop()
        report = verify_port(result, code1=code1, budget=SMALL)
        assert not report.ok and dropped.name in report.render()

    def test_acc_opt_converts_only_f2018_safe(self, code1):
        from repro.analysis.fortran_lint import PortSafety

        result = port_codebase(PortTarget.ACC_OPT, code1=code1, budget=SMALL)
        assert set(result.converted) == {PortSafety.SAFE_F2018}
        assert result.stages == ["dc-f2018"]

    def test_all_dc_targets_run_every_stage(self, code1):
        result = port_codebase(PortTarget.DC, code1=code1, budget=SMALL)
        assert result.stages == [
            "dc-f2018", "unified-mem", "dc-202x", "pure-dc", "readd-data",
        ]
        pure = port_codebase(PortTarget.PURE_DC, code1=code1, budget=SMALL)
        assert pure.stages == ["dc-f2018", "unified-mem", "dc-202x", "pure-dc"]

    def test_pure_dc_has_zero_directives(self, code1):
        result = port_codebase(PortTarget.PURE_DC, code1=code1, budget=SMALL)
        assert not any(
            is_directive_line(ln)
            for _f, _i, ln in result.codebase.iter_lines()
        )

    def test_dropped_atomics_flagged_for_all_dc_targets(self, code1):
        result = port_codebase(PortTarget.PURE_DC, code1=code1, budget=SMALL)
        # the ATOMIC_OTHER regions' atomics go via "small code modification"
        assert result.dropped_atomics
        for fname, line in result.dropped_atomics:
            assert fname.endswith(".f90") and line >= 1

    def test_acc_opt_flags_no_dropped_atomics(self, code1):
        result = port_codebase(PortTarget.ACC_OPT, code1=code1, budget=SMALL)
        assert result.dropped_atomics == []

    def test_summary_is_informative(self, code1):
        result = port_codebase(PortTarget.DC, code1=code1, budget=SMALL)
        text = result.summary()
        assert "target dc" in text and "safe_f2018" in text
        assert "dc-f2018 -> unified-mem" in text


def _unsafe_codebase():
    """One OpenACC region the dependence core proves has a carried dep."""
    return Codebase("unsafe", [SourceFile("carried.f90", [
        "!$acc parallel default(present)",
        "!$acc loop collapse(3)",
        "      do k=1,n3",
        "      do j=1,n2",
        "      do i=1,n1",
        "        a(i,j,k) = a(i-1,j,k) + b(i,j,k)",
        "      enddo",
        "      enddo",
        "      enddo",
        "!$acc end parallel",
    ])])


class TestRefusal:
    def test_hand_build_fails_loudly_on_a_loopless_region(self):
        tree = Codebase("loopless", [SourceFile("empty.f90", [
            "      x = 1",
            "!$acc parallel default(present)",
            "      y = 2",
            "!$acc end parallel",
        ])])
        with pytest.raises(ValueError, match=r"empty\.f90:2 .*without a loop nest"):
            build_version(CodeVersion.AD, code1=tree)

    def test_acc_opt_records_refusal_and_keeps_region(self):
        result = port_codebase(PortTarget.ACC_OPT, code1=_unsafe_codebase())
        assert len(result.refused) == 1
        r = result.refused[0]
        assert r.file == "carried.f90" and r.line == 1
        assert "hazard" in r.reason
        # the region stays valid OpenACC: nothing was converted
        assert result.converted.total() == 0
        lines = result.codebase.file("carried.f90").lines
        assert lines[0].startswith("!$acc parallel")

    def test_all_dc_target_raises(self):
        with pytest.raises(PortRefusedError) as exc:
            port_codebase(PortTarget.DC, code1=_unsafe_codebase())
        assert "carried.f90:1" in str(exc.value)
        assert exc.value.target is PortTarget.DC
        assert len(exc.value.refused) == 1

    def test_refusal_renders_location(self):
        result = port_codebase(PortTarget.ACC_OPT, code1=_unsafe_codebase())
        assert result.refused[0].render().startswith("carried.f90:1 ")


class TestTelemetry:
    def test_port_counters_recorded(self, code1, tmp_path):
        from repro.obs import session

        with session(tmp_path / "tel") as tel:
            port_codebase(PortTarget.ACC_OPT, code1=code1, budget=SMALL)
            prom = tel.metrics.to_prometheus_text()
        assert 'port_regions_total{safety="safe_f2018",target="acc-opt"}' \
            in prom or "port_regions_total" in prom
