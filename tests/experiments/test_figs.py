"""Figure experiments: shape assertions against the paper's findings.

These run the calibrated model at several GPU counts, so they are the
slowest tests in the suite (a few seconds each); they use a reduced
calibration where the asserted shape does not depend on solver depth.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.codes import CodeVersion
from repro.experiments import fig4 as fig4_module
from repro.experiments.fig2 import PAPER_WALL, render_fig2, run_fig2
from repro.experiments.fig3 import PAPER_BARS, render_fig3, run_fig3
from repro.experiments.fig4 import NUM_GPUS, render_fig4, run_fig4
from repro.obs import telemetry
from repro.obs.events import EventRecord, Profiler
from repro.perf.calibration import Calibration

FAST = Calibration(pcg_iters=3, sts_stages=3, bench_steps=1)

UM_VERSIONS = (CodeVersion.ADU, CodeVersion.AD2XU, CodeVersion.D2XU)
MANUAL_VERSIONS = (CodeVersion.A, CodeVersion.AD, CodeVersion.D2XAD)


@pytest.fixture(scope="module")
def fig2():
    return run_fig2(calibration=FAST)


@pytest.fixture(scope="module")
def fig3():
    return run_fig3(calibration=FAST)


@pytest.fixture(scope="module")
def fig3_full():
    """All twelve bars at the full paper calibration (the walls are also
    Fig. 2's 1- and 8-GPU anchors: same ``measure_breakdown`` calls)."""
    return run_fig3()


@pytest.fixture(scope="module")
def fig4():
    return run_fig4()


class TestFig2Shape:
    def test_code1_fastest_everywhere(self, fig2):
        for n in (1, 2, 4, 8):
            for v in (CodeVersion.AD, CodeVersion.ADU, CodeVersion.AD2XU,
                      CodeVersion.D2XU, CodeVersion.D2XAD):
                assert fig2.wall(CodeVersion.A, n) <= fig2.wall(v, n) * 1.001

    def test_um_codes_much_slower_at_scale(self, fig2):
        for v in UM_VERSIONS:
            assert fig2.slowdown_vs_code1(v, 8) > 2.0

    def test_slowdown_band_from_abstract(self, fig2):
        """Zero-directive code: slowdown between 1.25x and 3x."""
        s1 = fig2.slowdown_vs_code1(CodeVersion.D2XU, 1)
        s8 = fig2.slowdown_vs_code1(CodeVersion.D2XU, 8)
        assert 1.2 < s1 < 1.6
        assert 2.4 < s8 < 3.3

    def test_manual_codes_super_scaling_then_dip(self, fig2):
        for v in MANUAL_VERSIONS:
            s = fig2.series[v]
            assert s.speedup(2) > 2.0       # 'super' scaling at first
            assert s.speedup(8) > 7.0       # close to ideal at 8
            # the last doubling dips below ideal
            assert s.wall(4) / s.wall(8) < 2.0

    def test_um_codes_poor_scaling(self, fig2):
        for v in UM_VERSIONS:
            assert fig2.series[v].speedup(8) < 6.0

    def test_dc_manual_trails_code1_slightly(self, fig2):
        """Codes 2 and 6 are 'somewhat slower' than Code 1 (SV-C)."""
        for v in (CodeVersion.AD, CodeVersion.D2XAD):
            for n in (1, 8):
                ratio = fig2.slowdown_vs_code1(v, n)
                assert 1.0 < ratio < 1.25

    def test_render(self, fig2):
        out = render_fig2(fig2)
        assert "Ideal Scaling" in out
        assert "CODE 1" in out


class TestFig3Shape:
    def test_anchor_bars_within_tolerance(self, fig3_full):
        """With the full calibration, every bar lands within 15% of the
        paper (most within 5%)."""
        for n, bars in PAPER_BARS.items():
            for v, (wall, non_mpi) in bars.items():
                b = fig3_full.breakdown(n, v)
                assert b.wall_minutes == pytest.approx(wall, rel=0.15), (n, v)
                assert b.non_mpi_minutes == pytest.approx(non_mpi, rel=0.15), (n, v)

    def test_mpi_scaling_at_full_calibration(self, fig3_full):
        assert fig3_full.um_mpi_blowup(8) > 5.0          # UM MPI explosion at scale
        assert 1.1 < fig3_full.um_mpi_blowup(1) < 4.0    # modest at one GPU
        a1, a8 = (fig3_full.breakdown(n, CodeVersion.A) for n in (1, 8))
        assert a8.mpi_minutes < a1.mpi_minutes / 4    # manual MPI shrinks
        u1, u8 = (fig3_full.breakdown(n, CodeVersion.ADU) for n in (1, 8))
        assert 0.3 < u8.mpi_minutes / u1.mpi_minutes < 1.5  # UM MPI ~constant

    def test_slowdown_band_at_full_calibration(self, fig3_full):
        """The abstract's band for the zero-directive code, on the walls
        EXPERIMENTS.md prints."""
        d8, a8 = (fig3_full.breakdown(8, v) for v in (CodeVersion.D2XU, CodeVersion.A))
        assert 1.25 < d8.wall_minutes / a8.wall_minutes < 3.2

    def test_um_blowup_at_8(self, fig3):
        assert fig3.um_mpi_blowup(8) > 5.0

    def test_um_blowup_modest_at_1(self, fig3):
        assert 1.1 < fig3.um_mpi_blowup(1) < 4.0

    def test_mpi_fraction_drops_for_manual(self, fig3):
        b1 = fig3.breakdown(1, CodeVersion.A)
        b8 = fig3.breakdown(8, CodeVersion.A)
        assert b8.mpi_fraction < b1.mpi_fraction * 1.35

    def test_render(self, fig3):
        out = render_fig3(fig3)
        assert "1 A100" in out and "8 A100" in out
        assert "legend" in out


class TestFig4Shape:
    def test_um_iteration_roughly_3x_slower(self, fig4):
        """'computing a solver iteration three times slower with unified
        memory management' -- we accept 2x-4x."""
        assert 2.0 < fig4.um_slowdown < 4.0

    def test_manual_uses_p2p_only(self, fig4):
        assert fig4.manual_p2p_events > 0
        assert fig4.manual_staged_events == 0

    def test_um_performs_many_cpu_gpu_transfers(self, fig4):
        assert fig4.um_staged_events > fig4.manual_p2p_events

    def test_timelines_render(self, fig4):
        out = render_fig4(fig4)
        assert "manual memory management" in out
        assert "unified managed memory" in out
        assert "P" in fig4.timeline_manual
        for glyph in ("^", "v"):
            assert glyph in fig4.timeline_um

    def test_two_profilers_on_one_clock(self, fig4, tmp_path, monkeypatch, capsys):
        """``repro fig4 --telemetry DIR``: Fig. 4's profilers and the
        session's observe the same clocks and record the same rows (lane
        names aside), and the session saves the record it holds."""
        sessions, profilers = [], []

        def activate(tel):
            sessions.append(tel)
            return real_activate(tel)

        def profiler():
            profilers.append(Profiler())
            return profilers[-1]

        real_activate = telemetry.activate
        monkeypatch.setattr(telemetry, "activate", activate)
        monkeypatch.setattr(fig4_module, "Profiler", profiler)
        assert main(["fig4", "--telemetry", str(tmp_path)]) == 0
        assert capsys.readouterr().out == render_fig4(fig4) + "\n"

        (tel,) = sessions
        session_rows = list(zip(*tel.profiler.columns))
        assert len(profilers) == 2  # manual, then unified memory: models m0, m1
        for model, fig4_profiler in enumerate(profilers):
            for rank in range(NUM_GPUS):
                ours = [row[1:] for row in zip(*fig4_profiler.columns) if row[0] == f"gpu{rank}"]
                theirs = [row[1:] for row in session_rows if row[0] == f"m{model}.rank{rank}"]
                # Fig. 4 attaches after set-up and clears its warm-up step
                assert ours and theirs[-len(ours):] == ours, (model, rank)

        live, saved = tel.profiler.record(), EventRecord.load(tmp_path / telemetry.EVENTS_FILE)
        for name in ("start", "duration", "lane", "category", "label"):
            a, b = getattr(live, name), getattr(saved, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert (live.lanes, live.categories, live.labels) == (
            saved.lanes, saved.categories, saved.labels)
