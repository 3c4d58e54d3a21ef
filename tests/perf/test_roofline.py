"""Roofline speed-of-light: peaks, per-kernel fractions, flagging."""

import json

import pytest

from repro.obs.reader import decode_metrics
from repro.perf.roofline import (
    DEFAULT_SOL_THRESHOLD,
    KernelRoofline,
    MachinePeaks,
    flagged,
    peaks_from_manifest,
    render_roofline,
    roofline_from_metrics,
    sol_fraction_gauges,
)

PEAKS = MachinePeaks(name="a100", mem_bandwidth=2.0e12, flops=9.7e12)


class TestMachinePeaks:
    def test_bandwidth_bound(self):
        # 2e12 bytes at 2e12 B/s -> 1 s; 1e12 flops at 9.7e12 -> ~0.1 s
        assert PEAKS.sol_seconds(2.0e12, 1.0e12) == pytest.approx(1.0)

    def test_flop_bound(self):
        assert PEAKS.sol_seconds(1.0e9, 9.7e12) == pytest.approx(1.0)

    def test_zero_peaks_are_safe(self):
        p = MachinePeaks(name="x", mem_bandwidth=0.0, flops=0.0)
        assert p.sol_seconds(1.0e9, 1.0e9) == 0.0


class TestPeaksFromManifest:
    def test_reads_first_machine_entry(self):
        manifest = {
            "models": [
                {"prefix": "m0"},  # no machine entry (older run)
                {"prefix": "m1",
                 "machine": {"name": "a100", "mem_bandwidth": 2.0e12,
                             "flops": 9.7e12, "stream_efficiency": 0.82}},
            ]
        }
        peaks = peaks_from_manifest(manifest)
        assert peaks is not None
        assert peaks.name == "a100"
        assert peaks.mem_bandwidth == pytest.approx(2.0e12)
        assert peaks.flops == pytest.approx(9.7e12)

    @pytest.mark.parametrize("manifest", [None, {}, {"models": []},
                                          {"models": [{"prefix": "m0"}]}])
    def test_missing_machine_returns_none(self, manifest):
        assert peaks_from_manifest(manifest) is None


def _metrics(kernels):
    """metrics.json families from {kernel: (cat, calls, sec, bytes, flops)}."""
    vals = {
        k: (cat, {"kernel_calls_total": calls, "kernel_seconds_total": sec,
                  "kernel_bytes_total": b, "kernel_flops_total": f})
        for k, (cat, calls, sec, b, f) in kernels.items()
    }
    return {
        name: {
            "samples": [
                {"labels": {"kernel": k, "category": cat}, "value": d[name]}
                for k, (cat, d) in vals.items()
            ]
        }
        for name in ("kernel_calls_total", "kernel_seconds_total",
                     "kernel_bytes_total", "kernel_flops_total")
    }


class TestRooflineFromMetrics:
    def test_join_and_ordering(self):
        metrics = _metrics({
            # at speed of light: 2e9 bytes / 2e12 B/s = 1 ms measured
            "fast_k": ("compute", 4, 1.0e-3, 2.0e9, 1.0e9),
            # 4x slower than attainable, and hotter -> sorted first
            "slow_k": ("mpi_pack", 2, 4.0e-3, 2.0e9, 1.0e9),
        })
        rows = roofline_from_metrics(metrics, PEAKS)
        assert [r.kernel for r in rows] == ["slow_k", "fast_k"]
        by_name = {r.kernel: r for r in rows}
        assert by_name["fast_k"].sol_fraction == pytest.approx(1.0)
        assert by_name["slow_k"].sol_fraction == pytest.approx(0.25)
        assert by_name["slow_k"].category == "mpi_pack"
        assert by_name["slow_k"].calls == 2
        assert by_name["fast_k"].intensity == pytest.approx(0.5)

    def test_flagged_below_threshold(self):
        metrics = _metrics({
            "fast_k": ("compute", 1, 1.0e-3, 2.0e9, 0.0),
            "slow_k": ("compute", 1, 4.0e-3, 2.0e9, 0.0),
        })
        rows = roofline_from_metrics(metrics, PEAKS)
        low = flagged(rows, 0.5)
        assert [r.kernel for r in low] == ["slow_k"]
        assert flagged(rows, 0.1) == []

    def test_gauges(self):
        metrics = _metrics({"k": ("compute", 1, 2.0e-3, 2.0e9, 0.0)})
        assert sol_fraction_gauges(metrics, PEAKS) == {
            "k": pytest.approx(0.5)
        }

    @pytest.mark.parametrize("family, value", [
        ("kernel_calls_total", float("inf")), ("kernel_calls_total", float("nan")),
        ("kernel_bytes_total", 10**400),
    ], ids=["calls_inf", "calls_nan", "bytes_huge"])
    def test_a_family_of_another_type_holds_finite_values(self, family, value):
        """Whatever type a roofline family declares, a value no finite float
        holds is a dropped sample, not an ``OverflowError``."""
        metrics = _metrics({"k": ("compute", 3, 2.0e-3, 2.0e9, 0.0)})
        metrics[family]["type"] = "gauge"
        metrics[family]["samples"][0]["value"] = value
        decoded = decode_metrics(metrics)
        assert decoded.skipped == 1
        (row,) = roofline_from_metrics(decoded, PEAKS)
        assert row.calls == (0 if family == "kernel_calls_total" else 3)
        assert row.bytes == (0.0 if family == "kernel_bytes_total" else 2.0e9)

    def test_zero_seconds_fraction_is_zero(self):
        r = KernelRoofline(kernel="k", category="compute", calls=0,
                           seconds=0.0, bytes=0.0, flops=0.0, sol_seconds=0.0)
        assert r.sol_fraction == 0.0
        assert r.intensity == 0.0

    def test_render_smoke(self):
        metrics = _metrics({
            "fast_k": ("compute", 1, 1.0e-3, 2.0e9, 0.0),
            "slow_k": ("compute", 1, 4.0e-3, 2.0e9, 0.0),
        })
        rows = roofline_from_metrics(metrics, PEAKS)
        text = render_roofline(rows, PEAKS)
        assert "Roofline speed-of-light vs a100" in text
        assert "FLAG" in text and "slow_k" in text
        assert render_roofline([], PEAKS).startswith("roofline: no per-kernel")


class TestEndToEnd:
    def test_real_run_bakes_fractions(self, tmp_path):
        from repro.codes import CodeVersion, runtime_config_for
        from repro.mas.model import MasModel, ModelConfig
        from repro.obs import telemetry as tmod
        from repro.obs.telemetry import session

        d = tmp_path / "tel"
        with session(d):
            model = MasModel(
                ModelConfig(shape=(8, 6, 8), num_ranks=1, pcg_iters=2,
                            sts_stages=2),
                runtime_config_for(CodeVersion.A),
            )
            model.step()

        manifest = json.loads((d / tmod.MANIFEST_FILE).read_text())
        peaks = peaks_from_manifest(manifest)
        assert peaks is not None and peaks.mem_bandwidth > 0

        metrics = json.loads((d / tmod.METRICS_JSON_FILE).read_text())
        rows = roofline_from_metrics(metrics, peaks)
        assert rows, "run emitted no kernel counters"
        for r in rows:
            # the cost model always charges at or above attainable time
            assert 0.0 < r.sol_fraction <= 1.0 + 1e-9, r.kernel
            assert r.calls >= 1

        # finalize baked the same fractions into metrics.json as gauges
        gauges = {
            s["labels"]["kernel"]: s["value"]
            for s in metrics.get("kernel_sol_fraction", {}).get("samples", [])
        }
        assert gauges == {
            r.kernel: pytest.approx(r.sol_fraction) for r in rows
        }
