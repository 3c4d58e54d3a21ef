"""Per-kernel roofline speed-of-light analysis.

The engines record, per kernel spec, the device-busy seconds actually
charged plus the nominal HBM bytes and flops behind them
(``kernel_seconds_total`` / ``kernel_bytes_total`` / ``kernel_flops_total``,
emitted by :mod:`repro.runtime.engine` and the CPU dispatch path). This
module turns those counters into the quantitative version of the paper's Table III reasoning: the *attainable*
(speed-of-light) time of a kernel is ``max(bytes / peak_bw, flops /
peak_flops)`` on the machine model's theoretical peaks, and

    ``kernel_sol_fraction{kernel} = attainable / measured``

is the fraction of speed-of-light the kernel actually reached. Fractions
land well below 1 exactly where the cost model charges penalties --
sustained-vs-peak bandwidth (0.82 on the A100), atomic array reductions
(0.80), UM page-table pressure, MPI buffer pressure -- so a kernel falling
under the flag threshold points at a *mechanism*, not noise.

``repro critpath DIR`` renders the table; ``Telemetry.finalize`` bakes the
fractions into ``metrics.json`` as gauges so cross-run compares (and
``--explain``) see efficiency shifts directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.obs.reader import decode_metrics, decode_models

#: Kernels below this fraction of speed-of-light get flagged in renders.
DEFAULT_SOL_THRESHOLD = 0.5


@dataclass(frozen=True, slots=True)
class MachinePeaks:
    """Theoretical peaks the speed-of-light time is computed against."""

    name: str
    mem_bandwidth: float  # bytes/s, peak (not sustained)
    flops: float          # flop/s (fp64 for the A100 model)

    def sol_seconds(self, nbytes: float, nflops: float) -> float:
        """Attainable time of a kernel moving ``nbytes`` doing ``nflops``."""
        t_mem = nbytes / self.mem_bandwidth if self.mem_bandwidth > 0 else 0.0
        t_flop = nflops / self.flops if self.flops > 0 else 0.0
        return max(t_mem, t_flop)


@dataclass(frozen=True, slots=True)
class KernelRoofline:
    """One kernel's measured-vs-attainable summary."""

    kernel: str
    category: str         # compute | mpi_pack
    calls: int
    seconds: float        # measured device-busy seconds (total)
    bytes: float
    flops: float
    sol_seconds: float    # attainable total at machine peaks

    @property
    def sol_fraction(self) -> float:
        """Fraction of speed-of-light reached (1.0 = at the roofline)."""
        if self.seconds <= 0.0:
            return 0.0
        return self.sol_seconds / self.seconds

    @property
    def intensity(self) -> float:
        """Arithmetic intensity (flops per byte)."""
        return self.flops / self.bytes if self.bytes > 0 else 0.0


def peaks_from_manifest(manifest: Mapping[str, Any] | None) -> MachinePeaks | None:
    """Machine peaks recorded by ``Telemetry.bind_model``, if any.

    Multi-model sessions (fig3) bind several models against the same
    device spec; the first ``machine`` entry wins.
    """
    for model in decode_models(manifest):
        machine = model["machine"]
        if machine and machine["mem_bandwidth"]:
            return MachinePeaks(machine["name"], machine["mem_bandwidth"], machine["flops"])
    return None


def roofline_from_metrics(
    metrics: Mapping[str, Any], peaks: MachinePeaks
) -> list[KernelRoofline]:
    """Build per-kernel rows from a metrics.json dict (raw or decoded),
    hottest first."""
    decoded = decode_metrics(metrics)

    def by_kernel(name: str) -> dict[str, dict]:
        return {s["labels"]["kernel"]: s for s in decoded.get(name, ()) if "kernel" in s["labels"]}

    nbytes, nflops, calls = (
        {kernel: s["value"] for kernel, s in by_kernel(name).items()}
        for name in ("kernel_bytes_total", "kernel_flops_total", "kernel_calls_total")
    )
    rows = []
    for kernel, sample in by_kernel("kernel_seconds_total").items():
        b, f = nbytes.get(kernel, 0.0), nflops.get(kernel, 0.0)
        rows.append(
            KernelRoofline(
                kernel=kernel,
                category=sample["labels"].get("category", "compute"),
                calls=int(calls.get(kernel, 0.0)),
                seconds=sample["value"],
                bytes=b,
                flops=f,
                sol_seconds=peaks.sol_seconds(b, f),
            )
        )
    rows.sort(key=lambda r: -r.seconds)
    return rows


def flagged(
    rows: list[KernelRoofline], threshold: float = DEFAULT_SOL_THRESHOLD
) -> list[KernelRoofline]:
    """Kernels below ``threshold`` of speed-of-light (hottest first)."""
    return [r for r in rows if r.sol_fraction < threshold]


def sol_fraction_gauges(
    metrics: Mapping[str, Any], peaks: MachinePeaks
) -> dict[str, float]:
    """``{kernel: sol_fraction}`` -- what finalize bakes into metrics.json."""
    return {r.kernel: r.sol_fraction for r in roofline_from_metrics(metrics, peaks)}


def render_roofline(
    rows: list[KernelRoofline],
    peaks: MachinePeaks,
    *,
    top: int = 12,
    threshold: float = DEFAULT_SOL_THRESHOLD,
) -> str:
    """Speed-of-light table for the hottest ``top`` kernels."""
    from repro.util.tables import Table

    if not rows:
        return "roofline: no per-kernel counters in this run"
    t = Table(
        ["kernel", "calls", "time (ms)", "bytes", "flop/B", "SoL (ms)",
         "SoL frac", ""],
        title=(
            f"Roofline speed-of-light vs {peaks.name} "
            f"({peaks.mem_bandwidth / 1e9:.0f} GB/s, "
            f"{peaks.flops / 1e12:.1f} Tflop/s peak; top {top} by time)"
        ),
    )
    for r in rows[:top]:
        t.add_row(
            [
                r.kernel,
                r.calls,
                r.seconds * 1e3,
                f"{r.bytes:.3g}",
                f"{r.intensity:.3f}",
                r.sol_seconds * 1e3,
                f"{r.sol_fraction * 100:5.1f}%",
                "FLAG" if r.sol_fraction < threshold else "",
            ]
        )
    lines = [t.render()]
    low = flagged(rows, threshold)
    if low:
        lines.append(
            f"{len(low)} kernel(s) below {threshold * 100:.0f}% of "
            "speed-of-light (FLAG): penalties from atomics/UM/buffer "
            "pressure, or launch-bound work"
        )
    return "\n".join(lines)
