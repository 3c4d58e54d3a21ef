"""Summarize a telemetry directory into human-readable tables.

``repro telemetry DIR`` reads the artifacts a finalized
:class:`~repro.obs.telemetry.Telemetry` session wrote (manifest, JSONL
log, spans, metrics snapshot) and renders: run provenance, per-step
statistics, the hottest span names by total simulated time, and the
counter/gauge/histogram values -- the quick "what did this run do and
where did the time go" view without opening Perfetto.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.obs import reader
from repro.util.tables import Table


def _manifest_block(manifest: dict | None, models: list[dict]) -> str:
    if not manifest:
        return "manifest: (missing)"
    lines = ["run manifest:"]
    for key in ("command", "git_sha", "python", "numpy", "seed"):
        if key in manifest and manifest[key] is not None:
            lines.append(f"  {key:8s} {manifest[key]}")
    for m in models:
        lines.append(
            f"  model    #{m['index']} {m['version']} shape={tuple(m['shape'])}"
            f" ranks={m['num_ranks']} um={m['unified_memory']}"
        )
    return "\n".join(lines)


def _steps_table(steps: list[dict]) -> str | None:
    if not steps:
        return None
    t = Table(
        ["steps", "mean dt", "mean wall (ms)", "mean mpi (ms)", "mean compute (ms)",
         "launches"],
        title="Per-step records (log.jsonl)",
    )

    def mean(key: str) -> float:
        return sum(r[key] for r in steps) / len(steps)

    t.add_row(
        [
            len(steps),
            f"{mean('dt'):.5f}",
            mean("wall") * 1e3,
            mean("mpi") * 1e3,
            mean("compute") * 1e3,
            sum(r["launches"] for r in steps),
        ]
    )
    return t.render()


def _mpi_share_block(steps: list[dict]) -> str | None:
    """MPI split of the mean step: pack / transfer / wait shares.

    Overlapped-exchange runs show their gain here: hidden communication
    leaves the wall (and the ``mpi_wait`` share collapses), while
    ``halo_overlap_seconds`` in the metrics snapshot records how much was
    hidden.
    """
    steps = [r for r in steps if r["categories"]]
    if not steps:
        return None
    n = len(steps)
    wall = sum(r["wall"] for r in steps) / n
    if wall <= 0.0:
        return None
    t = Table(
        ["category", "mean per step (ms)", "share of step"],
        title="MPI time by category (mean over steps)",
    )
    total = 0.0
    for cat in reader.MPI_CATEGORIES:
        v = sum(r["categories"].get(cat, 0.0) for r in steps) / n
        total += v
        t.add_row([cat, v * 1e3, f"{100.0 * v / wall:5.1f}%"])
    t.add_row(["mpi_total", total * 1e3, f"{100.0 * total / wall:5.1f}%"])
    return t.render()


def _spans_table(spans: list[dict], top: int = 12) -> str | None:
    agg: dict[str, tuple[int, float]] = {}
    for s in spans:
        if s["end"] is None:
            continue
        n, total = agg.get(s["name"], (0, 0.0))
        agg[s["name"]] = (n + 1, total + s["duration"])
    if not agg:
        return None
    t = Table(
        ["span", "count", "total (ms)", "mean (ms)"],
        title=f"Hottest spans by total simulated time (top {top})",
    )
    for name, (n, total) in sorted(agg.items(), key=lambda kv: -kv[1][1])[:top]:
        t.add_row([name, n, total * 1e3, total / n * 1e3])
    return t.render()


def _metrics_table(metrics: reader.Metrics, top: int = 30) -> str | None:
    """The snapshot's first ``top`` samples, less the per-kernel roofline
    families: dozens of samples per run, rendered by ``repro critpath DIR``."""
    samples = [(name, sample) for name in sorted(metrics.keys() - reader.ROOFLINE_FAMILIES)
               for sample in metrics[name]][:top]
    if not samples:
        return None
    t = Table(["metric", "labels", "value"], title="Metrics snapshot")
    for name, sample in samples:
        labels = ",".join(f"{k}={v}" for k, v in sample["labels"].items())
        if sample["kind"] == "histogram":
            count = sample["count"]
            mean = sample["sum"] / count if count else 0.0
            value = f"count={count} mean={mean:.6g}"
        else:
            value = f"{sample['value']:.6g}"
        t.add_row([name, labels or "-", value])
    omitted = len(reader.ROOFLINE_FAMILIES & metrics.keys())
    tail = f"\n({omitted} per-kernel roofline families omitted; see: repro critpath DIR)"
    return t.render() + (tail if omitted else "")


def member_table(rows: list[dict]) -> str:
    """Per-member convergence table of decoded member rows
    (:func:`repro.obs.reader.decode_members`): ``repro sweep``'s, the
    ``repro critpath`` fallback's on a sweep directory and the summary's.
    An absent value shows as ``-``."""

    def cell(value: Any, spec: str | None = None) -> Any:
        return "-" if value is None else value if spec is None else format(value, spec)

    vary_cols = [k for k in rows[0] if k not in reader.MEMBER]
    t = Table(["member", *vary_cols, "sim_time", "dt", "pcg_iters",
               "converged", "breakdown"])
    for r in rows:
        t.add_row([cell(r["member"]), *(cell(r.get(k), ".6g") for k in vary_cols),
                   cell(r["sim_time"], ".5f"), cell(r["dt"], ".5f"), cell(r["pcg_iterations"]),
                   cell(r["pcg_converged"]), cell(r["pcg_breakdown"])])
    return t.render()


def _ensemble_table(members: reader.Records) -> str | None:
    """Per-member convergence table of a sweep run; absent for scalar runs."""
    if not members:
        return None
    return "per-member convergence (ensemble sweep):\n" + member_table(members)


def _critpath_block(tel: reader.TelemetryDir) -> str | None:
    """Compact per-model critical-path table from the event record; absent
    when there are no events. The table shows no phase, so the record is
    analyzed without phase windows and ``spans.jsonl`` cannot change it."""
    from repro.obs.critpath import analyze_record, render_compact

    record = tel.stream("events").value
    results = analyze_record(record) if record is not None else {}
    if not results:
        return None
    return render_compact(results) + f"\n(full attribution: repro critpath {tel.path})"


def summarize_dir(path: str | Path) -> str:
    """Render the summary for one telemetry directory.

    Degrades gracefully: a directory that lost streams (e.g. rotated
    metrics snapshots survive but ``spans.jsonl`` was pruned) still
    summarizes whatever is present, with a note per missing or unreadable
    stream instead of a silent hole.
    """
    tel = reader.TelemetryDir(path)
    notes: list[str] = []

    def read(key: str, skipped: str = "") -> Any:
        """One stream's content, or None and a note on what its absence costs."""
        stream = tel.stream(key)
        tail = f" ({skipped})" if skipped else ""
        if stream.missing:
            notes.append(f"note: missing stream {stream.name}{tail}")
        elif stream.error is not None:
            notes.append(f"note: unreadable stream {stream.name}{tail}: {stream.error}")
        return stream.value

    manifest = read("manifest")
    read("spans", "span tables skipped")
    read("log", "step tables skipped")
    log = tel.lines("log")
    notes += [f"note: {note}" for note in reader.skipped_notes(tel.lines("spans"), log)]
    metrics = reader.decode_metrics(read("metrics"))
    if tel.stream("metrics").value is None:
        # Fall back to the newest rotated snapshot a long run left behind.
        rotated = tel.rotated_metrics()
        if rotated is not None:
            metrics = reader.decode_metrics(rotated.value, rotated.name)
            notes.append(f"note: showing rotated snapshot {rotated.name} "
                         "(run may have ended mid-write)")
    events = read("events", "critical path skipped")
    members = reader.decode_members(  # a scalar run has no sweep.json: not a note
        None if tel.stream("sweep").missing else read("sweep", "member table skipped"))
    models, steps = reader.decode_models(manifest), reader.decode_steps(log)
    spans = reader.decode_spans(tel.lines("spans"))
    notes += [f"note: {note}"
              for note in reader.skipped_notes(models, steps, spans, metrics, members)]

    blocks = [f"telemetry summary: {tel.path}", _manifest_block(manifest, models)]
    if notes:
        blocks.append("\n".join(notes))
    for builder, arg in (
        (_steps_table, steps),
        (_mpi_share_block, steps),
        (_ensemble_table, members),
        (_spans_table, spans),
        (_metrics_table, metrics),
        (_critpath_block, tel),
    ):
        try:
            block = builder(arg)
        except Exception as exc:  # torn stream; summarize the rest anyway
            block = f"note: {builder.__name__} failed on partial data ({exc})"
        if block:
            blocks.append(block)
    if events is not None:
        blocks.append(
            f"chrome trace: repro telemetry {tel.path} --chrome-trace OUT.json "
            "(open at https://ui.perfetto.dev)"
        )
    return "\n\n".join(blocks)
