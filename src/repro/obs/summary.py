"""Summarize a telemetry directory into human-readable tables.

``repro telemetry DIR`` reads the artifacts a finalized
:class:`~repro.obs.telemetry.Telemetry` session wrote (manifest, JSONL
log, spans, metrics snapshot) and renders: run provenance, per-step
statistics, the hottest span names by total simulated time, and the
counter/gauge/histogram values -- the quick "what did this run do and
where did the time go" view without opening Perfetto.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

from repro.obs import telemetry as tmod
from repro.obs.events import EventRecord
from repro.obs.runlog import json_object
from repro.util.tables import Table


class JsonLines(list):
    """The JSON objects of a JSONL stream, in file order; ``skipped``
    counts the lines that were not UTF-8 or not a JSON object."""

    skipped = 0


def skipped_note(name: str, lines: JsonLines) -> str:
    """The one note a damaged JSONL stream gets, naming it and the count."""
    return f"skipped {lines.skipped} line(s) of {name} that are not UTF-8 or not a JSON object"


def _read_json(path: Path) -> dict | None:
    """The JSON object in ``path``; None when the file is missing or is
    not a readable JSON object."""
    try:
        return json_object(path)
    except (OSError, ValueError):
        return None


def _read_jsonl(path: Path) -> JsonLines:
    """The JSON objects of a JSONL file, one per line, read as bytes. A
    line that is not UTF-8 or not a JSON object is skipped and counted; a
    missing file has no lines."""
    out = JsonLines()
    if not path.is_file():
        return out
    for line in path.read_bytes().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError):
            obj = None
        if isinstance(obj, dict):
            out.append(obj)
        else:
            out.skipped += 1
    return out


def _manifest_block(manifest: dict | None) -> str:
    if not manifest:
        return "manifest: (missing)"
    lines = ["run manifest:"]
    for key in ("command", "git_sha", "python", "numpy", "seed"):
        if key in manifest and manifest[key] is not None:
            lines.append(f"  {key:8s} {manifest[key]}")
    models = manifest.get("models") or []
    for m in models:
        lines.append(
            f"  model    #{m.get('index', '?')} {m.get('version', '?')}"
            f" shape={tuple(m.get('shape', ()))} ranks={m.get('num_ranks', '?')}"
            f" um={m.get('unified_memory')}"
        )
    return "\n".join(lines)


def _steps_table(records: list[dict]) -> str | None:
    steps = [r for r in records if r.get("event") == "step"]
    if not steps:
        return None
    t = Table(
        ["steps", "mean dt", "mean wall (ms)", "mean mpi (ms)", "mean compute (ms)",
         "launches"],
        title="Per-step records (log.jsonl)",
    )

    def mean(key: str) -> float:
        vals = [float(r[key]) for r in steps if key in r]
        return sum(vals) / len(vals) if vals else 0.0

    t.add_row(
        [
            len(steps),
            f"{mean('dt'):.5f}",
            mean("wall") * 1e3,
            mean("mpi") * 1e3,
            mean("compute") * 1e3,
            int(sum(r.get("launches", 0) for r in steps)),
        ]
    )
    return t.render()


def _mpi_share_block(records: list[dict]) -> str | None:
    """MPI split of the mean step: pack / transfer / wait shares.

    Overlapped-exchange runs show their gain here: hidden communication
    leaves the wall (and the ``mpi_wait`` share collapses), while
    ``halo_overlap_seconds`` in the metrics snapshot records how much was
    hidden.
    """
    steps = [r for r in records if r.get("event") == "step" and r.get("categories")]
    if not steps:
        return None
    n = len(steps)
    wall = sum(float(r.get("wall", 0.0)) for r in steps) / n
    if wall <= 0.0:
        return None
    t = Table(
        ["category", "mean per step (ms)", "share of step"],
        title="MPI time by category (mean over steps)",
    )
    total = 0.0
    for cat in ("mpi_pack", "mpi_transfer", "mpi_wait"):
        v = sum(float(r["categories"].get(cat, 0.0)) for r in steps) / n
        total += v
        t.add_row([cat, v * 1e3, f"{100.0 * v / wall:5.1f}%"])
    t.add_row(["mpi_total", total * 1e3, f"{100.0 * total / wall:5.1f}%"])
    return t.render()


def _spans_table(spans: list[dict], top: int = 12) -> str | None:
    if not spans:
        return None
    agg: dict[str, tuple[int, float]] = {}
    for s in spans:
        if s.get("end") is None:
            continue
        n, total = agg.get(s["name"], (0, 0.0))
        agg[s["name"]] = (n + 1, total + float(s.get("duration", 0.0)))
    if not agg:
        return None
    t = Table(
        ["span", "count", "total (ms)", "mean (ms)"],
        title=f"Hottest spans by total simulated time (top {top})",
    )
    for name, (n, total) in sorted(agg.items(), key=lambda kv: -kv[1][1])[:top]:
        t.add_row([name, n, total * 1e3, total / n * 1e3])
    return t.render()


#: Per-kernel roofline families: one sample per kernel spec, dozens per
#: run -- they would drown the snapshot table and have their own renderer
#: (``repro critpath DIR``).
_ROOFLINE_FAMILIES = frozenset({
    "kernel_seconds_total", "kernel_bytes_total", "kernel_flops_total",
    "kernel_calls_total", "kernel_sol_fraction",
})


def _metrics_table(metrics: dict | None, top: int = 30) -> str | None:
    if not metrics:
        return None
    t = Table(["metric", "labels", "value"], title="Metrics snapshot")
    rows = 0
    skipped = 0
    for name in sorted(metrics):
        if name in _ROOFLINE_FAMILIES:
            skipped += 1
            continue
        fam = metrics[name]
        for sample in fam.get("samples", []):
            labels = ",".join(f"{k}={v}" for k, v in sample.get("labels", {}).items())
            if fam.get("type") == "histogram":
                count = sample.get("count", 0)
                mean = sample.get("sum", 0.0) / count if count else 0.0
                value = f"count={count} mean={mean:.6g}"
            else:
                value = f"{sample.get('value', 0.0):.6g}"
            t.add_row([name, labels or "-", value])
            rows += 1
            if rows >= top:
                break
        if rows >= top:
            break
    if not rows:
        return None
    out = t.render()
    if skipped:
        out += (
            f"\n({skipped} per-kernel roofline families omitted; "
            "see: repro critpath DIR)"
        )
    return out


def member_table(rows: list[dict]) -> str:
    """Per-member convergence table of ``repro sweep``, of the ``repro
    critpath`` fallback on a sweep directory and of the summary. A value a
    row lacks, or holds as something other than a number, shows as ``-``."""

    def number(r: dict, k: str, spec: str) -> str:
        v = r.get(k)
        return format(v, spec) if isinstance(v, (int, float)) else "-"

    base = ("member", "sim_time", "dt", "pcg_iterations", "pcg_converged",
            "pcg_breakdown")
    vary_cols = [k for k in rows[0] if k not in base]
    t = Table(["member", *vary_cols, "sim_time", "dt", "pcg_iters",
               "converged", "breakdown"])
    for r in rows:
        breakdown = r.get("pcg_breakdown")
        t.add_row(
            [
                r.get("member", "-"),
                *(number(r, k, ".6g") for k in vary_cols),
                number(r, "sim_time", ".5f"),
                number(r, "dt", ".5f"),
                r.get("pcg_iterations", "-"),
                r.get("pcg_converged", "-"),
                "-" if breakdown is None else "yes" if breakdown else "no",
            ]
        )
    return t.render()


def _ensemble_table(records: list[dict]) -> str | None:
    """Per-member convergence table for sweep runs, from the
    ``sweep_member`` rows ``repro sweep`` logs at run end; absent for
    scalar runs."""
    rows = [
        {k: v for k, v in r.items() if k not in ("event", "ts")}
        for r in records if r.get("event") == "sweep_member"
    ]
    if not rows:
        return None
    rows.sort(key=lambda r: r.get("member", 0))
    return "per-member convergence (ensemble sweep):\n" + member_table(rows)


def _critpath_block(streams: tuple[EventRecord | None, Path]) -> str | None:
    """Compact per-model critical-path table from the event record; absent
    when there are no events. The table shows no phase, so the record is
    analyzed without phase windows and ``spans.jsonl`` cannot change it."""
    from repro.obs.critpath import analyze_record, render_compact

    record, d = streams
    results = analyze_record(record) if record is not None else {}
    if not results:
        return None
    return render_compact(results) + (
        "\n(full attribution: repro critpath " + str(d) + ")"
    )


def _stream(
    d: Path, name: str, reader: Callable[[Path], Any], skipped: str, notes: list[str]
) -> Any:
    """One stream of a telemetry directory: its parsed content, or ``None``
    and a note saying it is absent or unreadable (and what that costs)."""
    tail = f" ({skipped})" if skipped else ""
    if not (d / name).is_file():
        notes.append(f"note: missing stream {name}{tail}")
        return None
    try:
        return reader(d / name)
    except (OSError, ValueError) as exc:
        notes.append(f"note: unreadable stream {name}{tail}: {exc}")
        return None


def summarize_dir(path: str | Path) -> str:
    """Render the summary for one telemetry directory.

    Degrades gracefully: a directory that lost streams (e.g. rotated
    metrics snapshots survive but ``spans.jsonl`` was pruned) still
    summarizes whatever is present, with a note per missing or unreadable
    stream instead of a silent hole.
    """
    d = Path(path)
    if not d.is_dir():
        raise FileNotFoundError(f"telemetry directory {d} does not exist")
    notes: list[str] = []
    manifest = _stream(d, tmod.MANIFEST_FILE, json_object, "", notes)
    spans = _stream(d, tmod.SPANS_FILE, _read_jsonl, "span tables skipped", notes) or JsonLines()
    records = _stream(d, tmod.LOG_FILE, _read_jsonl, "step tables skipped", notes) or JsonLines()
    for name, lines in ((tmod.SPANS_FILE, spans), (tmod.LOG_FILE, records)):
        if lines.skipped:
            notes.append(f"note: {skipped_note(name, lines)}")
    metrics = _stream(d, tmod.METRICS_JSON_FILE, json_object, "", notes)
    if metrics is None:
        # Fall back to the newest rotated snapshot a long run left behind.
        for i in range(1, tmod.METRICS_SNAPSHOT_KEEP + 1):
            rotated = d / f"{tmod.METRICS_JSON_FILE}.{i}"
            metrics = _read_json(rotated)
            if metrics is not None:
                notes.append(
                    f"note: showing rotated snapshot {rotated.name} "
                    "(run may have ended mid-write)"
                )
                break
    events = _stream(d, tmod.EVENTS_FILE, EventRecord.load, "critical path skipped", notes)

    blocks = [f"telemetry summary: {d}", _manifest_block(manifest)]
    if notes:
        blocks.append("\n".join(notes))
    for builder, arg in (
        (_steps_table, records),
        (_mpi_share_block, records),
        (_ensemble_table, records),
        (_spans_table, spans),
        (_metrics_table, metrics),
        (_critpath_block, (events, d)),
    ):
        try:
            block = builder(arg)
        except Exception as exc:  # torn stream; summarize the rest anyway
            block = f"note: {builder.__name__} failed on partial data ({exc})"
        if block:
            blocks.append(block)
    if events is not None:
        blocks.append(
            f"chrome trace: repro telemetry {d} --chrome-trace OUT.json "
            "(open at https://ui.perfetto.dev)"
        )
    return "\n\n".join(blocks)
