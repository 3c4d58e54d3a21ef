"""The JSON streams of a telemetry directory, damaged: every reader exits
0 or 1 with at most one line on stderr and no traceback, notes what it
skipped, and prints the critical-path tables of the healthy directory.

The damages are :data:`tests.obs.records.JSON_DAMAGE`, applied in turn to
``manifest.json``, ``log.jsonl`` and ``spans.jsonl`` of a real run; records
with a wrong-typed field in all five streams (``sweep.json`` of a sweep
directory too); and, drawn by hypothesis, any truncation or single-byte
flip of those streams and ``metrics.json``, or any one JSON leaf of them or
of ``sweep.json`` replaced by a value of another type.
"""

import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs.critpath import _phase_windows
from repro.obs.reader import TelemetryDir, decode_metrics, read_jsonl
from repro.obs.telemetry import (
    EVENTS_FILE, LOG_FILE, MANIFEST_FILE, METRICS_JSON_FILE, SPANS_FILE,
)
from tests.obs.records import JSON_DAMAGE

STREAMS = (MANIFEST_FILE, LOG_FILE, SPANS_FILE)

#: Blocks of ``repro critpath DIR`` that no JSON stream feeds (the phase
#: table reads spans.jsonl, the roofline table the manifest).
_PATH_BLOCKS = (
    "critical path [", "critical_path_seconds by category", "Blame groups on the path",
    "Top path contributors", "idle (mpi_wait) by rank",
)


@pytest.fixture(scope="module")
def healthy(tmp_path_factory):
    out = tmp_path_factory.mktemp("json") / "run"
    assert main(["run", "--ranks", "2", "--steps", "1", "--shape", "8", "6", "8",
                 "--pcg-iters", "2", "--sts-stages", "2", "--telemetry", str(out)]) == 0
    return out


def _run(argv, capsys) -> tuple[int, str]:
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1), (argv, code, err)
    assert "Traceback" not in out + err
    assert err.count("\n") <= 1, err
    return code, out


def _path_tables(text: str) -> list[str]:
    return [b for b in text.split("\n\n") if b.startswith(_PATH_BLOCKS)]


def _compact_table(text: str, d) -> list[str]:
    text = text.replace(str(d), "DIR")
    return [b for b in text.split("\n\n") if b.startswith("Critical path per model")]


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("damage", sorted(JSON_DAMAGE))
def test_damaged_stream(healthy, tmp_path, capsys, stream, damage):
    _, want_summary = _run(["telemetry", str(healthy)], capsys)
    _, want_critpath = _run(["critpath", str(healthy)], capsys)
    d = tmp_path / "damaged"
    shutil.copytree(healthy, d)
    JSON_DAMAGE[damage](d / stream)

    code, summary = _run(["telemetry", str(d)], capsys)
    assert code == 0
    assert _compact_table(summary, d) == _compact_table(want_summary, healthy) != []
    notes = [ln for ln in summary.splitlines() if ln.startswith("note:") and stream in ln]
    assert len(notes) <= 1, notes

    code, critpath = _run(["critpath", str(d)], capsys)
    assert code == 0
    assert _path_tables(critpath) == _path_tables(want_critpath)
    assert len(_path_tables(critpath)) == len(_PATH_BLOCKS)

    code, explained = _run(["telemetry", "--compare", str(healthy), str(d), "--explain"], capsys)
    assert code == 0 and "wall-time delta" in explained

    trace = tmp_path / "trace.json"
    assert _run(["telemetry", str(d), "--chrome-trace", str(trace)], capsys)[0] == 0
    assert json.loads(trace.read_text())["traceEvents"]


@pytest.mark.parametrize("stream", (LOG_FILE, SPANS_FILE))
@pytest.mark.parametrize("damage", ["non_object_line", "non_utf8_byte", "truncated_mid_line",
                                    "wrong_top_level_type"])
def test_skipped_lines_are_one_note_naming_the_file(healthy, tmp_path, capsys, stream, damage):
    d = tmp_path / "damaged"
    shutil.copytree(healthy, d)
    JSON_DAMAGE[damage](d / stream)
    assert read_jsonl(d / stream).skipped == 1
    note = f"skipped 1 line(s) of {stream} that are not UTF-8 or not a JSON object"

    _, summary = _run(["telemetry", str(d)], capsys)
    assert [ln for ln in summary.splitlines() if ln.startswith("note:")] == [f"note: {note}"]
    _, explained = _run(["telemetry", "--compare", str(healthy), str(d), "--explain"], capsys)
    assert f"{d}: {note}" in explained


def test_a_whole_file_stream_must_hold_an_object(healthy, tmp_path):
    d = tmp_path / "damaged"
    shutil.copytree(healthy, d)
    assert TelemetryDir(d).stream("manifest").value["models"]
    for damage in ("non_utf8_byte", "wrong_top_level_type", "truncated_mid_line", "deleted"):
        shutil.copy(healthy / MANIFEST_FILE, d / MANIFEST_FILE)
        JSON_DAMAGE[damage](d / MANIFEST_FILE)
        assert TelemetryDir(d).stream("manifest").value is None, damage


def _dicts(node):
    """Every object of a JSON document, outermost first."""
    if isinstance(node, dict):
        yield node
        node = list(node.values())
    for child in node if isinstance(node, list) else ():
        yield from _dicts(child)


def _retype_first(path, is_record, field, value) -> None:
    """Give ``field`` of the first record ``is_record`` picks the wrong type:
    a line of a JSONL stream, or any object of a whole-file stream."""
    if path.suffix == ".jsonl":
        lines = path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if is_record(json.loads(line)))
        lines[i] = json.dumps({**json.loads(lines[i]), field: value})
        path.write_text("\n".join(lines) + "\n")
        return
    doc = json.loads(path.read_text())
    next(obj for obj in _dicts(doc) if is_record(obj))[field] = value
    path.write_text(json.dumps(doc))


def _is_step(record) -> bool:
    return record.get("event") == "step"


def _is_phase(span) -> bool:
    return span.get("depth") == 1 and span["name"].startswith("step/")


def _has(key):
    return lambda obj: key in obj


def _is_kernel_seconds(sample) -> bool:
    return set(sample.get("labels", ())) == {"category", "kernel"}


#: A value no float holds: ``float()`` of it overflows.
HUGE = 10**400


@pytest.mark.parametrize("stream, is_record, field, value", [
    (LOG_FILE, _is_step, "categories", [1, 2]),
    (LOG_FILE, _is_step, "dt", HUGE),
    (LOG_FILE, _is_step, "categories", {"compute": "abc"}),
    (LOG_FILE, _is_step, "wall", float("nan")),
    (SPANS_FILE, _is_phase, "duration", "abc"),
    (SPANS_FILE, _is_phase, "start", "x"),
    (SPANS_FILE, _is_phase, "end", "x"),
    (SPANS_FILE, _is_phase, "attrs", [1]),
    (METRICS_JSON_FILE, _has("value"), "value", "abc"),
    (METRICS_JSON_FILE, _has("samples"), "samples", 5),
    (METRICS_JSON_FILE, _has("steps_total"), "steps_total", [1, 2]),
    (METRICS_JSON_FILE, _has("labels"), "labels", [1]),
    (METRICS_JSON_FILE, _has("count"), "count", "x"),
    (METRICS_JSON_FILE, _has("count"), "count", HUGE),
    (METRICS_JSON_FILE, _has("sum"), "sum", HUGE),
    (METRICS_JSON_FILE, _has("sim_dt"), "sim_dt",
     {"type": "gauge", "samples": [{"labels": {}, "value": HUGE}]}),
    # a roofline family re-typed gauge still holds finite values only
    (METRICS_JSON_FILE, _has("kernel_calls_total"), "kernel_calls_total",
     {"type": "gauge", "samples": [{"labels": {"kernel": "apply_floors"}, "value": float("inf")}]}),
    (METRICS_JSON_FILE, _has("kernel_bytes_total"), "kernel_bytes_total",
     {"type": "gauge", "samples": [{"labels": {"kernel": "apply_floors"}, "value": HUGE}]}),
    (METRICS_JSON_FILE, _is_kernel_seconds, "value", "abc"),
    (METRICS_JSON_FILE, _is_kernel_seconds, "value", float("nan")),
    (MANIFEST_FILE, _has("models"), "models", {"a": 1}),
    (MANIFEST_FILE, _has("mem_bandwidth"), "mem_bandwidth", "x"),
], ids=["categories_list", "dt_huge", "category_string", "wall_nan", "duration_string",
        "start_string", "end_string", "attrs_list", "counter_string", "samples_int",
        "family_list", "labels_list", "count_string", "count_huge", "sum_huge", "gauge_huge",
        "calls_gauge_inf", "bytes_gauge_huge", "kernel_string", "kernel_nan", "models_object",
        "bandwidth_string"])
def test_a_wrong_typed_record_is_skipped_with_one_note(
    healthy, tmp_path, capsys, stream, is_record, field, value
):
    d = tmp_path / "damaged"
    shutil.copytree(healthy, d)
    _retype_first(d / stream, is_record, field, value)
    trace = tmp_path / "trace.json"
    assert _run(["telemetry", str(d), "--chrome-trace", str(trace)], capsys)[0] == 0
    code, critpath = _run(["critpath", str(d)], capsys)
    assert code == 0 and "nan" not in critpath.replace(str(d), "DIR")
    note = f"skipped 1 record(s) of {stream} with a field of the wrong type"
    # an optional span field of the wrong type reads as absent: nothing is skipped
    notes = [] if field == "attrs" else [note]
    code, compared = _run(["telemetry", "--compare", str(healthy), str(d)], capsys)
    assert code == 0
    assert (f"note: {d}: {note}" in compared.splitlines()) == (stream == METRICS_JSON_FILE)
    code, summary = _run(["telemetry", str(d)], capsys)
    assert code == 0 and "failed on partial data" not in summary
    assert [ln for ln in summary.splitlines() if ln.startswith("note:")] == [
        f"note: {n}" for n in notes]
    assert "nan" not in summary.replace(str(d), "DIR")
    code, explained = _run(["telemetry", "--compare", str(healthy), str(d), "--explain"], capsys)
    assert code == 0 and "wall-time delta" in explained
    if stream == MANIFEST_FILE:  # --explain reads no manifest
        notes = []
    assert [ln for ln in explained.splitlines() if "skipped" in ln] == [
        f"  - {d}: {n}" for n in notes]


def test_a_number_must_convert_to_a_float():
    """The decoders keep an integer exactly when ``float()`` of it does not overflow."""
    largest = 2**1024 - 2**970 - 1
    values = (largest, largest + 1, -largest, -largest - 1)
    snapshot = {"sim_time": {"type": "gauge", "samples": [{"value": v} for v in values]}}
    metrics = decode_metrics(snapshot)
    kept = [s["value"] for s in metrics["sim_time"]]
    assert kept == [largest, -largest] and metrics.skipped == 2
    for value in kept:
        float(value)
    for value in set(values) - set(kept):
        with pytest.raises(OverflowError):
            float(value)


@pytest.fixture(scope="module")
def scratch(healthy, tmp_path_factory):
    """A copy of the healthy run that each hypothesis example damages and restores."""
    d = tmp_path_factory.mktemp("flips") / "run"
    shutil.copytree(healthy, d)
    return d


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stream=st.sampled_from((MANIFEST_FILE, LOG_FILE, SPANS_FILE, METRICS_JSON_FILE)),
       flip=st.booleans(), at=st.integers(0, 2**20), byte=st.integers(0, 255))
def test_any_truncation_or_byte_flip_is_notes_or_one_error_line(
    healthy, scratch, capsys, stream, flip, at, byte
):
    path = scratch / stream
    blob = (healthy / stream).read_bytes()
    at %= len(blob)
    path.write_bytes(blob[:at] + bytes([byte]) + blob[at + 1:] if flip else blob[:at])
    try:
        _run_every_reader(healthy, scratch, capsys)
    finally:
        path.write_bytes(blob)


def _run_every_reader(healthy, d, capsys) -> None:
    for argv in (["telemetry", str(d)], ["critpath", str(d)],
                 ["telemetry", "--compare", str(healthy), str(d)],
                 ["telemetry", "--compare", str(healthy), str(d), "--explain"],
                 ["telemetry", str(d), "--chrome-trace", str(d.parent / "trace.json")]):
        _run(argv, capsys)


def _leaves(node, path=()):
    """The path of every scalar of a JSON document, in document order."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else None)
    if items is None:
        yield path
    for key, child in items or ():
        yield from _leaves(child, (*path, key))


#: What a hypothesis example puts in place of one JSON leaf.
_OTHER_LEAVES = st.sampled_from(["abc", [1], {"a": 1}, float("nan"), None, True, HUGE])


def _replace_leaf(source, path, at, value) -> None:
    """Write ``source`` to ``path`` with its ``at``-th leaf (modulo the
    count) replaced by ``value``."""
    blob = source.read_bytes()
    jsonl = source.suffix == ".jsonl"
    docs = [json.loads(line) for line in blob.splitlines()] if jsonl else [json.loads(blob)]
    leaves = [(i, leaf) for i, doc in enumerate(docs) for leaf in _leaves(doc) if leaf]
    i, (*parents, key) = leaves[at % len(leaves)]
    obj = docs[i]
    for step in parents:
        obj = obj[step]
    obj[key] = value
    path.write_text("\n".join(map(json.dumps, docs)) + "\n" if jsonl else json.dumps(docs[0]))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stream=st.sampled_from((MANIFEST_FILE, LOG_FILE, SPANS_FILE, METRICS_JSON_FILE)),
       at=st.integers(0, 2**20), value=_OTHER_LEAVES)
def test_any_json_leaf_of_another_type_is_notes_or_one_error_line(
    healthy, scratch, capsys, stream, at, value
):
    _replace_leaf(healthy / stream, scratch / stream, at, value)
    try:
        _run_every_reader(healthy, scratch, capsys)
    finally:
        shutil.copy(healthy / stream, scratch / stream)


#: The tables of ``repro telemetry DIR`` that ``metrics.json`` does not feed.
_LOG_AND_SPAN_TABLES = ("Per-step records", "MPI time by category", "Hottest spans")


@pytest.mark.parametrize("damage", sorted(JSON_DAMAGE))
def test_a_damaged_metrics_snapshot_leaves_the_log_and_span_tables(
    healthy, tmp_path, capsys, damage
):
    d = tmp_path / "damaged"
    shutil.copytree(healthy, d)
    JSON_DAMAGE[damage](d / METRICS_JSON_FILE)
    _, want = _run(["telemetry", str(healthy)], capsys)
    _, got = _run(["telemetry", str(d)], capsys)
    tables = [b for b in got.split("\n\n") if b.startswith(_LOG_AND_SPAN_TABLES)]
    assert tables == [b for b in want.split("\n\n") if b.startswith(_LOG_AND_SPAN_TABLES)]
    assert len(tables) == len(_LOG_AND_SPAN_TABLES)


def test_a_nested_metrics_snapshot_is_one_error_line(healthy, tmp_path, capsys):
    """Plain ``--compare`` reads ``metrics.json`` through the one loader: a
    document nested past the parser's depth is a reason, not a traceback."""
    d = tmp_path / "damaged"
    shutil.copytree(healthy, d)
    (d / METRICS_JSON_FILE).write_text("[" * 100000 + "]" * 100000)
    assert main(["telemetry", "--compare", str(healthy), str(d)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (
        f"error: unreadable metrics snapshot {d / METRICS_JSON_FILE}: JSON nested too deeply\n")


def _span(**fields):
    return {"span_id": 1, "parent_id": None, "name": "step/hydro", "depth": 1,
            "start": 0.0, "end": 1.0, "attrs": {}, **fields}


@pytest.mark.parametrize("bounds", [
    {"start": None}, {"end": None}, {"start": "0.5"}, {"start": True},
    {"start": float("nan")}, {"end": float("inf")}, {"start": -float("inf")},
])
def test_a_phase_window_has_finite_bounds(bounds):
    assert _phase_windows([_span()], "m0", True) == [(0.0, 1.0, "step/hydro")]
    assert _phase_windows([_span(**bounds)], "m0", True) == []
    missing = _span()
    del missing[next(iter(bounds))]
    assert _phase_windows([missing], "m0", True) == []


def test_odd_span_fields_are_not_windows_or_not_errors():
    assert _phase_windows([_span(name=7)], "m0", True) == []
    odd = [_span(attrs=[1]), _span(span_id=[1], parent_id={"a": 1})]
    assert _phase_windows(odd, "m0", True) == [(0.0, 1.0, "step/hydro")] * 2


def test_a_step_span_without_start_is_skipped_by_critpath(healthy, tmp_path, capsys):
    d = tmp_path / "damaged"
    shutil.copytree(healthy, d)
    with (d / SPANS_FILE).open("a") as fh:
        fh.write(json.dumps({"span_id": 10**6, "name": "step/x", "depth": 1, "end": 1.0}) + "\n")
    _, want = _run(["critpath", str(healthy)], capsys)
    code, got = _run(["critpath", str(d)], capsys)
    assert code == 0 and got == want


# -- sweep.json: what `repro critpath` falls back to without an event record ----


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("json") / "sweep"
    assert main(["sweep", "--members", "2", "--vary", "b0=0.5:2.0", "--steps", "1",
                 "--ranks", "1", "--shape", "8", "6", "8", "--pcg-iters", "2",
                 "--sts-stages", "2", "--telemetry", str(out)]) == 0
    (out / "events.npz").unlink()
    return out


@pytest.mark.parametrize("damage, reason", [
    (lambda p: p.write_bytes(p.read_bytes()[:100]), "unreadable sweep.json"),
    (lambda p: p.write_text(json.dumps(["not", "an", "object"])), "unreadable sweep.json"),
    (lambda p: p.write_text(json.dumps({"member_rows": 5})), "member_rows is not a list"),
], ids=["truncated", "top_level_list", "member_rows_not_a_list"])
def test_a_damaged_sweep_json_is_one_error_line(sweep_dir, tmp_path, capsys, damage, reason):
    d = tmp_path / "damaged"
    shutil.copytree(sweep_dir, d)
    damage(d / "sweep.json")
    assert main(["critpath", str(d)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and reason in err and "Traceback" not in err


def test_sweep_rows_that_are_not_objects_are_skipped(sweep_dir, tmp_path, capsys):
    _, want = _run(["critpath", str(sweep_dir)], capsys)
    d = tmp_path / "damaged"
    shutil.copytree(sweep_dir, d)
    sweep = json.loads((d / "sweep.json").read_text())
    sweep["member_rows"][1:1] = [7, None, ["member", 1]]
    (d / "sweep.json").write_text(json.dumps(sweep))
    assert main(["critpath", str(d)]) == 0
    got, err = capsys.readouterr()
    assert got.replace(str(d), "DIR") == want.replace(str(sweep_dir), "DIR")
    assert err == "note: skipped 3 record(s) of sweep.json with a field of the wrong type\n"
    assert "| 1 " in got


def _member_rows(text: str) -> list[list[str]]:
    """The cells of each member row of the tables in ``text``."""
    return [[cell.strip() for cell in ln.split("|")[1:-1]]
            for ln in text.splitlines() if ln.startswith("| ") and ln[2].isdigit()]


@pytest.mark.parametrize("field, value", [
    ("sim_time", HUGE), ("dt", "x"), ("member", 0.5), ("pcg_iterations", HUGE),
    ("pcg_breakdown", 1), ("b0", float("nan")), ("b0", "abc"),
], ids=["sim_time_huge", "dt_string", "member_float", "iterations_huge", "breakdown_int",
        "vary_nan", "vary_string"])
def test_a_wrong_typed_member_row_is_skipped_with_one_note(
    sweep_dir, tmp_path, capsys, field, value
):
    """Both readers of ``sweep.json`` drop the row and note it once."""
    _, want = _run(["critpath", str(sweep_dir)], capsys)
    d = tmp_path / "damaged"
    shutil.copytree(sweep_dir, d)
    sweep = json.loads((d / "sweep.json").read_text())
    sweep["member_rows"][0][field] = value
    (d / "sweep.json").write_text(json.dumps(sweep))
    note = "note: skipped 1 record(s) of sweep.json with a field of the wrong type"
    assert main(["critpath", str(d)]) == 0
    got, err = capsys.readouterr()
    assert err == note + "\n"
    assert _member_rows(got) == _member_rows(want)[1:]
    code, summary = _run(["telemetry", str(d)], capsys)
    assert code == 0 and "failed on partial data" not in summary
    assert [ln for ln in summary.splitlines() if "sweep.json" in ln] == [note]
    (table,) = [b for b in summary.split("\n\n") if b.startswith("per-member convergence")]
    assert _member_rows(table) == _member_rows(want)[1:]


def test_an_unreadable_sweep_json_is_one_summary_note(sweep_dir, tmp_path, capsys):
    d = tmp_path / "damaged"
    shutil.copytree(sweep_dir, d)
    (d / "sweep.json").write_text("[1]")
    _, summary = _run(["telemetry", str(d)], capsys)
    assert [ln for ln in summary.splitlines() if "sweep.json" in ln] == [
        "note: unreadable stream sweep.json (member table skipped): a JSON list, not an object"]
    assert "per-member convergence" not in summary


@pytest.fixture(scope="module")
def sweep_scratch(sweep_dir, tmp_path_factory):
    """A copy of the sweep directory that each hypothesis example damages
    and restores, its ``spans.jsonl`` holding a line that is not an object
    (which ``--chrome-trace``, finding no event record, must not note)."""
    d = tmp_path_factory.mktemp("leaves") / "sweep"
    shutil.copytree(sweep_dir, d)
    JSON_DAMAGE["non_object_line"](d / SPANS_FILE)
    return d


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(at=st.integers(0, 2**20), value=_OTHER_LEAVES)
def test_any_sweep_json_leaf_of_another_type_is_notes_or_one_error_line(
    sweep_dir, sweep_scratch, capsys, at, value
):
    _replace_leaf(sweep_dir / "sweep.json", sweep_scratch / "sweep.json", at, value)
    try:
        for argv in (["critpath", str(sweep_scratch)], ["telemetry", str(sweep_scratch)],
                     ["telemetry", str(sweep_scratch), "--chrome-trace",
                      str(sweep_scratch.parent / "trace.json")]):
            assert "failed on partial data" not in _run(argv, capsys)[1]
    finally:
        shutil.copy(sweep_dir / "sweep.json", sweep_scratch / "sweep.json")


@pytest.mark.parametrize("events, error", [
    (lambda p: p.unlink(), "no events.npz in"),
    (lambda p: p.write_bytes(p.read_bytes()[:100]), "cannot export events.npz in"),
], ids=["missing", "truncated"])
def test_a_trace_without_an_event_record_is_one_error_line_not_a_spans_note(
    healthy, tmp_path, capsys, events, error
):
    """``--chrome-trace`` decides the event record first: a skipped spans
    line is noted only when a trace is written."""
    d = tmp_path / "damaged"
    shutil.copytree(healthy, d)
    JSON_DAMAGE["non_object_line"](d / SPANS_FILE)
    events(d / EVENTS_FILE)
    trace = tmp_path / "trace.json"
    assert main(["telemetry", str(d), "--chrome-trace", str(trace)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {error} ") and err.count("\n") == 1
    assert not trace.exists()


def test_a_partial_member_row_shows_dashes(tmp_path, capsys):
    """A member row missing its convergence fields prints with ``-`` cells."""
    d = tmp_path / "partial"
    d.mkdir()
    (d / "sweep.json").write_text(json.dumps({"member_rows": [{"member": 0, "viscosity": 0.001}]}))
    code, out = _run(["critpath", str(d)], capsys)
    assert code == 0
    (row,) = [ln for ln in out.splitlines() if ln.startswith("| 0 ")]
    assert [cell.strip() for cell in row.split("|")[1:-1]] == ["0", "0.001", "-", "-", "-", "-", "-"]


def test_a_row_without_a_varied_parameter_shows_a_dash(tmp_path, capsys):
    """The varied columns are the first row's; a later row may lack one."""
    d = tmp_path / "partial"
    d.mkdir()
    (d / "sweep.json").write_text(json.dumps({"member_rows": [
        {"member": 0, "viscosity": 0.001, "b0": 1.0}, {"member": 1, "b0": 2.0}]}))
    code, out = _run(["critpath", str(d)], capsys)
    assert code == 0
    assert _member_rows(out) == [["0", "0.001", "1"] + ["-"] * 5, ["1", "-", "2"] + ["-"] * 5]


def test_the_summary_prints_the_critpath_member_table(sweep_dir, capsys):
    """One renderer: the summary's sweep table is the fallback's, ``dt``
    column included, and the log's ``event`` / ``ts`` are not varied columns."""
    _, fallback = _run(["critpath", str(sweep_dir)], capsys)
    _, summary = _run(["telemetry", str(sweep_dir)], capsys)
    (table,) = [b for b in summary.split("\n\n") if b.startswith("per-member convergence")]
    table = table.split("\n", 1)[1]
    assert table.splitlines()[0].split() == (
        "| member | b0 | sim_time | dt | pcg_iters | converged | breakdown |".split())
    assert table in fallback
