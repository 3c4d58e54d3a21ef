"""The columnar event record: same answers as the object-based analysis,
a lossless round trip, a byte-identical export, and readers that degrade.

``tests/obs/reference_critpath.py`` is the parent commit's analysis, and
``tests/obs/reference_events.py`` its interning, moved verbatim; every
equality below is ``==`` on floats, not ``approx``.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.codes import CodeVersion, runtime_config_for
from repro.mas.model import MasModel, ModelConfig
from repro.obs import critpath
from repro.obs.critpath import analyze_dir, analyze_record, analyze_session
from repro.obs.events import EventRecord
from repro.obs.telemetry import EVENTS_FILE, Telemetry, activate, deactivate, session
from repro.perf.trace_export import to_chrome_trace
from tests.obs import reference_critpath as reference
from tests.obs import reference_events
from tests.obs.records import DAMAGE, SMALL_ROWS, record_of, write_record

COLUMNS = ("start", "duration", "lane", "category", "label")
TABLES = ("lanes", "categories", "labels")


def assert_same_analysis(new, old):
    """Record-based results equal the oracle's: documents, dict orders
    (they are the ``--json`` key orders) and the path rows."""
    assert list(new) == list(old)
    for model in old:
        assert new[model].to_json() == old[model].to_json()
        assert json.dumps(new[model].to_json()) == json.dumps(old[model].to_json())
        assert reference.path_rows(new[model].path) == old[model].segments
        assert new[model].busy_by_rank == old[model].busy_by_rank
        assert list(new[model].busy_by_rank) == list(old[model].busy_by_rank)
        assert (new[model].t0, new[model].t1) == (old[model].t0, old[model].t1)


def _oracle_events(rows):
    """The oracle's input: one object per ``(lane, start, duration,
    category, label)`` row."""
    return [reference.TraceEvent(*row) for row in rows]


# -- property: any stream -----------------------------------------------------

#: Multiples of 1/8 make exact ties, abutting events and shared ends likely;
#: the odd floats make sums order-sensitive.
_TICKS = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0, 0.1, 0.3, 1e-13])
_KINDS = st.sampled_from([
    ("compute", "visc_matvec"), ("compute", "k"), ("mpi_wait", "allreduce"),
    ("mpi_wait", "halo_barrier"), ("mpi_wait", "halo_wait_residual"),
    ("mpi_transfer", "msg_0"), ("mpi_pack", "halo_pack_vr"),
    ("launch", "launch(halo_pack_vr)"), ("launch", "launch(k)"),
    ("h2d", "h2d(buf)"), ("host", ""), ("host", "host"), ("um_fault", "fault_in(rho)"),
])


@st.composite
def _lane_events(draw, lane):
    """One lane's rows: gaps (holes), zero lengths, ties in ``start``."""
    events, t = [], draw(_TICKS)
    for _ in range(draw(st.integers(0, 7))):
        gap, duration = draw(_TICKS), draw(_TICKS)
        start = t if draw(st.booleans()) else t + gap
        if events and draw(st.integers(0, 9)) == 0:
            start = events[-1][1]  # tie: two events share a start
        category, label = draw(_KINDS)
        events.append((lane, start, duration, category, label))
        t = max(t, start + duration)
    return events


#: Window widths: zero-width windows, and widths that abut on the ticks.
_WIDTHS = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0, 0.1, 0.3])


@st.composite
def _phase_spans(draw):
    """Up to 8 phase windows: abutting (no gap), zero-width, sharing a
    start, a depth-0 ``setup/`` window; narrow enough for a row to span
    three, on the ticks the rows start and end on."""
    spans, t = [], draw(_TICKS)
    for i in range(draw(st.integers(0, 8))):
        start = spans[-1]["start"] if spans and draw(st.integers(0, 4)) == 0 else t
        end = start + draw(_WIDTHS)
        setup = draw(st.integers(0, 5)) == 0
        spans.append({"span_id": i + 1, "parent_id": None,
                      "name": f"setup/s{i % 2}" if setup else f"step/p{i % 3}",
                      "start": start, "end": end, "depth": 0 if setup else 1,
                      "attrs": {"model": "m0"} if draw(st.booleans()) else {}})
        t = max(t, end) + draw(st.sampled_from([0.0, 0.0, 0.125, 0.1]))
    return spans


@st.composite
def _streams(draw):
    """1-2 models of 1-4 ranks, optional ``:comm`` lanes, an unprefixed
    lane, arbitrarily interleaved; plus phase spans."""
    lanes = []
    for m in range(draw(st.integers(1, 2))):
        for r in range(draw(st.integers(1, 4))):
            lanes.append(f"m{m}.rank{r}")
            if draw(st.booleans()):
                lanes.append(f"m{m}.rank{r}:comm")
    if draw(st.booleans()):
        lanes.append("gpu0")
    events = [e for lane in lanes for e in draw(_lane_events(lane))]
    events = draw(st.permutations(events))
    return events, draw(_phase_spans())


def _looped_phase_seconds(windows, intervals):
    """Per-phase sums as the per-interval loop adds them (none without
    windows: the analysis then attributes no phase)."""
    out = {}
    for start, end in intervals if windows else ():
        for ph, sec in reference._phase_split(windows, start, end):
            out[ph] = out.get(ph, 0.0) + sec
    return out


@settings(max_examples=300, deadline=None)
@given(_phase_spans(), st.lists(st.tuples(_TICKS, _TICKS, _TICKS), max_size=12))
@example(  # t += take is not the window's end: the outside piece is end - t
    [{"span_id": 1, "parent_id": None, "name": "step/p0", "start": 0.125,
      "end": 0.125 + 0.3, "depth": 1, "attrs": {}}],
    [(0.125, 1e-13, 0.5)],
)
def test_phase_seconds_on_columns_equal_the_loop(spans, rows):
    """Rows start and end on window boundaries, inside one window and
    across several; the sums and their key order are the loop's."""
    windows = critpath._phase_windows(spans, "m0", True)
    intervals = [(a + b, a + b + c) for a, b, c in rows]
    starts = np.array([i[0] for i in intervals], dtype=np.float64)
    ends = np.array([i[1] for i in intervals], dtype=np.float64)
    got = critpath._phase_seconds(windows, starts, ends)
    want = _looped_phase_seconds(windows, intervals)
    assert list(got.items()) == list(want.items())


@settings(max_examples=150, deadline=None)
@given(_streams())
def test_record_analysis_equals_the_oracle_on_any_stream(stream):
    rows, spans = stream
    assert_same_analysis(
        analyze_record(record_of(rows), spans=spans),
        reference.analyze_events(_oracle_events(rows), spans=spans),
    )


@settings(max_examples=100, deadline=None)
@given(_streams())
def test_extraction_equals_the_oracle_on_any_single_model(stream):
    rows = [row for row in stream[0] if row[0].startswith("m0.")]
    assert reference.path_rows(critpath._walk(record_of(rows))) == (
        reference.extract_critical_path(_oracle_events(rows))
    )


def test_a_residual_piece_is_kept():
    """Inside one window, ``t += take`` can fall short of the end: the loop
    then adds an outside piece of ``end - t``, and so do the columns."""
    windows = [(0.1, 1.0, "step/p0")]
    assert 0.1 + (0.45 - 0.1) < 0.45
    got = critpath._phase_seconds(windows, np.array([0.1, 0.2]), np.array([0.45, 0.3]))
    assert list(got.items()) == list(_looped_phase_seconds(windows, [(0.1, 0.45), (0.2, 0.3)]).items())
    assert got[critpath.OUTSIDE_PHASES] == 0.45 - (0.1 + (0.45 - 0.1)) > 0


# -- real sessions ------------------------------------------------------------


def _model(version, ranks, **kw):
    shape = (8, 6, 8) if ranks == 2 else (10, 8, 16)
    return MasModel(
        ModelConfig(shape=shape, num_ranks=ranks, pcg_iters=2, sts_stages=2, **kw),
        runtime_config_for(version),
    )


def _live(*models_kw):
    tel = Telemetry(None)
    activate(tel)
    try:
        for version, ranks, kw in models_kw:
            _model(version, ranks, **kw).step()
    finally:
        deactivate(tel)
    return tel


SESSIONS = {
    "A-2": [(CodeVersion.A, 2, {})],
    "A-8": [(CodeVersion.A, 8, {})],
    "D2XU-2": [(CodeVersion.D2XU, 2, {})],
    "D2XU-8": [(CodeVersion.D2XU, 8, {})],
    "A-2-overlap": [(CodeVersion.A, 2, {"halo_overlap": True})],
    "D2XU-2-overlap": [(CodeVersion.D2XU, 2, {"halo_overlap": True})],
    "two-models": [(CodeVersion.A, 2, {}), (CodeVersion.D2XU, 2, {"halo_overlap": True})],
}


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_real_session_equals_the_oracle(name):
    tel = _live(*SESSIONS[name])
    new = analyze_session(tel)
    assert_same_analysis(new, reference.analyze_session(tel))
    assert len(new) == len(SESSIONS[name])
    assert all(abs(r.coverage - 1.0) < 1e-9 for r in new.values())


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_the_compact_table_reads_no_phase(name):
    """``summarize_dir`` analyzes without spans: what it prints is what
    the full analysis would print."""
    tel = _live(*SESSIONS[name])
    with_spans = analyze_session(tel)
    assert any(r.path_by_phase for r in with_spans.values())
    assert critpath.render_compact(with_spans) == critpath.render_compact(
        analyze_record(tel.profiler.record())
    )


def assert_same_record(new, old):
    for name in COLUMNS:
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in TABLES:
        assert getattr(new, name) == getattr(old, name), name


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_profiler_record_equals_the_oracle(name):
    tel = _live(*SESSIONS[name])
    assert_same_record(tel.profiler.record(), reference_events.from_columns(*tel.profiler.columns))


def test_profiler_record_equals_the_oracle_past_int16():
    """A label table past 2**15 entries widens to int32; lane and category
    tables stay int16; mixed enum members and values intern as before."""
    from repro.runtime.clock import TimeCategory

    n = 2**15 + 3
    columns = (
        [f"m0.rank{i % 3}" for i in range(n)],
        [float(i) for i in range(n)],
        [0.5] * n,
        [TimeCategory.COMPUTE if i % 2 else TimeCategory.MPI_WAIT for i in range(n)],
        [f"k{i}" for i in range(n)],
    )
    new, old = EventRecord.from_columns(*columns), reference_events.from_columns(*columns)
    assert_same_record(new, old)
    assert (new.lane.dtype, new.category.dtype, new.label.dtype) == (np.int16, np.int16, np.int32)
    assert_same_record(EventRecord.from_columns(*((),) * 5), reference_events.from_columns(*((),) * 5))


def test_lane_facts_are_resolved_per_table_entry_not_per_event(monkeypatch):
    tel = _live(*SESSIONS["A-2-overlap"])
    calls = {"lane_rank": 0, "lane_model": 0}
    for name in calls:
        real = getattr(critpath, name)

        def counted(lane, _real=real, _name=name):
            calls[_name] += 1
            return _real(lane)

        monkeypatch.setattr(critpath, name, counted)
    (result,) = analyze_session(tel).values()
    lanes = len(set(tel.profiler.columns[0]))
    assert len(tel.profiler) > 1000
    assert calls == {"lane_rank": lanes, "lane_model": lanes}
    result.to_json()  # the aggregations memoise per distinct lane too
    assert calls["lane_rank"] <= 4 * lanes


# -- round trip and export ----------------------------------------------------


@pytest.fixture(scope="module")
def finalized(tmp_path_factory):
    out = tmp_path_factory.mktemp("tel") / "run"
    with session(out) as tel:
        _model(CodeVersion.A, 2, halo_overlap=True).run(2)
    return out, tel


def test_profiler_to_record_to_file_to_record(finalized):
    out, tel = finalized
    live = tel.profiler.record()
    loaded = EventRecord.load(out / EVENTS_FILE)
    assert len(live) == len(tel.profiler) > 0
    for name in COLUMNS:
        a, b = getattr(live, name), getattr(loaded, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in TABLES:
        assert getattr(live, name) == getattr(loaded, name), name
    assert live.start.dtype == live.duration.dtype == np.float64
    lane, start, duration, category, label = (column[-1] for column in tel.profiler.columns)
    assert (live.lanes[live.lane[-1]], live.start[-1], live.duration[-1],
            live.categories[live.category[-1]], live.labels[live.label[-1]]) == (
        lane, start, duration, category.value, label)


def test_saved_record_needs_no_pickle(finalized):
    out, _ = finalized
    with np.load(out / EVENTS_FILE, allow_pickle=False) as data:
        assert sorted(data.files) == sorted(COLUMNS + TABLES)
        assert all(data[t].dtype.kind == "U" for t in TABLES)
        assert all(data[c].dtype == np.int16 for c in ("lane", "category", "label"))


def test_ids_widen_when_a_table_outgrows_int16(tmp_path):
    rows = [(f"m0.rank{i}", float(i), 1.0, "compute", "k") for i in range(2**15 + 1)]
    record = record_of(rows)
    assert (record.lane.dtype, record.label.dtype) == (np.int32, np.int16)
    loaded = EventRecord.load(record.save(tmp_path / EVENTS_FILE))
    assert loaded.lane.dtype == np.int32 and loaded.lanes[-1] == f"m0.rank{2**15}"


def test_chrome_trace_export_is_byte_equal_to_the_live_sessions(finalized, tmp_path, capsys):
    out, tel = finalized
    target = tmp_path / "trace.json"
    assert main(["telemetry", str(out), "--chrome-trace", str(target)]) == 0
    assert str(target) in capsys.readouterr().out
    assert target.read_text() == json.dumps(
        to_chrome_trace(tel.profiler.record(), spans=tel.tracer.spans))
    lanes = {e["args"]["name"] for e in json.loads(target.read_text())["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert {"m0.rank0", "m0.rank1", "m0.rank0:comm"} <= lanes


def test_the_old_reader_still_reads_an_export(finalized, tmp_path):
    """What Perfetto is given is what the parent wrote, and the parent's
    reader (kept in the oracle) still reads it. Its analysis differs from
    the record's only through the input floats: ``ts = start * 1e6`` read
    back as ``ts / 1e6`` loses the last bits, which is why ``repro critpath
    DIR --json`` moves in its last digits and rows tied to 13 digits can
    swap. Fed the same rounded floats, the record analysis is the parent's
    to the bit."""
    import dataclasses

    out, tel = finalized
    assert main(["telemetry", str(out), "--chrome-trace", str(tmp_path / "t.json")]) == 0
    spans = [s.to_dict() for s in tel.tracer.spans]
    old = reference.analyze_events(reference.load_trace_events(tmp_path / "t.json"), spans=spans)
    exact = analyze_dir(out)
    assert old["m0"].num_ranks == exact["m0"].num_ranks
    assert old["m0"].path_total == pytest.approx(exact["m0"].path_total, rel=1e-9)
    assert old["m0"].by_blame == pytest.approx(exact["m0"].by_blame, rel=1e-6)
    record = EventRecord.load(out / EVENTS_FILE)
    rounded = dataclasses.replace(
        record, start=(record.start * 1e6) / 1e6, duration=(record.duration * 1e6) / 1e6
    )
    assert_same_analysis(critpath.analyze_record(rounded, spans=spans), old)


def test_directory_analysis_equals_the_live_session(finalized):
    out, tel = finalized
    assert_same_analysis(analyze_dir(out), reference.analyze_session(tel))


# -- degraded directories -----------------------------------------------------


@pytest.fixture
def tel_dir(tmp_path):
    write_record(tmp_path, SMALL_ROWS)
    return tmp_path


def test_small_record_analyses(tel_dir):
    (r,) = analyze_dir(tel_dir).values()
    assert r.to_json() == reference.analyze_events(_oracle_events(SMALL_ROWS))["m0"].to_json()


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_record_is_a_value_error_with_one_line(tel_dir, damage):
    DAMAGE[damage](tel_dir / EVENTS_FILE)
    with pytest.raises(ValueError) as err:
        EventRecord.load(tel_dir / EVENTS_FILE)
    assert str(err.value) and "\n" not in str(err.value)


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_cli_degrades_on_a_damaged_record(tel_dir, damage, capsys):
    DAMAGE[damage](tel_dir / EVENTS_FILE)
    assert main(["critpath", str(tel_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: unreadable {EVENTS_FILE} in {tel_dir}: ")
    assert err.count("\n") == 1 and "Traceback" not in err

    assert main(["telemetry", str(tel_dir)]) == 0
    notes = [ln for ln in capsys.readouterr().out.splitlines() if EVENTS_FILE in ln]
    assert len(notes) == 1 and notes[0].startswith("note: unreadable stream")

    assert main(["telemetry", "--compare", str(tel_dir), str(tel_dir), "--explain"]) == 0
    assert f"unreadable {EVENTS_FILE}" in capsys.readouterr().out

    assert main(["telemetry", str(tel_dir), "--chrome-trace", str(tel_dir / "t.json")]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot export {EVENTS_FILE}")
    assert not (tel_dir / "t.json").exists()


def test_cli_without_a_record(tmp_path, capsys):
    """A directory from before the record (or with it deleted)."""
    (tmp_path / "trace.json").write_text('{"traceEvents": []}')  # no reader opens it
    assert main(["critpath", str(tmp_path)]) == 1
    assert capsys.readouterr().err.strip() == f"error: no {EVENTS_FILE} in {tmp_path}"
    assert main(["telemetry", str(tmp_path), "--chrome-trace", str(tmp_path / "t.json")]) == 1
    assert f"no {EVENTS_FILE} in" in capsys.readouterr().err
    assert main(["telemetry", str(tmp_path)]) == 0
    assert f"note: missing stream {EVENTS_FILE} (critical path skipped)" in capsys.readouterr().out


def test_foreign_table_entries_without_events_are_ignored(tel_dir):
    """An id table may name lanes no row uses (a foreign writer's file)."""
    rec = record_of(SMALL_ROWS)
    with (tel_dir / EVENTS_FILE).open("wb") as fh:
        np.savez(fh, **{n: getattr(rec, n) for n in COLUMNS},
                 lanes=np.array([*rec.lanes, "m7.rank0", "junk"]),
                 categories=np.array(rec.categories), labels=np.array(rec.labels))
    assert list(analyze_dir(tel_dir)) == ["m0"]


def test_interrupted_finalize_leaves_no_record_and_no_temp(tmp_path, monkeypatch):
    """Killed between the temp write and the rename: no ``events.npz`` a
    reader would half-trust, no ``*.tmp`` left behind."""
    import os

    from repro.obs.summary import summarize_dir

    def killed(src, dst):
        raise KeyboardInterrupt

    tel = Telemetry(tmp_path)
    for column, values in zip(tel.profiler.columns, zip(*SMALL_ROWS)):
        column.extend(values)
    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        tel.finalize()
    monkeypatch.undo()
    assert not (tmp_path / EVENTS_FILE).exists()
    assert not list(tmp_path.glob("*.tmp"))
    assert f"note: missing stream {EVENTS_FILE}" in summarize_dir(tmp_path)
    tel.finalize()  # and a later finalize completes the directory
    assert len(EventRecord.load(tmp_path / EVENTS_FILE)) == len(SMALL_ROWS)
