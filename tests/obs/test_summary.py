"""Telemetry-directory summarizer."""

import json

import pytest

from repro.obs.reader import ROOFLINE_FAMILIES
from repro.obs.summary import summarize_dir
from repro.obs.telemetry import (
    EVENTS_FILE,
    LOG_FILE,
    MANIFEST_FILE,
    METRICS_JSON_FILE,
    SPANS_FILE,
)
from tests.obs.records import DAMAGE, SMALL_ROWS, write_record


@pytest.fixture
def tel_dir(tmp_path):
    d = tmp_path / "tel"
    d.mkdir()
    (d / MANIFEST_FILE).write_text(json.dumps({
        "command": "run",
        "git_sha": "deadbeef" * 5,
        "python": "3.11.7",
        "seed": 1,
        "models": [{"index": 0, "version": "code1_A", "shape": [8, 6, 8],
                    "num_ranks": 2, "unified_memory": False}],
    }))
    (d / LOG_FILE).write_text("\n".join(
        json.dumps({"event": "step", "step": i, "dt": 0.03, "wall": 0.026,
                    "mpi": 0.001, "compute": 0.025, "launches": 400})
        for i in range(2)
    ))
    (d / SPANS_FILE).write_text(json.dumps({
        "span_id": 1, "parent_id": None, "name": "step",
        "start": 0.0, "end": 0.05, "duration": 0.05, "depth": 0,
        "attrs": {}, "host_seconds": 0.001,
    }))
    (d / METRICS_JSON_FILE).write_text(json.dumps({
        "steps_total": {"type": "counter", "help": "", "labelnames": [],
                        "samples": [{"labels": {}, "value": 2.0}]},
        "step_seconds": {"type": "histogram", "help": "", "labelnames": [],
                         "samples": [{"labels": {}, "sum": 0.052, "count": 2,
                                      "buckets": {"+Inf": 2}}]},
    }))
    write_record(d)  # an event record with no events
    return d


class TestSummarizeDir:
    def test_full_summary(self, tel_dir):
        text = summarize_dir(tel_dir)
        assert "run manifest" in text
        assert "code1_A" in text
        assert "Per-step records" in text
        assert "Hottest spans" in text
        assert "steps_total" in text
        assert "count=2" in text  # histogram rendering
        assert "perfetto" in text

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            summarize_dir(tmp_path / "nope")

    def test_empty_dir_degrades_gracefully(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        text = summarize_dir(d)
        assert "(missing)" in text

    def test_corrupt_files_tolerated(self, tel_dir):
        (tel_dir / LOG_FILE).write_text("not json\n{broken")
        (tel_dir / METRICS_JSON_FILE).write_text("{bad")
        text = summarize_dir(tel_dir)
        assert "Hottest spans" in text  # spans still render
        assert "Per-step" not in text

    def test_every_omitted_roofline_family_is_counted(self, tel_dir):
        """The omitted-family count does not stop at the table's row cutoff."""
        metrics = json.loads((tel_dir / METRICS_JSON_FILE).read_text())
        metrics["a_total"] = {"type": "counter", "samples": [
            {"labels": {"i": str(i)}, "value": 1.0} for i in range(30)]}
        for name in ROOFLINE_FAMILIES:
            metrics[name] = {"type": "counter", "samples": [
                {"labels": {"kernel": "k"}, "value": 1.0}]}
        (tel_dir / METRICS_JSON_FILE).write_text(json.dumps(metrics))
        assert "(5 per-kernel roofline families omitted;" in summarize_dir(tel_dir)


class TestDegradedStreams:
    def test_rotated_snapshot_fallback(self, tel_dir):
        """Pruned metrics.json: the newest rotated snapshot still renders."""
        (tel_dir / METRICS_JSON_FILE).rename(
            tel_dir / f"{METRICS_JSON_FILE}.1"
        )
        text = summarize_dir(tel_dir)
        assert f"showing rotated snapshot {METRICS_JSON_FILE}.1" in text
        assert "steps_total" in text  # the rotated metrics table renders
        assert "Hottest spans" in text

    def test_missing_spans_stream_noted(self, tel_dir):
        (tel_dir / SPANS_FILE).unlink()
        text = summarize_dir(tel_dir)
        assert f"missing stream {SPANS_FILE}" in text
        assert "Hottest spans" not in text
        assert "Per-step records" in text  # other streams still render

    def test_missing_log_stream_noted(self, tel_dir):
        (tel_dir / LOG_FILE).unlink()
        text = summarize_dir(tel_dir)
        assert f"missing stream {LOG_FILE}" in text
        assert "Hottest spans" in text

    def test_everything_missing_all_noted(self, tel_dir):
        for name in (LOG_FILE, SPANS_FILE, METRICS_JSON_FILE, EVENTS_FILE):
            (tel_dir / name).unlink()
        text = summarize_dir(tel_dir)
        for name in (LOG_FILE, SPANS_FILE, METRICS_JSON_FILE, EVENTS_FILE):
            assert f"missing stream {name}" in text
        assert "run manifest" in text  # the manifest survived

    def test_missing_event_record_noted(self, tel_dir):
        """A directory written before the record existed (or pruned of it)
        says why it has no critical path, like every other stream."""
        (tel_dir / EVENTS_FILE).unlink()
        text = summarize_dir(tel_dir)
        assert f"note: missing stream {EVENTS_FILE} (critical path skipped)" in text
        assert "chrome trace:" not in text
        assert "Hottest spans" in text

    def test_unreadable_metrics_noted(self, tel_dir):
        (tel_dir / METRICS_JSON_FILE).write_text("{bad")
        text = summarize_dir(tel_dir)
        assert f"note: unreadable stream {METRICS_JSON_FILE}" in text

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_event_record_is_one_note(self, tel_dir, damage):
        write_record(tel_dir, SMALL_ROWS)
        DAMAGE[damage](tel_dir / EVENTS_FILE)
        text = summarize_dir(tel_dir)
        (note,) = [ln for ln in text.splitlines() if EVENTS_FILE in ln]
        assert note.startswith(f"note: unreadable stream {EVENTS_FILE} (critical path skipped): ")
        assert "Critical path per model" not in text
        assert "Hottest spans" in text  # the rest still renders


class TestCritpathBlock:
    def test_embedded_when_trace_has_events(self, tel_dir):
        write_record(tel_dir, [("m0.rank0", 0.0, 2.0, "compute", "k")])
        text = summarize_dir(tel_dir)
        assert "m0" in text and "coverage" in text
        assert "repro critpath" in text

    def test_absent_on_empty_trace(self, tel_dir):
        text = summarize_dir(tel_dir)  # fixture record has no events
        assert "repro critpath" not in text

    def test_analysis_failure_is_a_note_not_silence(self, tel_dir, monkeypatch):
        """The block no longer swallows its own exceptions: an analysis bug
        prints the builder loop's note instead of an unexplained hole."""
        from repro.obs import critpath

        def boom(record, *, spans=()):
            raise RuntimeError("walker lost its lane")

        write_record(tel_dir, SMALL_ROWS)
        monkeypatch.setattr(critpath, "analyze_record", boom)
        text = summarize_dir(tel_dir)
        assert "note: _critpath_block failed on partial data (walker lost its lane)" in text
        assert "Hottest spans" in text

    def test_spans_are_parsed_once(self, tel_dir, monkeypatch):
        """``spans.jsonl`` is read once (for the span tables; the compact
        critical-path block reads no phase)."""
        from repro.obs import reader

        reads = []
        real = reader.read_stream
        monkeypatch.setattr(
            reader, "read_stream", lambda p, parse: reads.append(p.name) or real(p, parse)
        )
        write_record(tel_dir, SMALL_ROWS)
        assert "Critical path per model" in summarize_dir(tel_dir)
        assert reads.count(SPANS_FILE) == 1

    def test_footer_names_the_export_command(self, tel_dir):
        text = summarize_dir(tel_dir)
        assert text.splitlines()[-1] == (
            f"chrome trace: repro telemetry {tel_dir} --chrome-trace OUT.json "
            "(open at https://ui.perfetto.dev)"
        )
