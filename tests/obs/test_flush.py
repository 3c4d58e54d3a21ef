"""Incremental flushing: streaming JSONL survives a killed run."""

import json

from repro.obs.runlog import RunLogger
from repro.obs.telemetry import Telemetry, activate, deactivate
from repro.obs.tracing import Tracer


def _parse_jsonl(path):
    return [json.loads(ln) for ln in path.read_text().splitlines()]


class TestRunLoggerFlush:
    def test_flush_without_sink_is_noop(self):
        lg = RunLogger()
        lg.log("e")
        assert lg.flush() == 0

    def test_explicit_flush_appends_pending(self, tmp_path):
        sink = tmp_path / "log.jsonl"
        lg = RunLogger()
        lg.attach_sink(sink)
        lg.log("a", i=1)
        lg.log("b", i=2)
        assert sink.read_text() == ""  # nothing until flush
        assert lg.flush() == 2
        assert [r["event"] for r in _parse_jsonl(sink)] == ["a", "b"]
        assert lg.flush() == 0  # idempotent: nothing pending

    def test_auto_flush_every_n(self, tmp_path):
        sink = tmp_path / "log.jsonl"
        lg = RunLogger()
        lg.attach_sink(sink, flush_every_n=2)
        lg.log("a")
        assert sink.read_text() == ""
        lg.log("b")  # hits the threshold
        assert len(_parse_jsonl(sink)) == 2
        lg.log("c")
        assert len(_parse_jsonl(sink)) == 2  # below threshold again

    def test_attach_truncates_stale_file(self, tmp_path):
        sink = tmp_path / "log.jsonl"
        sink.write_text('{"event": "stale"}\n')
        lg = RunLogger()
        lg.attach_sink(sink)
        lg.log("fresh")
        lg.flush()
        assert [r["event"] for r in _parse_jsonl(sink)] == ["fresh"]


class TestTracerFlush:
    def test_only_completed_spans_stream(self, tmp_path):
        sink = tmp_path / "spans.jsonl"
        tr = Tracer()
        tr.attach_sink(sink, flush_every_n=1)
        with tr.span("outer"):
            with tr.span("inner"):
                pass
            # inner closed -> already streamed; outer still open
            assert [s["name"] for s in _parse_jsonl(sink)] == ["inner"]
        assert [s["name"] for s in _parse_jsonl(sink)] == ["inner", "outer"]

    def test_each_streamed_line_parses(self, tmp_path):
        sink = tmp_path / "spans.jsonl"
        tr = Tracer()
        tr.attach_sink(sink, flush_every_n=1)
        for n in range(3):
            with tr.span(f"s{n}", idx=n):
                pass
        for rec in _parse_jsonl(sink):
            assert rec["end"] is not None and "duration" in rec

    def test_flush_without_sink_is_noop(self):
        tr = Tracer()
        with tr.span("a"):
            pass
        assert tr.flush() == 0


class TestTelemetryStreaming:
    def test_killed_mid_run_leaves_parseable_jsonl(self, tmp_path):
        out = tmp_path / "tel"
        tel = Telemetry(out, flush_every_n=1)
        activate(tel)
        try:
            for i in range(4):
                tel.logger.log("step", i=i)
            with tel.tracer.span("phase"):
                pass
        finally:
            deactivate(tel)
        # no finalize(): simulates a killed run -- files still parse
        steps = _parse_jsonl(out / "log.jsonl")
        assert [r["i"] for r in steps] == [0, 1, 2, 3]
        spans = _parse_jsonl(out / "spans.jsonl")
        assert spans[0]["name"] == "phase"

    def test_finalize_normalizes_streamed_files(self, tmp_path):
        out = tmp_path / "tel"
        streamed = Telemetry(out, flush_every_n=1)
        for i in range(3):
            streamed.logger.log("step", i=i)
        streamed.finalize()

        plain = Telemetry(tmp_path / "tel2")
        for i in range(3):
            plain.logger.log("step", i=i)
        plain.finalize()
        assert (out / "log.jsonl").read_text() == \
            (tmp_path / "tel2" / "log.jsonl").read_text()

    def test_explicit_flush_reports_counts(self, tmp_path):
        tel = Telemetry(tmp_path / "tel", flush_every_n=100)
        tel.logger.log("a")
        with tel.tracer.span("s"):
            pass
        assert tel.flush() == {"log": 1, "spans": 1}
        assert tel.flush() == {"log": 0, "spans": 0}

    def test_disabled_streaming_writes_nothing_early(self, tmp_path):
        out = tmp_path / "tel"
        tel = Telemetry(out)  # flush_every_n=0
        tel.logger.log("a")
        assert not (out / "log.jsonl").exists()

    def test_session_flag_passthrough(self, tmp_path):
        from repro.obs import session

        with session(tmp_path / "tel", flush_every_n=1) as tel:
            assert tel.flush_every_n == 1
            tel.logger.log("x")
            assert (tmp_path / "tel" / "log.jsonl").read_text() != ""
