"""Metrics registry: semantics, exporters, and the Prometheus round trip."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from tests.obs.prom_reader import parse_prometheus_text


class TestCounter:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("events_total", "help text")
        c.inc()
        c.inc(2.5)
        assert c.labels().value == pytest.approx(3.5)

    def test_negative_inc_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("events_total").labels().inc(-1)

    def test_labeled_children_independent(self):
        reg = MetricsRegistry()
        fam = reg.counter("kernel_launches_total", labelnames=("version", "category"))
        fam.labels(version="A", category="plain").inc(5)
        fam.labels(version="D2X", category="plain").inc(1)
        assert fam.labels(version="A", category="plain").value == 5
        assert fam.labels(version="D2X", category="plain").value == 1

    def test_wrong_labels_rejected(self):
        reg = MetricsRegistry()
        fam = reg.counter("x_total", labelnames=("a",))
        with pytest.raises(ValueError):
            fam.labels(b="1")
        with pytest.raises(ValueError):
            fam.labels()


class TestGauge:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("sim_dt")
        g.set(0.5)
        g.inc(0.25)
        g.labels().dec(0.5)
        assert g.labels().value == pytest.approx(0.25)


class TestHistogram:
    def test_cumulative_buckets(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(105.0)
        assert h.cumulative() == [(1.0, 1), (2.0, 2), (4.0, 3), (float("inf"), 4)]
        assert h.mean == pytest.approx(105.0 / 4)

    def test_boundary_lands_in_le_bucket(self):
        # Prometheus buckets are "le": an observation equal to a bound
        # counts in that bucket.
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.cumulative()[0] == (1.0, 1)

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=())

    def test_default_buckets_are_valid(self):
        assert all(
            b2 > b1 for b1, b2 in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])
        )


class TestRegistry:
    def test_reregistration_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "first help", labelnames=("k",))
        b = reg.counter("x_total")
        assert a is b
        assert b.help == "first help"

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_labelname_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labelnames=("a",))
        with pytest.raises(ValueError):
            reg.counter("x_total", labelnames=("b",))

    def test_invalid_metric_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("")

    def test_contains_and_get(self):
        reg = MetricsRegistry()
        reg.gauge("sim_time")
        assert "sim_time" in reg
        assert "missing" not in reg
        assert reg.get("sim_time").kind == "gauge"
        assert reg.get("missing") is None


class TestPrometheusExport:
    def _registry(self):
        reg = MetricsRegistry()
        fam = reg.counter(
            "kernel_launches_total", "kernels dispatched", labelnames=("version",)
        )
        fam.labels(version="code1_A").inc(42)
        fam.labels(version="code7_D2XU").inc(7)
        reg.gauge("sim_dt", "current dt").set(0.029)
        h = reg.histogram("step_seconds", "per-step wall", buckets=(0.01, 0.1, 1.0))
        h.observe(0.005)
        h.observe(0.05)
        h.observe(5.0)
        return reg

    def test_round_trip(self):
        reg = self._registry()
        parsed = parse_prometheus_text(reg.to_prometheus_text())
        assert parsed[("kernel_launches_total", (("version", "code1_A"),))] == 42
        assert parsed[("kernel_launches_total", (("version", "code7_D2XU"),))] == 7
        assert parsed[("sim_dt", ())] == pytest.approx(0.029)
        assert parsed[("step_seconds_count", ())] == 3
        assert parsed[("step_seconds_sum", ())] == pytest.approx(5.055)
        assert parsed[("step_seconds_bucket", (("le", "0.01"),))] == 1
        assert parsed[("step_seconds_bucket", (("le", "+Inf"),))] == 3

    def test_help_and_type_lines(self):
        text = self._registry().to_prometheus_text()
        assert "# HELP kernel_launches_total kernels dispatched" in text
        assert "# TYPE kernel_launches_total counter" in text
        assert "# TYPE step_seconds histogram" in text

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        fam = reg.counter("weird_total", labelnames=("label",))
        value = 'quote " backslash \\ newline \n end'
        fam.labels(label=value).inc()
        parsed = parse_prometheus_text(reg.to_prometheus_text())
        assert parsed[("weird_total", (("label", value),))] == 1

    def test_empty_registry_exports_empty(self):
        assert MetricsRegistry().to_prometheus_text() == ""
        assert MetricsRegistry().to_json() == {}


class TestJsonExport:
    def test_json_snapshot_schema(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "help", labelnames=("k",)).labels(k="x").inc(3)
        reg.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        snap = json.loads(reg.to_json_text())
        assert snap["a_total"]["type"] == "counter"
        assert snap["a_total"]["samples"] == [
            {"labels": {"k": "x"}, "value": 3.0}
        ]
        hsamp = snap["h_seconds"]["samples"][0]
        assert hsamp["count"] == 1
        assert hsamp["buckets"] == {"1.0": 1, "+Inf": 1}

