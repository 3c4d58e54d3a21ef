"""Units and formatting."""

import pytest

from repro.util.units import (
    GB,
    GiB,
    fmt_bytes,
    fmt_duration,
    minutes,
    seconds_to_minutes,
)


class TestConversions:
    def test_decimal_vs_binary_differ(self):
        assert GB < GiB

    def test_minutes_roundtrip(self):
        assert seconds_to_minutes(minutes(725.54)) == pytest.approx(725.54)

    def test_paper_cpu_bandwidth_identity(self):
        # SV-B: 381.4 GiB/s == 409.5 GB/s (to rounding)
        assert 381.4 * GiB == pytest.approx(409.5 * GB, rel=5e-3)


class TestFormatting:
    @pytest.mark.parametrize(
        "n,expect",
        [(512, "512 B"), (2048, "2.00 KiB"), (40 * GB, "37.25 GiB")],
    )
    def test_fmt_bytes(self, n, expect):
        assert fmt_bytes(n) == expect

    @pytest.mark.parametrize(
        "s,expect",
        [
            (5e-7, "0.5 us"),
            (2.5e-3, "2.50 ms"),
            (3.0, "3.00 s"),
            (120.0, "2.00 min"),
        ],
    )
    def test_fmt_duration(self, s, expect):
        assert fmt_duration(s) == expect

    def test_fmt_duration_negative(self):
        assert fmt_duration(-3.0) == "-3.00 s"
