"""Tests for byte/time unit helpers."""

import pytest

from repro.common.units import (
    GB,
    KB,
    MB,
    MINUTE,
    fmt_bytes,
    fmt_duration,
    parse_bytes,
)


class TestConstants:
    def test_binary_ladder(self):
        assert KB == 1024
        assert MB == 1024 * KB
        assert GB == 1024 * MB

    def test_paper_input_sizes_expressible(self):
        assert 21.8 * GB > 2.3e10


class TestFmtBytes:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, "0 B"),
            (512, "512 B"),
            (1536, "1.50 KB"),
            (5 * MB, "5.00 MB"),
            (2.5 * GB, "2.50 GB"),
        ],
    )
    def test_formats(self, n, expected):
        assert fmt_bytes(n) == expected

    def test_negative(self):
        assert fmt_bytes(-1536) == "-1.50 KB"


class TestFmtDuration:
    def test_subminute(self):
        assert fmt_duration(0.5) == "0.500s"

    def test_minutes(self):
        assert fmt_duration(75) == "1m15.0s"

    def test_hours(self):
        assert fmt_duration(3700) == "1h1m40s"

    def test_negative(self):
        assert fmt_duration(-MINUTE) == "-1m0.0s"


class TestParseBytes:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("100", 100.0),
            ("4096", 4096.0),
            ("1.5K", 1.5 * KB),
            ("64M", 64 * MB),
            ("64mb", 64 * MB),
            ("2GB", 2 * GB),
            ("2g", 2 * GB),
            ("1TB", 1024 * GB),
            ("512B", 512.0),
            ("  8K  ", 8 * KB),
            ("0", 0.0),
        ],
    )
    def test_parses(self, text, expected):
        assert parse_bytes(text) == expected

    def test_round_trips_with_fmt_bytes(self):
        assert parse_bytes(fmt_bytes(64 * MB).replace(" ", "")) == 64 * MB

    @pytest.mark.parametrize(
        "text",
        ["", "MB", "12X", "1..5K", "twelve", "1 2K", "-64M",
         "NaN MB", "nan mb", "1e400", "1e308TB"],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError, match="byte size"):
            parse_bytes(text)
