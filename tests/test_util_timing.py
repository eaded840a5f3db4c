"""Tests for repro.util.timing."""

import pytest

from repro.util.timing import format_seconds


class TestFormatSeconds:
    def test_microseconds(self):
        assert format_seconds(5e-6) == "5.0us"

    def test_milliseconds(self):
        assert format_seconds(0.25) == "250.0ms"

    def test_seconds(self):
        assert format_seconds(3.14159) == "3.14s"

    def test_minutes(self):
        assert format_seconds(125.0) == "2m05.0s"

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            format_seconds(-1.0)
