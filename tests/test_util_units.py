"""Tests for repro.util.units."""

from repro.util.units import GIB, KIB, MIB, format_bytes


class TestFormatBytes:
    def test_bytes(self):
        assert format_bytes(512) == "512 B"

    def test_kib(self):
        assert format_bytes(2 * KIB) == "2.0 KiB"

    def test_mib(self):
        assert format_bytes(1.5 * MIB) == "1.5 MiB"

    def test_gib(self):
        assert format_bytes(30 * GIB) == "30.0 GiB"

    def test_negative(self):
        assert format_bytes(-GIB) == "-1.0 GiB"

