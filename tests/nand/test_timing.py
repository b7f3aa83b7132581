"""Tests for NAND timing parameters."""

import pytest


class TestNandTiming:
    def test_defaults_reproduce_paper_anchors(self, timing, ispp):
        """Default leader tPROG lands near the paper's nominal 700 us."""
        t_prog = ispp.default_t_prog_us(0.0)
        assert 650 <= t_prog <= 760

    def test_read_time_grows_linearly_with_retries(self, timing):
        base = timing.read_us(0)
        assert base == timing.t_read_us
        assert timing.read_us(3) == pytest.approx(base + 3 * timing.t_retry_us)

    def test_read_rejects_negative_retries(self, timing):
        with pytest.raises(ValueError):
            timing.read_us(-1)

    def test_transfer_includes_command_overhead(self, timing):
        assert timing.transfer_us(0) == timing.t_cmd_us

    def test_transfer_scales_with_size(self, timing):
        one_page = timing.transfer_us(16 * 1024)
        two_pages = timing.transfer_us(32 * 1024)
        assert two_pages - one_page == pytest.approx(one_page - timing.t_cmd_us)

    def test_transfer_rejects_negative(self, timing):
        with pytest.raises(ValueError):
            timing.transfer_us(-1)

    def test_param_set_below_one_microsecond(self, timing):
        """Section 5.1: parameter setting takes < 1 us."""
        assert timing.t_param_set_us < 1.0

    def test_frozen(self, timing):
        with pytest.raises(Exception):
            timing.t_pgm_us = 1.0
