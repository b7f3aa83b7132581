"""Structured logging: format, parsing, configuration, stall events."""

import io
import logging

import pytest

from repro.obs.log import (
    PREFIX,
    configure_logging,
    format_fields,
    get_logger,
    log_event,
    parse_line,
)


class TestFormat:
    def test_fields_in_insertion_order(self):
        line = format_fields("stall", completed=3, pending=2)
        assert line == "event=stall completed=3 pending=2"

    def test_whitespace_values_quoted(self):
        line = format_fields("note", msg="two words")
        assert line == "event=note msg='two words'"

    def test_round_trip_through_parse(self):
        stream = io.StringIO()
        configure_logging("info", stream=stream)
        log_event(get_logger("test"), "info", "thing", a=1, b="x")
        parsed = parse_line(stream.getvalue())
        assert parsed["level"] == "INFO"
        assert parsed["logger"] == "repro.test"
        assert parsed["event"] == "thing"
        assert parsed["a"] == "1"

    def test_parse_rejects_foreign_lines(self):
        assert parse_line("some random output") is None
        assert parse_line("") is None


class TestConfigure:
    def test_line_has_machine_parseable_prefix(self):
        stream = io.StringIO()
        configure_logging("warning", stream=stream)
        log_event(get_logger("x"), "error", "boom", code=7)
        assert stream.getvalue().startswith(f"{PREFIX} level=ERROR ")

    def test_threshold_filters(self):
        stream = io.StringIO()
        configure_logging("error", stream=stream)
        log_event(get_logger("x"), "warning", "quiet")
        assert stream.getvalue() == ""

    def test_reconfigure_does_not_stack_handlers(self):
        stream = io.StringIO()
        configure_logging("info", stream=stream)
        configure_logging("info", stream=stream)
        log_event(get_logger("x"), "info", "once")
        assert stream.getvalue().count("event=once") == 1

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging("chatty")


class TestStallEvent:
    def test_stall_emits_structured_event(self, caplog):
        from repro.ssd.config import SSDConfig
        from repro.ssd.controller import SimulationStalledError, SSDSimulation
        from repro.ssd.host import replay
        from repro.workloads.synthetic import uniform_random_trace

        # ensure the repro root propagates to pytest's capture handler
        logging.getLogger("repro").propagate = True
        sim = SSDSimulation(SSDConfig.small(), ftl="page")
        sim.prefill(0.2)
        sim.ftl.submit = lambda request, on_complete: None
        trace = uniform_random_trace(sim.config.logical_pages, 10, seed=1)
        with caplog.at_level(logging.ERROR, logger="repro"):
            with pytest.raises(SimulationStalledError):
                replay(sim, trace, queue_depth=4)
        stalls = [
            parse_line(f"{PREFIX} level=ERROR logger=x {record.getMessage()}")
            for record in caplog.records
        ]
        assert any(parsed["event"] == "stall" for parsed in stalls)
