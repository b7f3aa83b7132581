"""Unit and integration tests of the runtime invariant checker.

The core acceptance case lives here: an intentionally injected mapping
corruption must be caught and reported with the offending LPN / PPN /
block and the engine timestamp.
"""

from dataclasses import replace

import pytest

from repro.check import (
    CheckConfig,
    InvariantChecker,
    InvariantViolation,
    parse_check_level,
)
from repro.ftl.blockmgr import BlockState
from repro.obs.registry import TelemetryRegistry
from repro.obs.trace import InMemorySink, Tracer
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads import build_workload
from repro.workloads.base import IORequest, Trace


def _checked_sim(ftl="cube", *, tracer=None, telemetry=None, config=None,
                 level="strict"):
    cfg = config or replace(
        SSDConfig.small(logical_fraction=0.4), store_tags=True
    )
    checker = InvariantChecker(
        CheckConfig.strict() if level == "strict" else CheckConfig()
    )
    sim = SSDSimulation(
        cfg, ftl=ftl, checker=checker, tracer=tracer, telemetry=telemetry
    )
    return sim, checker


def _run_some(sim, n_requests=150, seed=11):
    sim.prefill(0.4)
    trace = build_workload(
        "OLTP", sim.config.logical_pages, n_requests, seed=seed
    )
    replay(sim, trace, queue_depth=8)


class TestCheckConfig:
    def test_parse_levels(self):
        assert parse_check_level(None) is None
        assert parse_check_level(False) is None
        assert parse_check_level("off") is None
        assert parse_check_level(True).level == "on"
        assert parse_check_level("on").level == "on"
        strict = parse_check_level("strict")
        assert strict.level == "strict"
        assert strict.deep_every_completions > 0
        assert strict.deep_on_erase
        custom = CheckConfig(level="on", span_tail=3)
        assert parse_check_level(custom) is custom

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_check_level("paranoid")
        with pytest.raises(ValueError):
            CheckConfig(level="paranoid")

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            CheckConfig(deep_every_completions=-1)
        with pytest.raises(ValueError):
            CheckConfig(span_tail=-1)


class TestInjectedCorruption:
    """The acceptance case: deliberate corruption must be caught and
    located."""

    def test_duplicate_ppn_reports_lpn_ppn_block_and_time(self):
        sim, checker = _checked_sim()
        _run_some(sim)
        mapper = sim.ftl.mapper
        mapped = [
            lpn for lpn in range(sim.config.logical_pages)
            if mapper.lookup(lpn) != -1
        ]
        assert len(mapped) >= 2
        victim, source = mapped[0], mapped[1]
        mapper._l2p[victim] = mapper._l2p[source]  # inject: two LPNs, one PPN
        with pytest.raises(InvariantViolation) as caught:
            checker.check_now()
        violation = caught.value
        assert violation.invariant == "mapping_bijection"
        assert violation.lpn is not None
        assert violation.ppn is not None
        assert violation.block is not None
        assert violation.chip is not None
        assert violation.time_us is not None and violation.time_us > 0
        message = str(violation)
        assert "lpn=" in message and "ppn=" in message and "block=" in message
        assert "t=" in message

    def test_valid_count_drift_is_caught(self):
        sim, checker = _checked_sim()
        _run_some(sim)
        sim.ftl.mapper._valid_count[0, 0] += 1
        with pytest.raises(InvariantViolation) as caught:
            checker.check_now()
        assert caught.value.invariant == "mapping_bijection"
        assert caught.value.chip == 0 and caught.value.block == 0

    def test_orphaned_valid_page_is_caught(self):
        sim, checker = _checked_sim()
        _run_some(sim)
        mapper = sim.ftl.mapper
        mapped = [
            lpn for lpn in range(sim.config.logical_pages)
            if mapper.lookup(lpn) != -1
        ]
        # drop the L2P side only: the valid physical page becomes an orphan
        mapper._l2p[mapped[0]] = -1
        with pytest.raises(InvariantViolation) as caught:
            checker.check_now()
        assert caught.value.invariant == "mapping_bijection"

    def test_write_buffer_version_drift_is_caught(self):
        sim, checker = _checked_sim()
        _run_some(sim)
        sim.ftl.buffer._versions[999_999] = 5  # stale entry: bounded-table leak
        with pytest.raises(InvariantViolation) as caught:
            checker.check_now()
        assert caught.value.invariant == "write_buffer_versions"

    def test_free_pool_accounting_drift_is_caught(self):
        sim, checker = _checked_sim()
        _run_some(sim)
        blocks = sim.ftl.blocks
        free_block = next(iter(blocks._free[0]))
        blocks._state[0][free_block] = BlockState.FULL  # state/pool split
        with pytest.raises(InvariantViolation) as caught:
            checker.check_now()
        assert caught.value.invariant == "free_pool_accounting"


class TestBlockLifecycle:
    def test_illegal_transition_is_flagged(self):
        sim, checker = _checked_sim(ftl="page")
        blocks = sim.ftl.blocks
        block = blocks.take_free(0)  # FREE -> ACTIVE: legal
        with pytest.raises(InvariantViolation) as caught:
            blocks.mark_free(0, block)  # ACTIVE -> FREE: never legal
        violation = caught.value
        assert violation.invariant == "block_lifecycle"
        assert violation.chip == 0 and violation.block == block

    def test_retirement_is_terminal(self):
        sim, checker = _checked_sim(ftl="page")
        blocks = sim.ftl.blocks
        free_block = next(iter(blocks._free[0]))
        blocks.retire(0, free_block, reason="wear")  # FREE -> RETIRED: legal
        with pytest.raises(InvariantViolation) as caught:
            checker.on_block_transition(
                0, free_block, BlockState.RETIRED, BlockState.ACTIVE
            )
        assert caught.value.invariant == "block_lifecycle"
        assert "terminal" in caught.value.message

    def test_normal_run_has_legal_lifecycle_only(self):
        sim, checker = _checked_sim()
        _run_some(sim, n_requests=250)
        assert checker.violations == 0


class TestClockMonotonicity:
    def test_backwards_clock_is_flagged(self):
        sim, checker = _checked_sim()
        checker._on_engine_event(10.0)
        with pytest.raises(InvariantViolation) as caught:
            checker._on_engine_event(9.0)
        violation = caught.value
        assert violation.invariant == "clock_monotonicity"
        assert violation.details["previous_us"] == 10.0

    def test_equal_times_are_legal(self):
        sim, checker = _checked_sim()
        checker._on_engine_event(10.0)
        checker._on_engine_event(10.0)
        assert checker.violations == 0


class TestReporting:
    def test_violation_exported_as_telemetry_counter(self):
        registry = TelemetryRegistry()
        sim, checker = _checked_sim(telemetry=registry)
        _run_some(sim)
        assert "check_violations_total" in registry
        sim.ftl.buffer._versions[999_999] = 1
        with pytest.raises(InvariantViolation):
            checker.check_now()
        snapshot = registry.snapshot()
        series = snapshot["check_violations_total"]["series"]
        assert series == [
            {"labels": {"invariant": "write_buffer_versions"}, "value": 1}
        ]
        assert snapshot["check_deep_scans"]["series"][0]["value"] >= 1

    def test_recent_spans_attached_when_tracing(self):
        tracer = Tracer(InMemorySink())
        sim, checker = _checked_sim(tracer=tracer)
        _run_some(sim)
        sim.ftl.buffer._versions[999_999] = 1
        with pytest.raises(InvariantViolation) as caught:
            checker.check_now()
        violation = caught.value
        assert violation.recent_spans
        assert len(violation.recent_spans) <= checker.config.span_tail
        assert "stage" in violation.recent_spans[0]
        assert "trace spans" in str(violation)

    def test_context_embedded_in_message(self):
        sim, checker = _checked_sim()
        checker.context.update(seed=11, ftl="cube")
        _run_some(sim)
        sim.ftl.buffer._versions[999_999] = 1
        with pytest.raises(InvariantViolation) as caught:
            checker.check_now()
        assert "seed=11" in str(caught.value)
        assert caught.value.context["ftl"] == "cube"

    def test_to_dict_is_json_safe(self):
        import json

        violation = InvariantViolation(
            "mapping_bijection", "boom", lpn=1, ppn=2, chip=0, block=3,
            time_us=42.5, context={"seed": 7}, details={"other_lpn": 9},
        )
        rendered = json.loads(json.dumps(violation.to_dict()))
        assert rendered["invariant"] == "mapping_bijection"
        assert rendered["lpn"] == 1 and rendered["time_us"] == 42.5


class TestOracleEndToEnd:
    def test_flipped_flash_tag_is_caught_on_read(self):
        sim, checker = _checked_sim()
        _run_some(sim)
        mapper = sim.ftl.mapper
        geometry = sim.ftl.geometry
        lpn = next(
            lpn for lpn in range(sim.config.logical_pages)
            if mapper.lookup(lpn) != -1 and not sim.ftl.buffer.contains(lpn)
        )
        chip_id, address = geometry.ppn_to_address(mapper.lookup(lpn))
        chip = sim.controller.chips[chip_id]
        wl_index = chip.geometry.wl_index(address.layer, address.wl)
        chip._tags[(address.block, wl_index, address.page)] = "corrupted"
        reads = Trace(
            "readback", sim.config.logical_pages, [IORequest("R", lpn)]
        )
        with pytest.raises(InvariantViolation) as caught:
            replay(sim, reads, queue_depth=1)
        violation = caught.value
        assert violation.invariant == "data_integrity"
        assert violation.lpn == lpn
        assert violation.ppn is not None

    def test_lost_mapping_is_caught_on_read(self):
        sim, checker = _checked_sim()
        _run_some(sim)
        mapper = sim.ftl.mapper
        lpn = next(
            lpn for lpn in range(sim.config.logical_pages)
            if mapper.lookup(lpn) != -1 and not sim.ftl.buffer.contains(lpn)
        )
        mapper.invalidate_lpn(lpn)  # the FTL "forgets" written data
        reads = Trace(
            "readback", sim.config.logical_pages, [IORequest("R", lpn)]
        )
        with pytest.raises(InvariantViolation) as caught:
            replay(sim, reads, queue_depth=1)
        assert caught.value.invariant == "data_integrity"
        assert "mapping lost" in caught.value.message


class TestDigest:
    def test_state_digest_is_deterministic(self):
        digests = []
        for _ in range(2):
            sim, checker = _checked_sim()
            _run_some(sim)
            digests.append(checker.state_digest())
        assert digests[0] == digests[1]

    def test_state_digest_tracks_content(self):
        sim, checker = _checked_sim()
        _run_some(sim, seed=11)
        other, other_checker = _checked_sim()
        _run_some(other, seed=12)
        assert checker.state_digest() != other_checker.state_digest()

    def test_logical_view_matches_shadow(self):
        sim, checker = _checked_sim()
        _run_some(sim)
        view = checker.logical_view()
        for lpn, tag in checker.oracle.shadow.items():
            assert view[lpn] == tag, f"LPN {lpn}: view {view[lpn]} != {tag}"

    def test_finalize_reports_clean_run(self):
        sim, checker = _checked_sim()
        _run_some(sim)
        report = checker.finalize()
        assert report["violations"] == 0
        assert report["completions"] == 150
        assert report["deep_scans"] >= 1
        assert report["oracle"]["writes_recorded"] > 0
        assert len(report["state_digest"]) == 64
