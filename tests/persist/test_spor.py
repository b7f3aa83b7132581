"""Sudden-power-off recovery: the shadow-store oracle must see zero
stale reads after mapping rebuild + lost-window replay, and the
rebuilt mapping must pass ``PageMapper.audit()``.

``golden/spor_reports.json`` pins the SHA-256 of every report the
campaigns below and CI's two ``spor`` smoke runs produce, so the
drill's phase 1 and recovery cannot move unnoticed.  Regenerate it
only after an intentional model change::

    PYTHONPATH=src python tests/persist/golden/regen_spor_reports.py
"""

import dataclasses
import functools
import hashlib
import json
import math
import os
import tempfile

import pytest

from repro.cli import main
from repro.faults import get_campaign
from repro.nand.reliability import AgingState
from repro.persist import SporReport, run_spor_campaign
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "spor_reports.json")
FTLS = ("page", "vert", "cube", "oracle", "dftl")
#: CI's ``spor`` smoke invocation, less ``--ftl``
CLI_ARGS = (
    "--workload", "OLTP", "--requests", "1200", "--warmup", "0",
    "--blocks-per-chip", "8", "--prefill", "0.7", "--queue-depth", "8",
    "--seed", "7", "--spor-at", "20000",
)


def _config(spor_at_us=20_000.0, aged=False):
    campaign = dataclasses.replace(get_campaign("spor"), spor_at_us=spor_at_us)
    config = SSDConfig.small().with_faults(campaign)
    if aged:
        config = config.with_aging(AgingState(2000, 12.0))
    return config


@functools.lru_cache(maxsize=None)
def _report(ftl, aged=False, n_requests=1200, seed=7, prefill=0.7):
    """One OLTP campaign cut at 20,000 us; cached, so the tests and the
    golden share each run."""
    return run_spor_campaign(
        _config(aged=aged), "OLTP", ftl=ftl,
        n_requests=n_requests, seed=seed, prefill=prefill,
    )


def _cli_report(ftl):
    """The report dict CI's ``spor`` smoke run of ``ftl`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spor.json")
        assert main(["spor", "--ftl", ftl, *CLI_ARGS, "--json", path]) == 0
        with open(path) as handle:
            return json.load(handle)


def _digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def report_digests():
    """The digest of every pinned report, by case name."""
    out = {ftl: _digest(_report(ftl).to_dict()) for ftl in FTLS}
    out["cube-aged"] = _digest(_report("cube", aged=True).to_dict())
    out["cube-800-seed3"] = _digest(
        _report("cube", n_requests=800, seed=3, prefill=0.6).to_dict()
    )
    for ftl in ("cube", "dftl"):
        out[f"cli-{ftl}"] = _digest(_cli_report(ftl))
    return out


class TestRecovery:
    @pytest.mark.parametrize("ftl", FTLS)
    def test_recovery_serves_zero_stale_reads(self, ftl):
        report = _report(ftl)
        assert isinstance(report, SporReport)
        assert report.check["violations"] == 0
        assert report.audit is None
        assert report.clean
        # the cut must actually have landed mid-run with work in flight
        assert 0 < report.completed_before < 1200
        assert report.issued_before >= report.completed_before

    def test_lost_window_is_replayed(self):
        report = _report("cube")
        lost = report.lost_writes + report.dropped_reads
        assert lost == report.issued_before - report.completed_before
        recovered = report.recovery
        assert recovered["mapped_lpns"] > 0
        assert recovered["oob_records"] >= recovered["mapped_lpns"]

    def test_aged_device_recovers(self):
        assert _report("cube", aged=True).clean

    def test_dftl_dirty_cmt_at_cut_recovers(self):
        """Power cut while the CMT holds dirty entries: the cached
        mapping dies with RAM, but every acked write is rebuilt from
        data-page OOB, the GTD is rebuilt from translation-page OOB,
        and the lost window replays on top -- clean oracle, no stale
        reads, no lost acked data."""
        from repro.check import InvariantChecker, parse_check_level
        from repro.workloads import build_workload

        # deterministic phase-1 probe (same seed/instant the campaign
        # replays): prove the chosen cut really lands mid-run with
        # dirty CMT entries, i.e. mappings newer than any durable
        # translation page
        sim_config = dataclasses.replace(
            _config(), store_oob=True, store_tags=True
        )
        checker = InvariantChecker(parse_check_level("on"))
        sim = SSDSimulation(sim_config, ftl="dftl", checker=checker)
        sim.prefill(0.7)
        trace = build_workload("OLTP", sim_config.logical_pages, 1200, seed=7)
        stopped = replay(sim, trace, queue_depth=32, until_us=20_000.0)
        assert stopped.unfinished, "the cut landed after the last request"
        assert any(sim.ftl._cmt.values()), (
            "cut instant has no dirty CMT entries; pick another instant"
        )

        report = _report("dftl")
        assert report.clean
        assert report.lost_writes > 0  # the window was non-trivial
        recovered = report.recovery
        assert recovered["trans_records"] > 0
        assert recovered["trans_pages"] > 0
        assert recovered["mapped_lpns"] > 0

    def test_report_serializes(self):
        payload = _report("cube", n_requests=800, seed=3, prefill=0.6).to_dict()
        assert payload["spor_at_us"] == 20_000.0
        assert payload["check"]["violations"] == 0
        assert payload["clean"] is True


@pytest.fixture(scope="module")
def pinned():
    with open(GOLDEN) as handle:
        return json.load(handle), report_digests()


class TestReportsPinned:
    def test_every_case_is_pinned(self, pinned):
        golden, current = pinned
        assert sorted(current) == sorted(golden)

    @pytest.mark.parametrize(
        "case",
        [*FTLS, "cube-aged", "cube-800-seed3", "cli-cube", "cli-dftl"],
    )
    def test_report_matches_golden(self, pinned, case):
        golden, current = pinned
        assert current[case] == golden[case]


class TestGuards:
    def test_requires_spor_instant(self):
        with pytest.raises(ValueError, match="spor_at_us"):
            run_spor_campaign(SSDConfig.small(), "OLTP", n_requests=100)

    @pytest.mark.parametrize("spor_at_us", [-1.0, math.nan, math.inf])
    def test_spor_instant_must_be_finite_and_non_negative(self, spor_at_us):
        """A cut that never comes would replay the whole trace and
        report a clean drill."""
        with pytest.raises(ValueError, match="finite number >= 0"):
            dataclasses.replace(get_campaign("spor"), spor_at_us=spor_at_us)

    def test_cli_refuses_a_nan_instant(self):
        with pytest.raises(SystemExit) as exited:
            main(["spor", "--spor-at", "nan", "--requests", "200",
                  "--warmup", "0"])
        assert "finite number >= 0" in str(exited.value.code)

    def test_spor_recover_requires_oob(self):
        sim = SSDSimulation(SSDConfig.small(), ftl="cube")
        with pytest.raises(RuntimeError, match="store_oob"):
            sim.ftl.spor_recover()

    def test_spor_recover_requires_fresh_ftl(self):
        config = dataclasses.replace(
            SSDConfig.small(), store_oob=True, store_tags=True
        )
        sim = SSDSimulation(config, ftl="cube")
        sim.prefill(0.3)
        with pytest.raises(RuntimeError, match="fresh"):
            sim.ftl.spor_recover()
