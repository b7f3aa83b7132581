"""The host-time sampler: which layer each code object is charged to,
that planted CPU cost lands in its layer, and that the SIGPROF handler
and timer are left as they were found."""

import logging
import signal
import sys
import threading
from time import thread_time
from types import CodeType

import pytest

import repro.ftl as ftl_package
import repro.ftl.base as base_module
import repro.nand.chip as chip_module
import repro.persist.driver as driver_module
from repro.api import run_simulation
from repro.ftl.base import BaseFTL
from repro.ftl.dftl import DFTL
from repro.nand.chip import NandChip
from repro.obs.profile import (
    FTL_LAYERS,
    HostProfile,
    profile_report,
    sampling,
    validate_profile,
)
from repro.obs.trace import Tracer
from repro.persist.checkpoint import latest_checkpoint
from repro.sim.engine import Engine
from repro.sim.resources import FifoResource
from repro.specs import SimulationSpec
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay

needs_sigprof = pytest.mark.skipif(
    not hasattr(signal, "SIGPROF"), reason="SIGPROF sampling is POSIX-only"
)


def _nested(function, name):
    """The code object called ``name`` nested (at any depth) in
    ``function``."""
    stack = [function.__code__]
    while stack:
        code = stack.pop()
        for const in code.co_consts:
            if isinstance(const, CodeType):
                if const.co_name == name:
                    return const
                stack.append(const)
    raise LookupError(name)


ATTRIBUTION = [
    ("BaseFTL._maybe_gc", BaseFTL._maybe_gc.__code__, False, "ftl.gc"),
    ("_gc_migrate.on_data", _nested(BaseFTL._gc_migrate, "on_data"), False,
     "ftl.gc"),
    ("_program_entries.job[gc]", _nested(BaseFTL._program_entries, "job"),
     True, "ftl.gc"),
    ("_program_entries.job[host]", _nested(BaseFTL._program_entries, "job"),
     False, "ftl.write"),
    ("BaseFTL._translate_read", BaseFTL._translate_read.__code__, False,
     "ftl.read"),
    ("DFTL._translate_read", DFTL._translate_read.__code__, False, "ftl.dftl"),
    # the translation kind's GC policy
    ("DFTL._gc_may_start", DFTL._gc_may_start.__code__, False, "ftl.gc"),
    ("_trans_gc_migrate.on_read", _nested(DFTL._trans_gc_migrate, "on_read"),
     False, "ftl.gc"),
    ("DFTL._trans_gc_erase", DFTL._trans_gc_erase.__code__, False, "ftl.gc"),
    # the erase step both block kinds share, and the one translation-page
    # writer: a GC migration is ftl.gc, a writeback ftl.dftl
    ("_erase_victim.on_done", _nested(BaseFTL._erase_victim, "on_done"), False,
     "ftl.gc"),
    ("_program_tpage.on_done[gc]", _nested(DFTL._program_tpage, "on_done"),
     True, "ftl.gc"),
    ("_program_tpage.on_done[writeback]",
     _nested(DFTL._program_tpage, "on_done"), False, "ftl.dftl"),
    ("NandChip.program_wl", NandChip.program_wl.__code__, False, "nand.chip"),
    ("Engine.run", Engine.run.__code__, False, "sim.engine"),
    ("FifoResource.submit", FifoResource.submit.__code__, False,
     "sim.resources"),
    ("host.replay", replay.__code__, False, "ssd.host"),
    ("Tracer.span", Tracer.span.__code__, False, "obs.trace"),
    # not in the FTL table: charged to its module
    ("BaseFTL._maybe_mark_full", BaseFTL._maybe_mark_full.__code__, False,
     "ftl.base"),
]


class TestAttribution:
    @pytest.mark.parametrize(
        "code, is_gc, layer",
        [case[1:] for case in ATTRIBUTION],
        ids=[case[0] for case in ATTRIBUTION],
    )
    def test_code_object_layer(self, code, is_gc, layer):
        assert HostProfile().layer_of(code, is_gc=is_gc) == layer

    @pytest.mark.parametrize("layer", sorted(FTL_LAYERS))
    def test_every_ftl_layer_name_is_defined(self, layer):
        """A name no FTL class defines would be skipped silently, and
        the time of the method it meant charged to ``ftl.base``."""
        classes = [
            cls for cls in vars(ftl_package).values()
            if isinstance(cls, type) and issubclass(cls, BaseFTL)
        ]
        stale = [
            name for name in FTL_LAYERS[layer]
            if not any(name in cls.__dict__ for cls in classes)
        ]
        assert stale == []

    def test_code_outside_the_package_has_no_layer(self):
        assert HostProfile().layer_of(_nested.__code__) == ""

    def test_handler_reads_the_is_gc_local(self):
        source = "def frame_of(is_gc):\n    return sys._getframe()\n"
        namespace = {"sys": sys}
        exec(compile(source, base_module.__file__, "exec"), namespace)
        profile = HostProfile()
        profile.on_sample(signal.SIGPROF, namespace["frame_of"](True))
        profile.on_sample(signal.SIGPROF, namespace["frame_of"](False))
        assert profile.samples == {"ftl.gc": 1, "ftl.base": 1}

    @needs_sigprof
    def test_planted_cost_lands_in_its_layer(self):
        # a busy loop compiled under nand/chip.py's file name
        source = (
            "def spin(seconds, clock):\n"
            "    end = clock() + seconds\n"
            "    while clock() < end:\n"
            "        pass\n"
        )
        namespace = {}
        exec(compile(source, chip_module.__file__, "exec"), namespace)
        with sampling() as profile:
            namespace["spin"](0.3, thread_time)
        total = sum(profile.samples.values())
        assert total >= 20
        assert profile.samples.get("nand.chip", 0) >= 0.8 * total
        assert profile.handler_s < 0.02 * profile.replay_s


class TestProfileDict:
    def _profile(self):
        profile = HostProfile()
        profile.samples = {"sim.engine": 3, "nand.chip": 1}
        profile.replay_s = 0.02
        profile.handler_s = 0.0001
        return profile.to_dict(build_s=0.1, prefill_s=0.3, trace_s=0.1, total_s=0.6)

    def test_seconds_are_sample_shares_of_the_replay(self):
        data = self._profile()
        assert data["samples"] == 4
        assert data["layers"]["sim.engine"] == {"samples": 3, "seconds": 0.015}
        assert validate_profile(data) == []

    def test_seconds_off_the_replay_are_reported(self):
        data = self._profile()
        data["layers"]["nand.chip"]["seconds"] = 0.001
        assert any("replay_s" in p for p in validate_profile(data))

    def test_missing_key_is_reported(self):
        data = self._profile()
        del data["handler_s"]
        assert validate_profile(data) == ["missing key 'handler_s'"]

    def test_setup_is_the_sum_of_its_parts(self):
        data = self._profile()
        assert data["setup_s"] == 0.1 + 0.3 + 0.1
        data["prefill_s"] = 0.2
        assert validate_profile(data) == [
            f"set-up parts sum to {0.1 + 0.2 + 0.1!r}, not setup_s"
        ]

    def test_report_rows(self):
        report = profile_report(self._profile())
        lines = report.splitlines()
        assert lines[0].split("|")[1:] == [" samples ", " CPU s ", "  share"]
        assert lines[2].split() == ["sim.engine", "|", "3", "|", "0.015", "|",
                                    "75.0", "%"]
        assert [line.split()[0] for line in lines[4:9]] == [
            "build", "prefill", "trace", "setup", "total",
        ]
        assert "sampler handler" in lines[-1]


@pytest.fixture
def profile_log():
    """``event=...`` messages the sampler logs, whatever the ``repro``
    logger was configured to by earlier tests."""
    logger = logging.getLogger("repro.obs.profile")
    messages = []

    class Collect(logging.Handler):
        def emit(self, record):
            messages.append(record.getMessage())

    handler = Collect()
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    yield messages
    logger.removeHandler(handler)
    logger.setLevel(level)


def _run(**kwargs):
    config = SSDConfig.small(logical_fraction=0.4)
    return run_simulation(
        config, "OLTP", ftl="cube", queue_depth=8, prefill=0.4,
        n_requests=300, seed=7, **kwargs,
    )


@needs_sigprof
class TestSignalSafety:
    def test_handler_and_timer_restored_after_a_raise(self):
        def previous(signum, frame):
            pass

        old = signal.signal(signal.SIGPROF, previous)
        try:
            with pytest.raises(RuntimeError, match="boom"):
                with sampling() as profile:
                    assert signal.getsignal(signal.SIGPROF) == profile.on_sample
                    assert signal.getitimer(signal.ITIMER_PROF) != (0.0, 0.0)
                    raise RuntimeError("boom")
            assert signal.getsignal(signal.SIGPROF) is previous
            assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        finally:
            signal.signal(signal.SIGPROF, old)

    def test_off_the_main_thread_the_run_goes_on_unprofiled(self, profile_log):
        box = {}
        thread = threading.Thread(
            target=lambda: box.update(result=_run(profile=True))
        )
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        result = box["result"]
        assert result.profile is None
        assert result.to_dict() == _run().to_dict()
        assert profile_log == [
            "event=profile_unavailable reason='not on the main thread'"
        ]

    def test_an_armed_timer_is_left_armed(self, profile_log):
        old = signal.signal(signal.SIGPROF, lambda signum, frame: None)
        signal.setitimer(signal.ITIMER_PROF, 60.0, 60.0)
        try:
            result = _run(profile=True)
            remaining = signal.getitimer(signal.ITIMER_PROF)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, old)
        assert result.profile is None
        assert remaining[1] == 60.0 and remaining[0] > 0.0
        assert profile_log == [
            "event=profile_unavailable reason='ITIMER_PROF is already armed'"
        ]


def _spin(seconds):
    end = thread_time() + seconds
    while thread_time() < end:
        pass


def _planted(cls_or_module, name, monkeypatch, seconds=0.2):
    """Make ``name`` burn ``seconds`` of CPU before doing its work."""
    original = getattr(cls_or_module, name)

    def slowed(*args, **kwargs):
        _spin(seconds)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls_or_module, name, slowed)


@needs_sigprof
class TestSetupSplit:
    """``setup_s`` is split into building the simulation, its prefill
    (the checkpoint restore on a resume) and the trace generation; a
    cost planted in one phase shows up in its part only."""

    @pytest.mark.parametrize(
        "part, owner, name",
        [
            ("build_s", SSDSimulation, "__init__"),
            ("prefill_s", SSDSimulation, "prefill"),
            ("trace_s", SimulationSpec, "build_trace"),
        ],
    )
    def test_planted_cost_lands_in_its_part(self, monkeypatch, part, owner, name):
        _planted(owner, name, monkeypatch)
        profile = _run(profile=True).profile
        assert validate_profile(profile) == []
        assert profile["setup_s"] == (
            profile["build_s"] + profile["prefill_s"] + profile["trace_s"]
        )
        assert profile[part] >= 0.2
        for other in {"build_s", "prefill_s", "trace_s"} - {part}:
            assert profile[other] < 0.2, other

    def test_a_resume_reports_its_restore_as_prefill(self, tmp_path, monkeypatch):
        out = str(tmp_path / "ckpt")
        _run(checkpoint_every=100, checkpoint_dir=out)
        _planted(driver_module, "restore_state", monkeypatch)
        _planted(driver_module, "load_checkpoint", monkeypatch)
        profile = _run(profile=True, resume_from=latest_checkpoint(out)).profile
        assert validate_profile(profile) == []
        assert profile["prefill_s"] >= 0.4
        assert profile["build_s"] < 0.2 and profile["trace_s"] < 0.2
