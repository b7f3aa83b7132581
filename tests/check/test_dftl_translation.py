"""Translation-layer corruption: a corrupted or unreadable translation
page must surface as an invariant violation or as a recovered read --
never as a silently served stale mapping.

Three injections against the demand-paged FTL:

- an unreadable translation page (every sense reports uncorrectable):
  the demand fetch must fall back to the authoritative table, serve the
  read correctly, and persist a *fresh* translation page;
- a duplicate GTD entry (two TVPNs, one physical translation page):
  the checker's deep scan must flag the translation mapper's bijection;
- a lost GTD entry for an LPN that is not cached: the lookup-
  completeness variant invariant must flag it (the mapping would be
  unreachable after a power cycle).
"""

import dataclasses

import pytest

from repro.check import InvariantChecker, parse_check_level
from repro.check.errors import InvariantViolation
from repro.check.fuzz import random_trace
from repro.faults.campaign import FaultCampaign
from repro.ftl.mapping import UNMAPPED
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads.base import IORequest, Trace


def _checked_sim(faults=None, cmt_capacity=4):
    config = dataclasses.replace(
        SSDConfig.small(logical_fraction=0.4), store_tags=True
    )
    if faults is not None:
        config = config.with_faults(faults)
    checker = InvariantChecker(parse_check_level("strict"))
    sim = SSDSimulation(
        config, ftl="dftl", checker=checker, cmt_capacity=cmt_capacity
    )
    return sim, checker


def _run_some(sim, n_requests=300, seed=11):
    sim.prefill(0.4)
    trace = random_trace(sim.config.logical_pages, n_requests, seed)
    replay(sim, trace, queue_depth=8)


def _uncached_mapped_lpn(sim):
    """An LPN whose next read must fetch its translation page from
    flash: mapped, not buffered, not in the CMT, TVPN on media."""
    ftl = sim.ftl
    for lpn in range(sim.config.logical_pages):
        if ftl.mapper.lookup(lpn) == UNMAPPED:
            continue
        if ftl.buffer.contains(lpn) or lpn in ftl._cmt:
            continue
        tvpn = ftl._tvpn_of(lpn)
        if tvpn in ftl._inflight_trans:
            continue
        if ftl.tmapper.lookup(tvpn) != UNMAPPED:
            return lpn, tvpn
    raise AssertionError("no CMT-miss candidate found; grow the run")


class TestUnreadableTranslationPage:
    def test_demand_fetch_recovers_instead_of_serving_stale(self):
        # all-zero campaign: fault machinery armed, no random faults
        sim, checker = _checked_sim(faults=FaultCampaign(name="inert"))
        _run_some(sim)
        lpn, tvpn = _uncached_mapped_lpn(sim)
        old_tppn = sim.ftl.tmapper.lookup(tvpn)
        chip_id, address = sim.ftl.geometry.ppn_to_address(old_tppn)
        chip = sim.controller.chips[chip_id]
        target = (address.block, address.layer, address.wl, address.page)
        original_read = chip.read_page

        def unreadable(block, layer, wl, page, params):
            result = original_read(block, layer, wl, page, params)
            if (block, layer, wl, page) == target:
                result = dataclasses.replace(result, correctable=False)
            return result

        chip.read_page = unreadable
        before = sim.ftl.dftl_stats.trans_recovered_pages
        reads = Trace(
            "readback", sim.config.logical_pages, [IORequest("R", lpn)]
        )
        # the strict oracle verifies the returned tag: a stale mapping
        # served from the dead page would raise data_integrity here
        replay(sim, reads, queue_depth=1)
        assert sim.ftl.dftl_stats.trans_recovered_pages == before + 1
        # the unreadable page was replaced, not left as the GTD target
        assert sim.ftl.tmapper.lookup(tvpn) != old_tppn
        assert checker.finalize()["violations"] == 0

    def test_read_still_returns_current_data(self):
        sim, checker = _checked_sim(faults=FaultCampaign(name="inert"))
        _run_some(sim)
        lpn, tvpn = _uncached_mapped_lpn(sim)
        old_tppn = sim.ftl.tmapper.lookup(tvpn)
        chip_id, address = sim.ftl.geometry.ppn_to_address(old_tppn)
        chip = sim.controller.chips[chip_id]
        target = (address.block, address.layer, address.wl, address.page)
        original_read = chip.read_page
        chip.read_page = lambda b, l, w, p, params: (
            dataclasses.replace(
                original_read(b, l, w, p, params), correctable=False
            )
            if (b, l, w, p) == target
            else original_read(b, l, w, p, params)
        )
        # overwrite then read back through the translation miss path:
        # the answer must be the *new* content
        replay(
            sim,
            Trace(
                "rmw", sim.config.logical_pages,
                [IORequest("W", lpn), IORequest("R", lpn)],
            ),
            queue_depth=1,
        )
        assert checker.finalize()["violations"] == 0


class TestCorruptedGtd:
    def test_duplicate_translation_ppn_is_caught(self):
        sim, checker = _checked_sim()
        _run_some(sim)
        tmapper = sim.ftl.tmapper
        mapped = [
            tvpn for tvpn in range(sim.ftl.n_tpages)
            if tmapper.lookup(tvpn) != UNMAPPED
        ]
        assert len(mapped) >= 2
        victim, source = mapped[0], mapped[1]
        tmapper._l2p[victim] = tmapper._l2p[source]
        with pytest.raises(InvariantViolation) as caught:
            checker.check_now()
        assert caught.value.invariant == "mapping_bijection"
        assert "translation" in caught.value.message

    def test_lost_gtd_entry_breaks_lookup_completeness(self):
        sim, checker = _checked_sim()
        _run_some(sim)
        lpn, tvpn = _uncached_mapped_lpn(sim)
        # the FTL "forgets" the translation page: with the entry in
        # neither the CMT nor the GTD the mapping is unreachable after
        # a power cycle -- the variant invariant must say so
        sim.ftl.tmapper.invalidate_lpn(tvpn)
        with pytest.raises(InvariantViolation) as caught:
            checker.check_now()
        assert caught.value.invariant == "variant_invariant"
