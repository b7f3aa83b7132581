"""Property-based tests for the demand-paged (DFTL) mapping FTL.

Five properties, driven by hypothesis with ``derandomize=True`` so CI
runs are seeded and deterministic:

- the CMT never exceeds its configured capacity, checked after every
  CMT mutation (an instance-level spy on the eviction hook);
- on a fault-free run every dirty CMT eviction produces exactly one
  translation-page program (the writeback ledger balances);
- the CMT is a *pure cache*: the same trace replayed under CMT
  capacities of 1 slot, 25% and 100% of the translation space yields a
  byte-identical final logical state under the strict checker (so no
  read ever returned different data);
- both mapping tables (host L2P and the GTD) pass ``audit()`` and the
  variant invariant after every fuzz-style run;
- the per-TVPN dirty index cleans, on each dirty eviction, exactly the
  entries a scan of the whole CMT cleans.
"""

import dataclasses
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_simulation
from repro.check import InvariantChecker, parse_check_level
from repro.check.fuzz import random_trace
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay

CONFIG = SSDConfig.small(logical_fraction=0.4)
# the strict checker's data-integrity oracle reads content tags back
CHECKED_CONFIG = dataclasses.replace(CONFIG, store_tags=True)
MAPPINGS_PER_TPAGE = 64
N_TPAGES = -(-CONFIG.logical_pages // MAPPINGS_PER_TPAGE)


def _drive(seed, cmt_capacity, ops=200, prefill=0.4):
    """One checked closed-loop run; returns (sim, checker report)."""
    checker = InvariantChecker(parse_check_level("strict"))
    sim = SSDSimulation(
        CHECKED_CONFIG, ftl="dftl", checker=checker,
        cmt_capacity=cmt_capacity,
    )
    if prefill:
        sim.prefill(prefill)
    trace = random_trace(CONFIG.logical_pages, ops, seed)
    replay(sim, trace, queue_depth=8)
    return sim, checker.finalize()


@settings(derandomize=True, max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    capacity=st.sampled_from([1, 2, 5, 16, 64]),
)
def test_cmt_never_exceeds_capacity(seed, capacity):
    checker = InvariantChecker(parse_check_level("strict"))
    sim = SSDSimulation(
        CHECKED_CONFIG, ftl="dftl", checker=checker, cmt_capacity=capacity
    )
    high_water = {"max": 0}
    original = sim.ftl._cmt_evict_overflow

    def spy():
        original()
        high_water["max"] = max(high_water["max"], len(sim.ftl._cmt))

    sim.ftl._cmt_evict_overflow = spy
    sim.prefill(0.4)
    trace = random_trace(CONFIG.logical_pages, 150, seed)
    replay(sim, trace, queue_depth=8)
    checker.finalize()
    assert high_water["max"] <= capacity
    assert len(sim.ftl._cmt) <= capacity


@settings(derandomize=True, max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    capacity=st.sampled_from([1, 4, 16]),
)
def test_dirty_evictions_balance_translation_programs(seed, capacity):
    sim, report = _drive(seed, capacity)
    stats = sim.ftl.dftl_stats
    # fault-free: no recovery rewrites, so the only demand-path
    # translation programs are dirty-eviction writebacks, one each
    assert stats.trans_recovered_pages == 0
    assert stats.cmt_evictions_dirty == stats.trans_programs
    assert report["violations"] == 0


@settings(derandomize=True, max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_cmt_capacity_is_pure_cache(seed):
    """Metamorphic: CMT sizing is a performance knob, never a
    correctness knob.  1 slot, a quarter of the translation space, and
    a full-coverage CMT must agree byte-for-byte on the final logical
    state (and the strict oracle verified every read along the way)."""
    trace = random_trace(
        CONFIG.logical_pages, 200, seed, hot_fraction=0.1, hot_weight=0.7
    )
    digests = set()
    for capacity in (1, max(1, N_TPAGES // 4), N_TPAGES * MAPPINGS_PER_TPAGE):
        result = run_simulation(
            CONFIG, trace, ftl="dftl",
            cmt_capacity=capacity,
            queue_depth=8, prefill=0.4, seed=seed, check="strict",
        )
        assert result.check["violations"] == 0
        digests.add(result.check["state_digest"])
    assert len(digests) == 1, f"CMT capacity changed results: {digests}"


@settings(derandomize=True, max_examples=5, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    capacity=st.sampled_from([1, 3, 8, 64]),
)
def test_both_mappers_audit_clean_after_fuzz_run(seed, capacity):
    sim, report = _drive(seed, capacity, ops=150)
    assert report["violations"] == 0
    assert sim.ftl.mapper.audit() is None
    assert sim.ftl.tmapper.audit() is None
    assert sim.ftl.audit_variant() is None


class _ScanningCmt:
    """Reference CMT: the batched writeback by a scan of every entry,
    as dftl did before it kept a per-TVPN dirty index."""

    def __init__(self, capacity, per_tpage):
        self.cmt = OrderedDict()
        self.capacity = capacity
        self.per_tpage = per_tpage
        #: (tvpn, LPNs the writeback cleaned, the victim included)
        self.writebacks = []

    def update(self, lpn):
        self.cmt[lpn] = True
        self.cmt.move_to_end(lpn)
        self._evict()

    def fill(self, lpn):
        if lpn in self.cmt:
            self.cmt.move_to_end(lpn)
            return
        self.cmt[lpn] = False
        self._evict()

    def drop(self, lpn):
        self.cmt.pop(lpn, None)

    def _evict(self):
        while len(self.cmt) > self.capacity:
            victim, dirty = self.cmt.popitem(last=False)
            if not dirty:
                continue
            tvpn = victim // self.per_tpage
            cleaned = {victim}
            for other, other_dirty in self.cmt.items():
                if other_dirty and other // self.per_tpage == tvpn:
                    self.cmt[other] = False
                    cleaned.add(other)
            self.writebacks.append((tvpn, cleaned))


#: six TVPNs of four LPNs: a CMT of 4 to 16 entries holds several
#: dirty entries of one TVPN at once
CMT_PER_TPAGE = 4
CMT_LPNS = 24


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    capacity=st.integers(4, 16),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["update", "update", "fill", "drop"]),
            st.integers(0, CMT_LPNS - 1),
        ),
        min_size=20,
        max_size=150,
    ),
)
def test_dirty_index_cleans_what_a_full_scan_cleans(capacity, ops):
    sim = SSDSimulation(
        CONFIG, ftl="dftl", cmt_capacity=capacity,
        mappings_per_tpage=CMT_PER_TPAGE,
    )
    ftl = sim.ftl
    reference = _ScanningCmt(capacity, CMT_PER_TPAGE)
    writebacks = []

    def recording_writeback(tvpn):
        # each operation adds at most one entry, so at most one eviction
        # runs inside it: the entries of the TVPN that were dirty before
        # the operation or made dirty by it, minus those still dirty
        cleaned = {
            lpn for lpn in touched
            if lpn // CMT_PER_TPAGE == tvpn and not ftl._cmt.get(lpn, False)
        }
        writebacks.append((tvpn, cleaned))

    ftl._writeback = recording_writeback
    methods = {
        "update": ftl._cmt_note_update,
        "fill": ftl._cmt_fill,
        "drop": ftl._cmt_drop,
    }
    for op, lpn in ops:
        touched = {other for other, dirty in ftl._cmt.items() if dirty}
        if op == "update":
            touched.add(lpn)
        methods[op](lpn)
        getattr(reference, op)(lpn)
        assert list(ftl._cmt.items()) == list(reference.cmt.items())
        assert writebacks == reference.writebacks
        index = {}
        for other, dirty in ftl._cmt.items():
            if dirty:
                index.setdefault(other // CMT_PER_TPAGE, set()).add(other)
        assert ftl._cmt_dirty == index
