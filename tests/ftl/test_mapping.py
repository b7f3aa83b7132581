"""Tests for the page mapper (L2P/P2L/validity invariants)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ftl.mapping import UNMAPPED, PageMapper
from repro.nand.geometry import BlockGeometry, SSDGeometry
from repro.ssd.config import SSDConfig


@pytest.fixture
def mapper(ssd_geometry):
    return PageMapper(ssd_geometry, logical_pages=ssd_geometry.total_pages // 2)


class TestBindLookup:
    def test_unmapped_by_default(self, mapper):
        assert mapper.lookup(0) == UNMAPPED

    def test_bind_round_trip(self, mapper):
        mapper.bind(5, 100)
        assert mapper.lookup(5) == 100
        assert mapper.lpn_of(100) == 5
        assert mapper.is_valid(100)

    def test_rebind_invalidates_old(self, mapper):
        mapper.bind(5, 100)
        old = mapper.bind(5, 200)
        assert old == 100
        assert not mapper.is_valid(100)
        assert mapper.lpn_of(100) == UNMAPPED
        assert mapper.lookup(5) == 200

    def test_bind_to_valid_ppn_rejected(self, mapper):
        mapper.bind(5, 100)
        with pytest.raises(ValueError):
            mapper.bind(6, 100)

    def test_invalidate_lpn(self, mapper):
        mapper.bind(5, 100)
        mapper.invalidate_lpn(5)
        assert mapper.lookup(5) == UNMAPPED
        assert not mapper.is_valid(100)

    def test_bounds(self, mapper):
        with pytest.raises(IndexError):
            mapper.lookup(mapper.logical_pages)
        with pytest.raises(IndexError):
            mapper.bind(0, mapper.geometry.total_pages)

    def test_logical_space_cannot_exceed_physical(self, ssd_geometry):
        with pytest.raises(ValueError):
            PageMapper(ssd_geometry, ssd_geometry.total_pages + 1)


class TestBlockAccounting:
    def test_valid_count_tracks_binds(self, mapper):
        per_block = mapper.geometry.block.pages_per_block
        mapper.bind(0, 0)
        mapper.bind(1, 1)
        mapper.bind(2, per_block)  # second block of chip 0
        assert mapper.valid_count(0, 0) == 2
        assert mapper.valid_count(0, 1) == 1

    def test_valid_pages_of_block(self, mapper):
        mapper.bind(7, 3)
        mapper.bind(9, 5)
        pages = mapper.valid_pages_of_block(0, 0)
        assert (3, 7) in pages and (5, 9) in pages

    def test_clear_block_requires_no_valid(self, mapper):
        mapper.bind(7, 3)
        with pytest.raises(ValueError):
            mapper.clear_block(0, 0)
        mapper.invalidate_lpn(7)
        mapper.clear_block(0, 0)
        assert mapper.valid_count(0, 0) == 0

    def test_clear_block_resets_p2l(self, mapper):
        mapper.bind(7, 3)
        mapper.bind(7, 4)  # old ppn 3 invalid but p2l cleared already
        mapper.invalidate_lpn(7)
        mapper.clear_block(0, 0)
        assert mapper.lpn_of(3) == UNMAPPED
        assert mapper.lpn_of(4) == UNMAPPED

    def test_mapped_lpn_count(self, mapper):
        mapper.bind(0, 10)
        mapper.bind(1, 11)
        mapper.invalidate_lpn(0)
        assert mapper.mapped_lpn_count() == 1


def _small_mapper():
    config = SSDConfig.small()
    return PageMapper(config.geometry, config.logical_pages)


class TestQueryBounds:
    """numpy indexing, and the memoryviews over the tables, wrap a
    negative index onto the last entries; every query refuses it, as
    lookup and bind do, instead of reading another page or block."""

    @pytest.fixture
    def mapper(self):
        mapper = _small_mapper()
        mapper.bind(5, mapper.geometry.total_pages - 1)
        return mapper

    def test_lpn_of_rejects_negative_ppn(self, mapper):
        with pytest.raises(IndexError, match="-1"):
            mapper.lpn_of(-1)

    def test_is_valid_rejects_negative_ppn(self, mapper):
        with pytest.raises(IndexError, match="-1"):
            mapper.is_valid(-1)

    def test_valid_count_rejects_negative_block(self, mapper):
        with pytest.raises(IndexError, match="-1"):
            mapper.valid_count(1, -1)

    def test_valid_count_rejects_negative_chip(self, mapper):
        with pytest.raises(IndexError, match="-1"):
            mapper.valid_count(-1, 0)

    def test_valid_pages_of_block_rejects_negative_block(self, mapper):
        with pytest.raises(IndexError, match="-1"):
            mapper.valid_pages_of_block(1, -1)

    def test_ppn_past_the_end_rejected(self, mapper):
        total = mapper.geometry.total_pages
        with pytest.raises(IndexError, match=str(total)):
            mapper.lpn_of(total)
        with pytest.raises(IndexError, match=str(total)):
            mapper.is_valid(total)

    def test_block_past_the_end_rejected(self, mapper):
        # a flat per-block index must not spill into the next chip
        blocks = mapper.geometry.blocks_per_chip
        with pytest.raises(IndexError, match=str(blocks)):
            mapper.valid_count(0, blocks)
        with pytest.raises(IndexError, match=str(blocks)):
            mapper.valid_pages_of_block(0, blocks)

    def test_last_entries_still_readable(self, mapper):
        last = mapper.geometry.total_pages - 1
        assert mapper.lpn_of(last) == 5
        assert mapper.is_valid(last)
        n_chips = mapper.geometry.n_chips
        last_block = mapper.geometry.blocks_per_chip - 1
        assert mapper.valid_count(n_chips - 1, last_block) == 1
        assert mapper.valid_pages_of_block(n_chips - 1, last_block) == [(last, 5)]


class TestRestoredTables:
    def test_writes_after_load_state_dict_reach_the_tables(self):
        """load_state_dict replaces the arrays; single-entry writes made
        after it must land in the new arrays, where state_dict, the
        block counts and the audit read them."""
        source = _small_mapper()
        source.bind(3, 40)
        source.bind(4, 41)
        mapper = _small_mapper()
        mapper.load_state_dict(source.state_dict())
        mapper.bind(5, 42)
        mapper.invalidate_lpn(3)
        state = mapper.state_dict()
        assert state["l2p"][5] == 42
        assert state["l2p"][3] == UNMAPPED
        assert state["p2l"][42] == 5
        assert state["p2l"][40] == UNMAPPED
        assert state["valid"][42] and not state["valid"][40]
        assert state["valid_count"][0, 0] == 2
        assert mapper.valid_count(0, 0) == 2
        assert mapper.lookup(5) == 42
        assert mapper.audit() is None
        # the source kept its own tables
        assert source.lookup(3) == 40
        assert source.valid_count(0, 0) == 2


@settings(max_examples=50, deadline=None)
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["bind", "trim"]),
            st.integers(min_value=0, max_value=30),  # lpn
            st.integers(min_value=0, max_value=200),  # ppn candidate
        ),
        max_size=80,
    )
)
def test_mapper_invariants_under_random_operations(operations):
    """L2P/P2L stay mutually consistent and valid counts never drift
    under arbitrary bind/trim sequences."""
    geometry = SSDGeometry(
        n_channels=1,
        chips_per_channel=1,
        blocks_per_chip=4,
        block=BlockGeometry(n_layers=4, wls_per_layer=4, pages_per_wl=4),
    )
    mapper = PageMapper(geometry, logical_pages=32)
    for op, lpn, ppn in operations:
        if op == "bind":
            ppn = ppn % geometry.total_pages
            if not mapper.is_valid(ppn):
                mapper.bind(lpn % 32, ppn)
        else:
            mapper.invalidate_lpn(lpn % 32)
        mapper.check_invariants()
