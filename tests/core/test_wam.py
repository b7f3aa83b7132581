"""Tests for the WL Allocation Manager (Section 5.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.wam import (
    ActiveBlockCursor,
    Allocation,
    SequentialAllocator,
    SequentialCursor,
    WLAllocationManager,
)
from repro.nand.geometry import BlockGeometry, WLAddress


@pytest.fixture
def geometry():
    return BlockGeometry(n_layers=6, wls_per_layer=4)


@pytest.fixture
def cursor(geometry):
    return ActiveBlockCursor(block=7, geometry=geometry)


class TestActiveBlockCursor:
    def test_initial_state(self, cursor):
        assert cursor.leader_available()
        assert not cursor.follower_available()
        # both pointers start at h-layer 0
        assert cursor.take_leader().address == WLAddress(0, 0)
        assert cursor.take_follower().address == WLAddress(0, 1)

    def test_take_leader_advances_pointer(self, cursor):
        allocation = cursor.take_leader()
        assert allocation == Allocation(7, WLAddress(0, 0), is_leader=True)
        assert cursor.follower_available()
        assert cursor.take_leader().address == WLAddress(1, 0)

    def test_followers_only_behind_leader(self, cursor):
        cursor.take_leader()
        for wl in (1, 2, 3):
            allocation = cursor.take_follower()
            assert allocation.address == WLAddress(0, wl)
            assert not allocation.is_leader
        # layer 0 drained; layer 1's leader not programmed yet
        assert not cursor.follower_available()

    def test_take_follower_without_leader_raises(self, cursor):
        with pytest.raises(LookupError):
            cursor.take_follower()

    def test_exhaustion_and_counts(self, cursor, geometry):
        total = geometry.wls_per_block
        taken = set()
        while not cursor.exhausted:
            allocation = cursor.take(prefer_follower=True)
            taken.add(allocation.address.as_tuple())
        assert len(taken) == total
        with pytest.raises(LookupError):
            cursor.take_leader()

    def test_free_wls_accounting(self, cursor, geometry):
        assert cursor.free_wls() == geometry.wls_per_block
        cursor.take_leader()
        cursor.take_follower()
        assert cursor.free_wls() == geometry.wls_per_block - 2

    def test_prefer_leader_falls_back_to_follower(self, cursor, geometry):
        for _ in range(geometry.n_layers):
            cursor.take_leader()
        allocation = cursor.take(prefer_follower=False)
        assert not allocation.is_leader

    def test_prefer_follower_falls_back_to_leader(self, cursor):
        allocation = cursor.take(prefer_follower=True)
        assert allocation.is_leader


class TestSequentialCursor:
    def test_horizontal_first_order(self, geometry):
        cursor = SequentialCursor(3, geometry)
        addresses = [cursor.take().address for _ in range(5)]
        assert addresses == [
            WLAddress(0, 0),
            WLAddress(0, 1),
            WLAddress(0, 2),
            WLAddress(0, 3),
            WLAddress(1, 0),
        ]

    def test_leader_flag_on_wl0(self, geometry):
        cursor = SequentialCursor(3, geometry)
        flags = [cursor.take().is_leader for _ in range(8)]
        assert flags == [True, False, False, False, True, False, False, False]

    def test_exhaustion(self, geometry):
        cursor = SequentialCursor(3, geometry)
        for _ in range(geometry.wls_per_block):
            cursor.take()
        assert cursor.exhausted
        with pytest.raises(LookupError):
            cursor.take()


class TestSequentialAllocator:
    @pytest.fixture
    def allocator(self, geometry):
        allocator = SequentialAllocator(geometry)
        allocator.install_block(0, 10)
        allocator.install_block(0, 11)
        return allocator

    def _drain(self, allocator, n, utilization=0.0):
        return [
            (allocation.block, allocation.address, allocation.is_leader)
            for allocation in (
                allocator.allocate(0, utilization) for _ in range(n)
            )
        ]

    def test_oldest_block_first_horizontal_within(self, allocator, geometry):
        order = self._drain(allocator, geometry.wls_per_block + 2)
        assert order[:5] == [
            (10, WLAddress(0, 0), True),
            (10, WLAddress(0, 1), False),
            (10, WLAddress(0, 2), False),
            (10, WLAddress(0, 3), False),
            (10, WLAddress(1, 0), True),
        ]
        assert {block for block, _address, _leader in order[:-2]} == {10}
        assert order[-2:] == [
            (11, WLAddress(0, 0), True),
            (11, WLAddress(0, 1), False),
        ]

    def test_utilization_ignored(self, geometry):
        orders = []
        for utilization in (0.0, 1.0):
            allocator = SequentialAllocator(geometry)
            allocator.install_block(0, 10)
            orders.append(self._drain(allocator, 9, utilization))
        assert orders[0] == orders[1]

    def test_exhausted_cursor_dropped(self, allocator, geometry):
        self._drain(allocator, geometry.wls_per_block)
        assert [cursor.block for cursor in allocator.cursors(0)] == [11]
        assert allocator.free_wls(0) == geometry.wls_per_block
        self._drain(allocator, geometry.wls_per_block)
        assert allocator.cursors(0) == []
        assert allocator.allocate(0, 0.0) is None

    def test_discard_block(self, allocator, geometry):
        allocator.allocate(0, 0.0)
        assert allocator.discard_block(0, 10)
        assert not allocator.discard_block(0, 10)
        assert allocator.allocate(0, 0.0).block == 11
        assert allocator.free_wls(0) == geometry.wls_per_block - 1

    def test_reset(self, allocator):
        allocator.install_block(1, 3)
        allocator.reset()
        assert allocator.cursors(0) == allocator.cursors(1) == []
        assert allocator.allocate(0, 0.0) is None

    def test_state_round_trip(self, allocator, geometry):
        allocator.install_block(2, 5)
        self._drain(allocator, 6)
        restored = SequentialAllocator(geometry)
        restored.load_state_dict(allocator.state_dict())
        assert restored.state_dict() == allocator.state_dict()
        n = allocator.free_wls(0)
        assert self._drain(restored, n) == self._drain(allocator, n)
        assert restored.allocate(0, 0.0) is allocator.allocate(0, 0.0) is None


class TestWLAllocationManager:
    @pytest.fixture
    def wam(self, geometry):
        manager = WLAllocationManager(geometry, mu_threshold=0.9)
        manager.install_block(0, 10)
        manager.install_block(0, 11)
        return manager

    def test_low_utilization_prefers_leaders(self, wam):
        allocation = wam.allocate(0, utilization=0.3)
        assert allocation.is_leader

    def test_high_utilization_prefers_followers(self, wam):
        wam.allocate(0, utilization=0.3)  # program one leader first
        allocation = wam.allocate(0, utilization=0.95)
        assert not allocation.is_leader

    def test_high_utilization_without_followers_takes_leader(self, wam):
        allocation = wam.allocate(0, utilization=0.95)
        assert allocation.is_leader

    def test_low_utilization_skips_free_followers(self, wam):
        """Fig. 16 case 1: leaders are used even when followers of lower
        h-layers remain free."""
        wam.allocate(0, utilization=0.3)
        allocation = wam.allocate(0, utilization=0.3)
        assert allocation.is_leader
        assert allocation.address.layer == 1

    def test_allocation_counters(self, wam):
        wam.allocate(0, utilization=0.3)
        wam.allocate(0, utilization=0.95)
        assert wam.leader_allocations == 1
        assert wam.follower_allocations == 1

    def test_exhausted_blocks_removed(self, wam, geometry):
        total = 2 * geometry.wls_per_block
        for _ in range(total):
            assert wam.allocate(0, utilization=0.95) is not None
        assert wam.allocate(0, utilization=0.95) is None
        assert wam.cursors(0) == []

    def test_free_wls(self, wam, geometry):
        assert wam.free_wls(0) == 2 * geometry.wls_per_block

    def test_validation(self, geometry):
        with pytest.raises(ValueError):
            WLAllocationManager(geometry, mu_threshold=0.0)


@given(
    choices=st.lists(st.booleans(), min_size=1, max_size=200),
)
def test_cursor_never_double_allocates_property(choices):
    """Under any preference sequence, the MOS cursor hands out each WL at
    most once and followers always follow their layer's leader."""
    geometry = BlockGeometry(n_layers=5, wls_per_layer=4)
    cursor = ActiveBlockCursor(0, geometry)
    seen = set()
    led = set()
    for prefer_follower in choices:
        if cursor.exhausted:
            break
        allocation = cursor.take(prefer_follower)
        key = allocation.address.as_tuple()
        assert key not in seen
        seen.add(key)
        if allocation.is_leader:
            led.add(allocation.address.layer)
        else:
            assert allocation.address.layer in led
