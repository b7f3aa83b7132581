"""The premixed-prefix identity of the device model's hash chain.

Every per-operation draw folds a constant location prefix before its
per-operation nonce, and the simulator premixes that prefix once
(:func:`hash_state`, :func:`hash_fold`, the fast-path tables'
:func:`hash_fold_array`).  A premixed prefix continued by its tail must
be the full :func:`hash_unit` of all the keys, bit for bit, for any
keys: negative ones and ones of 2**64 or more are masked the same way
on both sides.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nand.reliability import hash_fold, hash_state, hash_unit, hash_unit_tail
from repro.nand.tables import hash_fold_array

#: any Python int key, well beyond the 64-bit mask on both sides
anykey = st.integers(min_value=-(2**70), max_value=2**70)
keys = st.lists(anykey, max_size=5)


@settings(derandomize=True, max_examples=300)
@given(seed=anykey, prefix=keys, middle=keys, tail=keys)
def test_premixed_prefix_plus_tail_is_the_full_hash(seed, prefix, middle, tail):
    full = hash_unit(seed, *prefix, *middle, *tail)
    state = hash_state(seed, *prefix)
    assert hash_unit_tail(state, *middle, *tail) == full
    folded = hash_fold(state, *middle)
    assert hash_unit_tail(folded, *tail) == full
    assert hash_fold(folded, *tail) == hash_state(seed, *prefix, *middle, *tail)


@settings(derandomize=True, max_examples=100)
@given(seed=anykey, prefix=keys, lanes=st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=8
), tail=keys)
def test_vectorized_fold_matches_scalar_fold_per_lane(seed, prefix, lanes, tail):
    state = hash_state(seed)
    # scalar keys only: the same Python int as the scalar fold
    assert hash_fold_array(state, *prefix) == hash_fold(state, *prefix)
    grid = hash_fold_array(state, *prefix, np.array(lanes, dtype=np.uint64), *tail)
    for lane, key in enumerate(lanes):
        expected = hash_fold(state, *prefix, key, *tail)
        assert int(grid[lane]) == expected
        assert hash_unit_tail(int(grid[lane])) == hash_unit(seed, *prefix, key, *tail)
