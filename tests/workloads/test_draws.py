"""ScalarDraws equals NumPy's scalar ``random()`` and ``integers()``.

Each check runs one ``default_rng`` through NumPy's own scalar calls
and a twin through a reader, with the same seed and the same draws
made before the reader exists, and compares every value.  A failure
here names a NumPy whose ``Generator`` arithmetic the reader no longer
matches; the trace golden (``test_trace_digest.py``) decides what the
reader must produce.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import draws
from repro.workloads.draws import ScalarDraws

#: spans (high - low) on every path: no draw, Lemire on 32 bits with
#: little and much rejection, the raw 32-bit draw, Lemire on 64 bits,
#: and the raw 64-bit draw
SPANS = (
    1, 2, 4, 5, 7, 25, 1000, 12345, 2**31 + 1, 3 * 2**30 + 7,
    2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**63, 2**64 - 1, 2**64,
)
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def _twins(seed, prefix=()):
    """Two generators of one seed, each after the same prefix draws."""
    pair = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        for draw in prefix:
            draw(rng)
        pair.append(rng)
    return pair


def _low_for(span, pick):
    """A ``low`` that keeps ``[low, low + span)`` inside int64."""
    return int(pick.integers(INT64_MIN, INT64_MAX - span + 2))


def _run(calls, numpy_rng, reader):
    """Each call's value from NumPy and from the reader."""
    for call in calls:
        if call is None:
            want, got = numpy_rng.random(), reader.random()
            assert type(got) is float
        else:
            low, high = call
            want, got = numpy_rng.integers(low, high), reader.integers(low, high)
            assert type(got) is int
        assert got == want, (call, got, want)


@pytest.mark.parametrize("seed", range(12))
def test_interleaved_draws_equal_numpy(seed):
    pick = np.random.default_rng(1000 + seed)
    calls = []
    for _ in range(3000):
        k = int(pick.integers(0, len(SPANS) + 1))
        if k == len(SPANS):
            calls.append(None)
        else:
            low = _low_for(SPANS[k], pick)
            calls.append((low, low + SPANS[k]))
    numpy_rng, reader_rng = _twins(seed)
    _run(calls, numpy_rng, ScalarDraws(reader_rng))


@pytest.mark.parametrize(
    "prefix",
    [
        # a 32-bit half held when the reader is made
        (lambda rng: rng.integers(0, 5),),
        # vector draws, then a held half again
        (lambda rng: rng.random(7), lambda rng: rng.permutation(100)),
        (lambda rng: rng.integers(0, 5), lambda rng: rng.integers(0, 5)),
        (lambda rng: rng.exponential(3.0, 11), lambda rng: rng.integers(1, 9)),
    ],
)
def test_reader_takes_over_the_generator_state(prefix):
    for seed in range(5):
        numpy_rng, reader_rng = _twins(seed, prefix)
        calls = [(1, 5), None, (0, 2**40), (0, 7), None, (3, 4), (0, 25)] * 50
        _run(calls, numpy_rng, ScalarDraws(reader_rng))


def test_blocks_join_seamlessly(monkeypatch):
    """A 32-bit half held across a block boundary, with a tiny block."""
    monkeypatch.setattr(draws, "BLOCK", 3)
    numpy_rng, reader_rng = _twins(3)
    calls = [(0, 5)] * 7 + [None, (0, 2**40)] * 3 + [(0, 9)] * 11
    _run(calls * 5, numpy_rng, ScalarDraws(reader_rng))


def test_negative_low_and_numpy_int_bounds():
    numpy_rng, reader_rng = _twins(9)
    reader = ScalarDraws(reader_rng)
    for low, high in [
        (-5, 3), (-(2**40), 2**40), (INT64_MIN, INT64_MIN + 7),
        (INT64_MIN, INT64_MAX + 1), (np.int64(-3), np.int64(40)),
        (np.int64(0), 5), (2, np.uint32(9)), (np.int32(-8), np.int64(2**35)),
    ] * 20:
        want, got = numpy_rng.integers(low, high), reader.integers(low, high)
        assert got == want and type(got) is int


def test_one_value_span_draws_nothing():
    numpy_rng, reader_rng = _twins(4)
    reader = ScalarDraws(reader_rng)
    assert reader.integers(0, 1) == numpy_rng.integers(0, 1) == 0
    assert reader.integers(-7, -6) == -7
    assert reader.random() == numpy_rng.random()


@pytest.mark.parametrize(
    "low, high",
    [(0, 0), (5, 3), (0, -1), (INT64_MIN - 1, 0), (0, INT64_MAX + 2), (0, 2**65)],
)
def test_invalid_bounds_raise_numpys_error(low, high):
    with pytest.raises(ValueError) as want:
        np.random.default_rng(1).integers(low, high)
    with pytest.raises(ValueError) as got:
        ScalarDraws(np.random.default_rng(1)).integers(low, high)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64]
)
def test_other_bit_generators_are_refused(bit_generator):
    with pytest.raises(TypeError, match="PCG64"):
        ScalarDraws(np.random.Generator(bit_generator(1)))


_calls = st.lists(
    st.one_of(
        st.none(),
        st.tuples(
            st.integers(-(2**62), 2**62),
            st.one_of(st.sampled_from(SPANS[:-4]), st.integers(1, 2**62)),
        ).map(lambda pair: (pair[0], pair[0] + pair[1])),
    ),
    max_size=400,
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    held=st.booleans(),
    vector=st.integers(0, 5),
    calls=_calls,
)
def test_any_call_sequence_equals_numpy(seed, held, vector, calls):
    prefix = [lambda rng: rng.random(vector)]
    if held:
        prefix.append(lambda rng: rng.integers(0, 3))
    numpy_rng, reader_rng = _twins(seed, prefix)
    _run(calls, numpy_rng, ScalarDraws(reader_rng))
