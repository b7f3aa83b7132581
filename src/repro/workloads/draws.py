"""Scalar draws at NumPy's values without NumPy's per-call cost.

A generator loop that asks ``rng.random()`` and ``rng.integers(low,
high)`` once or twice per request pays about 1 and 3 microseconds a
call in NumPy's argument handling, more than the simulator spends on
the request itself.  :class:`ScalarDraws` serves the same two calls
from blocks of the generator's raw PCG64 output, applying the
arithmetic NumPy's ``Generator`` applies to it:

- ``random()`` is ``(next64 >> 11) * 2**-53``;
- a 32-bit draw returns the held upper half of the last 64-bit output
  when there is one, and otherwise takes a new output, returns its low
  32 bits and holds the high 32 (PCG64's ``next_uint32``);
  ``random()`` and 64-bit draws leave the held half alone;
- ``integers(low, high)`` with ``r = high - low - 1`` returns ``low``
  without a draw when ``r == 0``, runs Lemire's method on 32-bit draws
  when ``r < 2**32 - 1`` (``m = u32 * (r + 1)``; when the low word of
  ``m`` is below ``r + 1``, redraw while it is below
  ``(2**32 - 1 - r) % (r + 1)``; return ``low + (m >> 32)``), returns
  ``low + u32`` when ``r == 2**32 - 1``, and does the same on 64-bit
  draws for wider spans (``low + next64`` when ``r == 2**64 - 1``).

So a loop that swaps its ``rng`` calls for a reader's produces exactly
the stream it produced before.  The reader depends only on PCG64's raw
output, which NumPy keeps fixed across releases (NEP 19), not on the
algorithms of ``Generator`` methods, which NumPy may change.

The reader reads ahead: once it exists, nothing else may draw from its
generator.  Vector draws (a Zipf sample, a permutation) belong before
it is made; it takes over a 32-bit half the generator still holds.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

#: raw 64-bit outputs read from the bit generator at a time
BLOCK = 2048

_MASK32 = 0xFFFFFFFF
_SPAN32 = 1 << 32
_SPAN64 = 1 << 64
_MASK64 = _SPAN64 - 1
#: int64 bounds of ``integers``: ``low >= _LOW`` and ``high <= _HIGH``
_LOW = -(1 << 63)
_HIGH = 1 << 63
_DOUBLE = 1.0 / 9007199254740992.0


class ScalarDraws:
    """``random()`` and ``integers(low, high)`` of a PCG64 ``Generator``,
    equal to the generator's own scalar calls, served from raw blocks."""

    __slots__ = ("_rng", "_next64", "_held")

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        state = bit_generator.state
        if state["bit_generator"] != "PCG64":
            raise TypeError(
                "ScalarDraws reproduces PCG64 output (default_rng's bit "
                f"generator); got {state['bit_generator']}"
            )
        raw = bit_generator.random_raw
        self._rng = rng
        self._next64 = chain.from_iterable(
            iter(lambda: raw(BLOCK).tolist(), None)
        ).__next__
        self._held = state["uinteger"] if state["has_uint32"] else None

    def random(self) -> float:
        """A float in [0, 1), as ``Generator.random()``."""
        return (self._next64() >> 11) * _DOUBLE

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high), as ``Generator.integers(low, high)``."""
        span = high - low
        if (
            type(span) is int
            and 1 < span < _SPAN32
            and low >= _LOW
            and high <= _HIGH
        ):
            held = self._held
            if held is None:
                x = self._next64()
                self._held = x >> 32
                m = (x & _MASK32) * span
            else:
                self._held = None
                m = held * span
            if m & _MASK32 < span:
                threshold = (_SPAN32 - span) % span
                while m & _MASK32 < threshold:
                    m = self._uint32() * span
            return low + (m >> 32)
        return self._integers_rare(low, high)

    def _uint32(self) -> int:
        held = self._held
        if held is None:
            x = self._next64()
            self._held = x >> 32
            return x & _MASK32
        self._held = None
        return held

    def _integers_rare(self, low, high) -> int:
        """``integers`` off its common path: non-int bounds, an empty or
        out-of-range span (NumPy raises its own error, drawing nothing),
        a one-value span, or a span of 2**32 or more."""
        if type(low) is not int or type(high) is not int:
            # NumPy reads each bound as int(np.asarray(bound))
            return self.integers(int(low), int(high))
        span = high - low
        if span < 1 or low < _LOW or high > _HIGH:
            self._rng.integers(low, high)
            raise AssertionError(f"NumPy accepted integers({low}, {high})")
        if span == 1:
            return low
        if span == _SPAN32:
            return low + self._uint32()
        if span == _SPAN64:
            return low + self._next64()
        m = self._next64() * span
        if m & _MASK64 < span:
            threshold = (_SPAN64 - span) % span
            while m & _MASK64 < threshold:
                m = self._next64() * span
        return low + (m >> 64)


__all__ = ["BLOCK", "ScalarDraws"]
