"""Building-block trace generators: uniform, sequential, Zipf, mixtures."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.workloads.base import READ, WRITE, Columns, Trace, trace_generator


class ZipfSampler:
    """Bounded Zipf(theta) sampler over ``n`` items with rank scrambling.

    Rank *k* (1-based) has probability proportional to ``1 / k**theta``;
    ranks are mapped through a pseudo-random permutation so hot pages are
    scattered across the address space (as YCSB does).
    """

    def __init__(self, n: int, theta: float, rng: np.random.Generator) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if theta <= 0:
            raise ValueError("theta must be positive")
        self.n = n
        self.theta = theta
        weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** theta
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        self._permutation = rng.permutation(n)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.lookup(rng.random(size))

    def lookup(self, uniforms) -> np.ndarray:
        """The items that uniforms in [0, 1) pick."""
        ranks = np.searchsorted(self._cdf, uniforms, side="left")
        return self._permutation[ranks]


@trace_generator
def uniform_random_trace(
    logical_pages: int,
    n_requests: int,
    read_fraction: float = 0.5,
    n_pages: int = 1,
    seed: int = 1,
    name: str = "uniform",
    region: Optional[Sequence[int]] = None,
) -> Columns:
    """Uniformly random single-size requests over a region of the space."""
    rng = np.random.default_rng(seed)
    lo, hi = region if region is not None else (0, logical_pages)
    span = hi - lo - n_pages
    if span < 1:
        raise ValueError("region too small for the request size")
    reads = (rng.random(n_requests) < read_fraction).tolist()
    lpns = (lo + rng.integers(0, span, n_requests)).tolist()
    return Columns(
        name,
        logical_pages,
        [READ if is_read else WRITE for is_read in reads],
        [int(lpn) for lpn in lpns],
        [n_pages] * len(lpns),
    )


@trace_generator
def sequential_trace(
    logical_pages: int,
    n_requests: int,
    op: str = WRITE,
    n_pages: int = 4,
    seed: int = 1,
    name: str = "sequential",
    start: int = 0,
) -> Columns:
    """Sequential stream wrapping around the logical space."""
    stream = Columns(name, logical_pages)
    lpn = start
    for _ in range(n_requests):
        if lpn + n_pages > logical_pages:
            lpn = 0
        stream.add(op, lpn, n_pages)
        lpn += n_pages
    return stream


@trace_generator
def zipf_trace(
    logical_pages: int,
    n_requests: int,
    read_fraction: float = 0.5,
    theta: float = 0.99,
    n_pages: int = 1,
    seed: int = 1,
    name: str = "zipf",
) -> Columns:
    """Zipf-skewed random requests (YCSB-style hot set)."""
    rng = np.random.default_rng(seed)
    sampler = ZipfSampler(max(1, logical_pages - n_pages), theta, rng)
    lpns = sampler.sample(rng, n_requests).tolist()
    reads = (rng.random(n_requests) < read_fraction).tolist()
    return Columns(
        name,
        logical_pages,
        [READ if is_read else WRITE for is_read in reads],
        lpns,
        [n_pages] * len(lpns),
    )


def mixed_trace(traces: Sequence[Trace], weights: Sequence[float], seed: int = 1,
                name: str = "mixed") -> Trace:
    """Probabilistic interleaving of several traces (consumed in order)."""
    if len(traces) != len(weights):
        raise ValueError("traces and weights must align")
    if not traces:
        raise ValueError("need at least one trace")
    logical_pages = traces[0].logical_pages
    if any(t.logical_pages != logical_pages for t in traces):
        raise ValueError("traces must share a logical space")
    rng = np.random.default_rng(seed)
    probabilities = np.asarray(weights, dtype=float)
    probabilities /= probabilities.sum()
    cursors = [0] * len(traces)
    out = Trace(name, logical_pages)
    total = sum(len(t) for t in traces)
    for _ in range(total):
        live = [i for i, t in enumerate(traces) if cursors[i] < len(t)]
        if not live:
            break
        p = probabilities[live]
        p = p / p.sum()
        choice = int(rng.choice(live, p=p))
        out.append(traces[choice][cursors[choice]])
        cursors[choice] += 1
    return out
