"""Filebench-personality workload models (Section 6.1 of the paper).

The paper drives its SSD with four Filebench personalities.  Each
generator below synthesizes the personality's characteristic I/O stream
from its published description:

- **Mail** (varmail): many small files with frequent fsyncs -- a roughly
  half-and-half mix of small random reads and small synchronous writes
  over a modest working set.
- **Web** (webserver): overwhelmingly reads of popular files (Zipf), with
  a thin append-only access log.
- **Proxy**: a proxy cache -- read-mostly but with a meaningful stream of
  cache-fill writes; accesses are nearly uniform (low re-reference
  locality beyond the cache), which maximizes read-retry exposure on
  aged devices (why cubeFTL's largest end-of-life gain appears here,
  Fig. 17(c)).
- **OLTP**: a database backend -- the most write-intensive of the four,
  dominated by small random writes arriving in bursts (log flushes and
  checkpoint storms), plus random point reads.  Burst arrivals are what
  exercise the WAM's adaptive allocation (why cubeFTL's largest fresh
  gain appears here, Fig. 17(a)).
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import READ, WRITE, Columns, trace_generator
from repro.workloads.draws import ScalarDraws
from repro.workloads.synthetic import ZipfSampler


@trace_generator
def mail_trace(logical_pages: int, n_requests: int, seed: int = 1) -> Columns:
    """Filebench varmail: ~55 % small sync writes, ~45 % small reads."""
    draws = ScalarDraws(np.random.default_rng(seed))
    random, integers = draws.random, draws.integers
    stream = Columns("Mail", logical_pages)
    add = stream.add
    working_set = max(16, int(logical_pages * 0.30))
    base = integers(0, max(1, logical_pages - working_set))
    for _ in range(n_requests):
        lpn = base + integers(0, working_set - 2)
        if random() < 0.55:
            # small mail file append + fsync
            add(WRITE, lpn, 1)
        else:
            # whole-file read: one or two pages
            add(READ, lpn, integers(1, 3))
    return stream


@trace_generator
def web_trace(logical_pages: int, n_requests: int, seed: int = 1) -> Columns:
    """Filebench webserver: ~92 % Zipf reads plus a sequential log."""
    rng = np.random.default_rng(seed)
    stream = Columns("Web", logical_pages)
    add = stream.add
    log_region = max(8, int(logical_pages * 0.02))
    file_region = logical_pages - log_region
    sampler = ZipfSampler(max(1, file_region - 4), theta=0.9, rng=rng)
    log_cursor = 0
    reads = sampler.sample(rng, n_requests).tolist()
    draws = ScalarDraws(rng)
    random, integers = draws.random, draws.integers
    for i in range(n_requests):
        if random() < 0.92:
            # whole-file reads: 16 KB - 64 KB
            add(READ, reads[i], integers(1, 5))
        else:
            add(WRITE, file_region + log_cursor, 1)
            log_cursor = (log_cursor + 1) % (log_region - 1)
    return stream


@trace_generator
def proxy_trace(logical_pages: int, n_requests: int, seed: int = 1) -> Columns:
    """Proxy cache: ~75 % near-uniform reads, ~25 % cache-fill writes."""
    draws = ScalarDraws(np.random.default_rng(seed))
    random, integers = draws.random, draws.integers
    stream = Columns("Proxy", logical_pages)
    add = stream.add
    for _ in range(n_requests):
        if random() < 0.75:
            # whole cached objects: 16 KB - 128 KB (1-8 pages)
            n_pages = integers(1, 9)
            add(READ, integers(0, logical_pages - n_pages), n_pages)
        else:
            # cache fill of a fetched object
            n_pages = integers(1, 5)
            add(WRITE, integers(0, logical_pages - n_pages), n_pages)
    return stream


@trace_generator
def oltp_trace(logical_pages: int, n_requests: int, seed: int = 1) -> Columns:
    """OLTP: ~70 % small random writes arriving in bursts, ~30 % reads.

    Writes come in runs of 8-32 consecutive requests (log flushes /
    checkpoint storms) so the write buffer periodically saturates and the
    WAM switches to follower WLs.
    """
    draws = ScalarDraws(np.random.default_rng(seed))
    random, integers = draws.random, draws.integers
    stream = Columns("OLTP", logical_pages)
    add = stream.add
    hot = max(16, int(logical_pages * 0.25))
    base = integers(0, max(1, logical_pages - hot))
    produced = 0
    while produced < n_requests:
        if random() < 0.70:
            burst = integers(8, 33)
            for _ in range(min(burst, n_requests - produced)):
                add(WRITE, base + integers(0, hot - 1), 1)
                produced += 1
        else:
            run = integers(2, 9)
            for _ in range(min(run, n_requests - produced)):
                add(READ, base + integers(0, hot - 1), 1)
                produced += 1
    return stream
