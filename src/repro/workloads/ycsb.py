"""YCSB-A database workloads: Rocks (RocksDB) and Mongo (MongoDB).

The paper runs YCSB workload A -- the update-heavy 50/50 read/update mix
-- against RocksDB and MongoDB and replays the resulting block-level I/O.
The two engines translate the same key-value operations into very
different I/O:

- **RocksDB** (LSM-tree): point reads hit SSTables (Zipf over the data
  set); updates append to the WAL and memtable, and periodically flush
  and compact -- long sequential write bursts of tens of pages.
- **MongoDB** (WiredTiger B-tree): point reads are similar, but updates
  are leaf-page writes -- small random overwrites -- plus journal
  appends.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import READ, WRITE, Columns, trace_generator
from repro.workloads.draws import ScalarDraws
from repro.workloads.synthetic import ZipfSampler


def _resolve(stream: Columns, sampler: ZipfSampler, at: list, uniforms: list) -> None:
    """Set ``stream.lpns[at[k]]`` to the Zipf item of ``uniforms[k]``.

    No branch of the YCSB loops depends on which item a uniform picks,
    so the loops record the uniform and every lookup runs in one
    vectorized pass, making the comparisons one scalar sample makes.
    """
    lpns = stream.lpns
    for index, lpn in zip(at, sampler.lookup(uniforms).tolist()):
        lpns[index] = lpn


@trace_generator
def rocks_trace(logical_pages: int, n_requests: int, seed: int = 1) -> Columns:
    """RocksDB under YCSB-A: Zipf reads, WAL appends, compaction bursts."""
    rng = np.random.default_rng(seed)
    stream = Columns("Rocks", logical_pages)
    add = stream.add
    wal_region = max(8, int(logical_pages * 0.03))
    sst_region = logical_pages - wal_region
    sampler = ZipfSampler(max(1, sst_region - 4), theta=0.99, rng=rng)
    draws = ScalarDraws(rng)
    random, integers = draws.random, draws.integers
    # requests whose lpn is the Zipf item of a recorded uniform
    zipf_at, zipf_u = [], []
    wal_cursor = 0
    compaction_cursor = 0
    updates_since_flush = 0
    produced = 0
    while produced < n_requests:
        if random() < 0.5:
            zipf_at.append(produced)
            zipf_u.append(random())
            add(READ, 0, 1)
            produced += 1
        else:
            # WAL append for the update
            add(WRITE, sst_region + wal_cursor, 1)
            wal_cursor = (wal_cursor + 1) % (wal_region - 1)
            produced += 1
            updates_since_flush += 1
            # memtable flush + compaction: a burst of sequential writes
            if updates_since_flush >= 48 and produced < n_requests:
                updates_since_flush = 0
                burst_pages = integers(16, 65)
                span = max(1, sst_region - burst_pages - 1)
                start = compaction_cursor % span
                compaction_cursor += burst_pages
                chunk = 8
                for off in range(0, burst_pages, chunk):
                    pages = min(chunk, burst_pages - off)
                    add(WRITE, start + off, pages)
                    produced += 1
                    if produced >= n_requests:
                        break
    _resolve(stream, sampler, zipf_at, zipf_u)
    return stream


@trace_generator
def mongo_trace(logical_pages: int, n_requests: int, seed: int = 1) -> Columns:
    """MongoDB under YCSB-A: Zipf reads, leaf-page updates, journal."""
    rng = np.random.default_rng(seed)
    stream = Columns("Mongo", logical_pages)
    add = stream.add
    journal_region = max(8, int(logical_pages * 0.02))
    data_region = logical_pages - journal_region
    sampler = ZipfSampler(max(1, data_region - 4), theta=0.99, rng=rng)
    draws = ScalarDraws(rng)
    random, integers = draws.random, draws.integers
    # requests whose lpn is the Zipf item of a recorded uniform
    zipf_at, zipf_u = [], []
    journal_cursor = 0
    produced = 0
    while produced < n_requests:
        if random() < 0.5:
            zipf_at.append(produced)
            zipf_u.append(random())
            add(READ, 0, 1)
            produced += 1
        else:
            # leaf-page overwrite (1-2 pages) ...
            zipf_at.append(produced)
            zipf_u.append(random())
            add(WRITE, 0, integers(1, 3))
            produced += 1
            # ... plus a journal append every few updates
            if produced < n_requests and random() < 0.5:
                add(WRITE, data_region + journal_cursor, 1)
                journal_cursor = (journal_cursor + 1) % (journal_region - 1)
                produced += 1
    _resolve(stream, sampler, zipf_at, zipf_u)
    return stream
