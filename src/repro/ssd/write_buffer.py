"""The SSD write buffer.

Host writes land here first; the FTL drains the buffer into the flash in
WL-sized groups.  Its utilization ``mu`` (occupied slots over capacity,
*including* pages already dispatched but not yet durable) is the signal
the WAM uses to detect write-bandwidth pressure (Section 5.2).

The buffer write-coalesces: a second write to a buffered-but-not-yet-
dispatched LPN replaces the staged data in place (no extra slot) and both
host requests complete with the single flash program.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class BufferEntry:
    """One staged logical page and the host requests waiting on it.

    ``version`` is the LPN's global write sequence number at staging
    time; the FTL only binds the mapping for an entry that is still the
    LPN's newest write (flushes to different chips can complete out of
    order).
    """

    lpn: int
    data: object = None
    waiters: List[object] = field(default_factory=list)
    version: int = 0
    #: FTL-global write sequence number, stamped at admission when SPOR
    #: support is on; programmed into the page's OOB record so recovery
    #: can order the copies of an LPN (0 = not stamped)
    seq: int = 0


class WriteBuffer:
    """Fixed-capacity staging buffer with coalescing and in-flight
    tracking."""

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 1:
            raise ValueError("capacity_pages must be >= 1")
        self.capacity = capacity_pages
        self._staged: "OrderedDict[int, BufferEntry]" = OrderedDict()
        # per-LPN in-flight copies keyed by write version.  Versions are
        # strictly increasing per LPN and dict order is insertion order,
        # so the last value is always the freshest copy -- and removal
        # by version in :meth:`complete` is O(1) instead of a list scan.
        self._inflight: Dict[int, Dict[int, BufferEntry]] = {}
        self._inflight_count = 0
        # write sequence number per LPN with a staged or in-flight copy.
        # Entries are dropped as soon as the last copy of the LPN leaves
        # the buffer (the mapping is bound by then), so the dict is
        # bounded by the buffer capacity, not by the touched LPN space.
        self._versions: Dict[int, int] = {}
        self.coalesced_writes = 0
        #: high-water mark of :attr:`occupancy` (burst-absorption signal
        #: for the metrics timeline; never read by the simulation)
        self.peak_occupancy = 0

    # ------------------------------------------------------------------

    @property
    def staged_pages(self) -> int:
        return len(self._staged)

    @property
    def inflight_pages(self) -> int:
        return self._inflight_count

    @property
    def occupancy(self) -> int:
        """Slots in use: staged plus dispatched-but-not-durable."""
        return self.staged_pages + self.inflight_pages

    @property
    def utilization(self) -> float:
        """The WAM's mu signal."""
        return self.occupancy / self.capacity

    @property
    def free_slots(self) -> int:
        return self.capacity - self.occupancy

    def can_admit(self, lpn: int) -> bool:
        """Whether a write to ``lpn`` can enter now (coalescing is always
        possible; a fresh LPN needs a free slot)."""
        return lpn in self._staged or self.free_slots > 0

    # ------------------------------------------------------------------

    def admit(
        self, lpn: int, data: object, waiter: Optional[object], seq: int = 0
    ) -> bool:
        """Stage a host write.  Returns True if it coalesced into an
        existing staged page."""
        version = self._versions.get(lpn, 0) + 1
        self._versions[lpn] = version
        entry = self._staged.get(lpn)
        if entry is not None:
            entry.data = data
            entry.version = version
            entry.seq = seq
            if waiter is not None:
                entry.waiters.append(waiter)
            self.coalesced_writes += 1
            return True
        if self.free_slots <= 0:
            raise RuntimeError("write buffer full")
        entry = BufferEntry(lpn=lpn, data=data, version=version, seq=seq)
        if waiter is not None:
            entry.waiters.append(waiter)
        self._staged[lpn] = entry
        if self.occupancy > self.peak_occupancy:
            self.peak_occupancy = self.occupancy
        return False

    def pop_group(self, max_pages: int) -> List[BufferEntry]:
        """Dequeue up to ``max_pages`` oldest staged pages for a WL
        program; they move to the in-flight set until completed."""
        if max_pages < 1:
            raise ValueError("max_pages must be >= 1")
        group: List[BufferEntry] = []
        while self._staged and len(group) < max_pages:
            _, entry = self._staged.popitem(last=False)
            self._inflight.setdefault(entry.lpn, {})[entry.version] = entry
            self._inflight_count += 1
            group.append(entry)
        return group

    def complete(self, entries: List[BufferEntry]) -> None:
        """Mark dispatched pages durable, freeing their slots.

        An LPN whose last buffered copy just left (nothing staged, no
        other version in flight) also drops its version entry: the FTL
        binds the mapping before completing, so the sequence number has
        no consumer left and keeping it would leak memory over the whole
        touched-LPN space on long runs."""
        for entry in entries:
            lpn = entry.lpn
            bucket = self._inflight.get(lpn)
            if not bucket or bucket.get(entry.version) is not entry:
                raise ValueError(f"LPN {lpn} was not in flight")
            del bucket[entry.version]
            self._inflight_count -= 1
            if not bucket:
                del self._inflight[lpn]
                if lpn not in self._staged:
                    del self._versions[lpn]

    # ------------------------------------------------------------------
    # read coherence
    # ------------------------------------------------------------------

    def contains(self, lpn: int) -> bool:
        """Whether a read of ``lpn`` must be served from the buffer."""
        return lpn in self._staged or lpn in self._inflight

    def latest_data(self, lpn: int) -> object:
        """Freshest staged copy of an LPN (staged beats in-flight)."""
        if lpn in self._staged:
            return self._staged[lpn].data
        bucket = self._inflight.get(lpn)
        if bucket:
            # insertion order == version order, so the last entry wins
            return next(reversed(bucket.values())).data
        raise KeyError(f"LPN {lpn} not buffered")

    def latest_version(self, lpn: int) -> int:
        """Newest write sequence number seen for an LPN (0 = never
        written through this buffer)."""
        return self._versions.get(lpn, 0)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable buffer state at a quiescent barrier.

        At a barrier nothing is in flight and no staged entry has host
        waiters (waiters are live request objects -- only waiter-less
        scrub re-admissions may legally remain staged), so the state is
        the ordered staged pages plus the version table and counters.
        """
        if self._inflight:
            raise RuntimeError(
                f"buffer not quiescent: {self._inflight_count} pages in flight"
            )
        for entry in self._staged.values():
            if entry.waiters:
                raise RuntimeError(
                    f"staged LPN {entry.lpn} still has host waiters"
                )
        return {
            "staged": [
                (entry.lpn, entry.data, entry.version, entry.seq)
                for entry in self._staged.values()
            ],
            "versions": dict(self._versions),
            "coalesced_writes": self.coalesced_writes,
            "peak_occupancy": self.peak_occupancy,
        }

    def load_state_dict(self, state: dict) -> None:
        if self._staged or self._inflight:
            raise RuntimeError("cannot restore state onto a non-empty buffer")
        for lpn, data, version, seq in state["staged"]:
            self._staged[lpn] = BufferEntry(
                lpn=lpn, data=data, version=version, seq=seq
            )
        self._versions = dict(state["versions"])
        self.coalesced_writes = state["coalesced_writes"]
        self.peak_occupancy = state["peak_occupancy"]

    # ------------------------------------------------------------------
    # invariants (runtime checker + property-based tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise ValueError if version accounting drifted.

        Checked: the in-flight count matches the buckets; staged entries
        carry their LPN's newest version; in-flight bucket versions are
        strictly increasing and never newer than the version table; the
        version table holds *exactly* the LPNs with a buffered copy
        (bounded -- no leak over the touched-LPN space); occupancy never
        exceeds capacity.
        """
        actual_inflight = sum(len(b) for b in self._inflight.values())
        if actual_inflight != self._inflight_count:
            raise ValueError(
                f"in-flight count {self._inflight_count} but buckets hold "
                f"{actual_inflight} entries"
            )
        for lpn, bucket in self._inflight.items():
            if not bucket:
                raise ValueError(f"LPN {lpn} has an empty in-flight bucket")
            versions = list(bucket)
            if versions != sorted(versions) or len(set(versions)) != len(versions):
                raise ValueError(
                    f"LPN {lpn} in-flight versions {versions} are not "
                    "strictly increasing"
                )
            newest = self._versions.get(lpn)
            if newest is None or versions[-1] > newest:
                raise ValueError(
                    f"LPN {lpn} has in-flight version {versions[-1]} but "
                    f"version table says {newest}"
                )
            for version, entry in bucket.items():
                if entry.lpn != lpn or entry.version != version:
                    raise ValueError(
                        f"in-flight entry under LPN {lpn} v{version} "
                        f"records lpn={entry.lpn} v{entry.version}"
                    )
        for lpn, entry in self._staged.items():
            if entry.lpn != lpn:
                raise ValueError(
                    f"staged entry under LPN {lpn} records lpn={entry.lpn}"
                )
            if entry.version != self._versions.get(lpn):
                raise ValueError(
                    f"staged LPN {lpn} at version {entry.version} but "
                    f"version table says {self._versions.get(lpn)}"
                )
        buffered = set(self._staged) | set(self._inflight)
        if set(self._versions) != buffered:
            stale = set(self._versions) - buffered
            missing = buffered - set(self._versions)
            raise ValueError(
                f"version table drifted: stale LPNs {sorted(stale)}, "
                f"missing LPNs {sorted(missing)}"
            )
        if self.occupancy > self.capacity:
            raise ValueError(
                f"occupancy {self.occupancy} exceeds capacity {self.capacity}"
            )
