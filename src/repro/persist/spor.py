"""Sudden-power-off (SPOR) injection and FTL recovery harness.

The SPOR model (see docs/PERSISTENCE.md):

- Power is cut at ``campaign.spor_at_us`` simulated microseconds, where
  phase 1's :func:`~repro.ssd.host.replay` stops.  Every
  volatile structure dies with it: the write buffer (staged and pending
  host writes), the FTL's mapping tables, block lifecycle state, GC
  progress, and all queued events.
- The media survives: whatever the chips had *programmed* by the cut is
  still there, including per-page OOB records ``(lpn, seq)`` written
  alongside the data (``SSDConfig.store_oob``).  A program whose die
  service had started is modeled as fully persisted -- it carries an
  older sequence number than any post-recovery rewrite, so it can never
  shadow newer data.
- The durability contract is *acked implies durable*: a host write's
  completion is only delivered at flash-program completion, so every
  acked write is on media with its OOB record.  Unacked writes are the
  *lost window*; a real host would replay them from its own journal,
  and the harness does exactly that, in issue order, before any
  post-recovery reads.

Recovery is :meth:`repro.ftl.base.BaseFTL.spor_recover`: scan every
chip's OOB records, keep the highest-sequence copy per LPN, seal every
partially-programmed block FULL, and reset the volatile allocators.
Verification is end-to-end: the phase-2 oracle is seeded with the
*complete* phase-1 shadow store, so any read of pre-cut acked data that
returns a stale or lost copy raises immediately; a final deep audit
(:meth:`PageMapper.audit` included) checks the rebuilt structures.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Union

from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads import build_workload
from repro.workloads.base import Trace


@dataclass
class SporReport:
    """What one SPOR campaign did and proved."""

    spor_at_us: float
    #: host requests issued / completed (acked) before the cut
    issued_before: int
    completed_before: int
    #: unacked writes replayed after recovery (the lost window)
    lost_writes: int
    #: unacked reads dropped at the cut (no durability semantics)
    dropped_reads: int
    #: requests never issued before the cut, run after recovery
    remaining: int
    #: summary dict returned by ``spor_recover()``
    recovery: dict = field(default_factory=dict)
    #: mapper audit finding after the full post-recovery run (None = clean)
    audit: Optional[dict] = None
    #: invariant-checker report of the post-recovery phase
    check: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """Zero violations, zero stale reads, clean mapper audit."""
        return self.audit is None and self.check.get("violations", 0) == 0

    def to_dict(self) -> dict:
        return {**asdict(self), "clean": self.clean}


def run_spor_campaign(
    config: SSDConfig,
    workload: Union[str, Trace],
    ftl: str = "cube",
    *,
    queue_depth: int = 32,
    prefill: float = 0.9,
    n_requests: int = 4000,
    seed: int = 7,
    check="on",
    **ftl_kwargs,
) -> SporReport:
    """Run a workload, cut power at ``config.faults.spor_at_us``,
    recover, and verify the recovered device end-to-end.

    ``store_oob`` and ``store_tags`` are forced on (recovery needs the
    OOB records, the oracle needs the tags), so page data carries
    per-write sequence numbers -- this harness verifies durability, not
    the performance of the plain datapath.
    """
    from repro.check import InvariantChecker, parse_check_level

    campaign = config.faults
    if campaign is None or campaign.spor_at_us is None:
        raise ValueError(
            "run_spor_campaign needs a fault campaign with spor_at_us set "
            "(e.g. get_campaign('spor'))"
        )
    spor_at_us = float(campaign.spor_at_us)
    check_config = parse_check_level(check or "on")
    sim_config = replace(config, store_oob=True, store_tags=True)
    if isinstance(workload, str):
        trace = build_workload(
            workload, sim_config.logical_pages, n_requests, seed=seed
        )
    else:
        trace = workload

    def build(phase: str) -> SSDSimulation:
        """A fresh simulation under its own checker."""
        checker = InvariantChecker(check_config)
        checker.context.update(
            ftl=ftl, workload=trace.name, seed=seed, phase=phase
        )
        return SSDSimulation(
            sim_config, ftl=ftl, checker=checker, **ftl_kwargs
        )

    # -- phase 1: replay to the cut ------------------------------------
    sim1 = build("pre-spor")
    if prefill > 0:
        sim1.prefill(prefill)
    cut = replay(sim1, trace, queue_depth=queue_depth, until_us=spor_at_us)

    # -- the cut: volatile state dies, media and shadow survive --------
    # closed-loop replay issues in trace order and queues no request
    lost = cut.unfinished
    lost_writes = [request for request in lost if not request.is_read]
    issued_before = cut.completed_requests + len(lost)
    media = [chip.state_dict() for chip in sim1.controller.chips]
    shadow = sim1.checker.oracle.shadow.state_dict()
    remaining = trace.requests[issued_before:]

    # -- phase 2: fresh controller, recover, replay, continue ----------
    sim2 = build("post-spor")
    # no prefill: the media state below IS the device content
    for chip, chip_state in zip(sim2.controller.chips, media):
        chip.load_state_dict(chip_state)
    # the oracle keeps the complete pre-cut expectation: every acked
    # write must still be served correctly by the recovered device
    sim2.checker.oracle.shadow.load_state_dict(shadow)
    recovery = sim2.ftl.spor_recover()
    # the lost window first, in issue order, then the rest of the trace
    for requests in (lost_writes, remaining):
        if requests:
            rest = Trace(trace.name, trace.logical_pages, requests)
            replay(sim2, rest, queue_depth=queue_depth)

    audit = sim2.ftl.mapper.audit()
    report = sim2.checker.finalize()
    return SporReport(
        spor_at_us=spor_at_us,
        issued_before=issued_before,
        completed_before=cut.completed_requests,
        lost_writes=len(lost_writes),
        dropped_reads=len(lost) - len(lost_writes),
        remaining=len(remaining),
        recovery=recovery,
        audit=audit,
        check=report,
    )
