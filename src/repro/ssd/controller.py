"""SSD controller and the trace-driven simulation front end.

:class:`SSDController` instantiates the hardware: one
:class:`~repro.nand.chip.NandChip` per die, one FIFO resource per die and
per channel, all sharing a single device model (reliability surface, ISPP
engine, retry model, ECC) so that every FTL sees the *same* silicon.

:class:`SSDSimulation` wires a controller to an FTL and optionally
prefills the drive (untimed); :func:`repro.ssd.host.replay` replays
traces through it, producing :class:`~repro.ssd.stats.SimulationStats`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.faults.injector import FaultInjector
from repro.nand.chip import NandChip
from repro.nand.ecc import EccEngine
from repro.nand.errors import ProgramFailError
from repro.nand.ispp import IsppEngine
from repro.nand.read_retry import ReadRetryModel
from repro.nand.reliability import ReliabilityModel
from repro.obs.log import get_logger, log_event
from repro.sim.engine import Engine
from repro.sim.resources import FifoResource
from repro.ssd.config import SSDConfig
from repro.workloads.base import IORequest

logger = get_logger(__name__)


class SimulationStalledError(RuntimeError):
    """The event queue drained while host requests were still pending."""


#: pending requests listed in a stall message before eliding the rest
_STALL_DETAIL_LIMIT = 8


def _stall_message(completed: int, pending: Dict[int, IORequest]) -> str:
    """Describe a stalled run: how many host requests never completed,
    and which (kind, LPN, length) they were -- the starting point of any
    deadlock diagnosis."""
    requests = sorted(pending.values(), key=lambda r: (r.lpn, r.n_pages))
    details = ", ".join(
        f"{'read' if request.is_read else 'write'}"
        f"(lpn={request.lpn}, n_pages={request.n_pages})"
        for request in requests[:_STALL_DETAIL_LIMIT]
    )
    if len(requests) > _STALL_DETAIL_LIMIT:
        details += f", ... {len(requests) - _STALL_DETAIL_LIMIT} more"
    return (
        f"{len(pending)} host requests never completed "
        f"({completed} done): {details}"
    )


class SSDController:
    """The hardware side: chips, dies, channels, and the clock."""

    def __init__(self, config: SSDConfig) -> None:
        self.config = config
        self.engine = Engine()
        #: request-lifecycle tracer (:class:`repro.obs.Tracer`); installed
        #: by :class:`SSDSimulation` before the FTL is built, None when
        #: tracing is disabled
        self.tracer = None
        #: runtime invariant checker
        #: (:class:`repro.check.InvariantChecker`); installed by
        #: :class:`SSDSimulation` before the FTL is built, None when
        #: checking is disabled
        self.checker = None
        geometry = config.geometry
        self.reliability = ReliabilityModel(geometry.block, seed=config.seed)
        self.ispp = IsppEngine(config.timing)
        self.retry_model = ReadRetryModel(self.reliability)
        self.ecc = EccEngine()
        # one injector shared by all chips and the FTL; None on
        # fault-free runs so no recovery path can activate
        self.faults: Optional[FaultInjector] = (
            FaultInjector(config.faults) if config.faults is not None else None
        )
        self.chips: List[NandChip] = []
        for chip_id in range(geometry.n_chips):
            chip = NandChip(
                chip_id=chip_id,
                n_blocks=geometry.blocks_per_chip,
                geometry=geometry.block,
                reliability=self.reliability,
                timing=config.timing,
                ispp=self.ispp,
                retry_model=self.retry_model,
                ecc=self.ecc,
                env_shift_prob=config.env_shift_prob,
                store_tags=config.store_tags,
                fault_injector=self.faults,
                store_oob=config.store_oob,
            )
            chip.set_baseline_aging(config.aging)
            self.chips.append(chip)
        self._chip_resources = [
            FifoResource(self.engine, name=f"chip{chip_id}")
            for chip_id in range(geometry.n_chips)
        ]
        self._bus_resources = [
            FifoResource(self.engine, name=f"bus{channel}")
            for channel in range(geometry.n_channels)
        ]
        #: the channel resource of each chip, by chip id
        self._bus_of_chip = [
            self._bus_resources[geometry.channel_of_chip(chip_id)]
            for chip_id in range(geometry.n_chips)
        ]

    @property
    def now(self) -> float:
        return self.engine.now

    def chip(self, chip_id: int) -> NandChip:
        return self.chips[chip_id]

    def chip_resource(self, chip_id: int) -> FifoResource:
        return self._chip_resources[chip_id]

    def bus_resource(self, chip_id: int) -> FifoResource:
        """The channel resource a chip is attached to."""
        if 0 <= chip_id < len(self._bus_of_chip):
            return self._bus_of_chip[chip_id]
        # out of range: the geometry raises its AddressError
        return self._bus_resources[self.config.geometry.channel_of_chip(chip_id)]


class SSDSimulation:
    """Front end: build an SSD and prefill it; :func:`repro.ssd.host.replay`
    replays traces through it."""

    def __init__(
        self,
        config: SSDConfig,
        ftl: str = "page",
        *,
        tracer=None,
        telemetry=None,
        checker=None,
        **ftl_kwargs,
    ) -> None:
        # local import: repro.ftl imports repro.ssd.config, so importing
        # it at module scope would be circular
        from repro.ftl import make_ftl

        self.config = config
        self.controller = SSDController(config)
        # must be installed before the FTL is built: BaseFTL snapshots
        # controller.tracer and controller.checker at construction time
        self.controller.tracer = tracer
        self.controller.checker = checker
        self.ftl = make_ftl(ftl, config, self.controller, **ftl_kwargs)
        #: optional :class:`~repro.obs.registry.TelemetryRegistry`; its
        #: hooks only record, so simulated results are unchanged by it
        self.telemetry = telemetry
        if telemetry is not None:
            from repro.obs.device import attach_device_telemetry

            attach_device_telemetry(telemetry, self.controller, self.ftl)
        #: optional :class:`~repro.check.InvariantChecker`; attached
        #: after the FTL exists so it can bind the engine monitor, the
        #: block-lifecycle observer, and the telemetry instruments
        self.checker = checker
        if checker is not None:
            checker.attach(self)
        #: optional :class:`~repro.obs.timeseries.TimeSeriesRecorder`
        #: over ``telemetry``; the replay starts and finalizes it
        self.timeseries = None
        #: optional ``hook(completed, total, now_us)`` the replay loop
        #: calls per completion (live progress; never schedules events)
        self.progress = None

    # ------------------------------------------------------------------

    def prefill(self, fraction: float = 0.7) -> int:
        """Untimed sequential fill of the logical space.

        Programs real WLs through the FTL's own allocation policy (so the
        post-prefill cursor state is consistent) but without consuming
        simulated time.  Returns the number of pages written.

        Prefill runs **fault-free** even under a fault campaign: it
        models data that is already on the drive, not simulated activity,
        and injecting program failures into it would erode the
        over-provisioned space before the measured run starts.  Faults
        apply to the timed run only.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        ftl = self.ftl
        suspended = self.controller.faults
        if suspended is not None:
            for chip in self.controller.chips:
                chip.faults = None
        try:
            n_pages = self._prefill_locked(fraction)
            if self.checker is not None:
                self.checker.on_prefill(n_pages)
            return n_pages
        finally:
            if suspended is not None:
                for chip in self.controller.chips:
                    chip.faults = suspended

    def _prefill_locked(self, fraction: float) -> int:
        ftl = self.ftl
        geometry = self.config.geometry
        pages_per_wl = geometry.block.pages_per_wl
        n_pages = int(self.config.logical_pages * fraction)
        lpn = 0
        chip_rr = 0
        while lpn < n_pages:
            group = list(range(lpn, min(lpn + pages_per_wl, n_pages)))
            chip_id = chip_rr % geometry.n_chips
            chip_rr += 1
            ftl._ensure_active_blocks(chip_id)
            allocation = ftl.allocate_wl(chip_id)
            params, squeeze_mv = ftl.program_params(chip_id, allocation)
            data = group + [None] * (pages_per_wl - len(group))
            oob = None
            if self.config.store_oob:
                # prefilled LPN i carries sequence i+1 (stable across a
                # program-fail retry of the same group); the FTL's write
                # sequence resumes above the prefilled range
                oob = [(page_lpn, page_lpn + 1) for page_lpn in group]
                oob += [None] * (pages_per_wl - len(oob))
            try:
                result = self.controller.chip(chip_id).program_wl(
                    allocation.block,
                    allocation.address.layer,
                    allocation.address.wl,
                    params=params,
                    data=data,
                    oob=oob,
                )
            except ProgramFailError:
                # the group never landed: pull the block out of service
                # and retry the same LPNs on the next chip in the round
                ftl.recovery.program_fails += 1
                ftl.note_program_fail(chip_id, allocation.block)
                continue
            ok = ftl.after_program(chip_id, allocation, result, squeeze_mv)
            if ok:
                base_ppn = geometry.wl_ppn(
                    chip_id,
                    allocation.block,
                    allocation.address.layer,
                    allocation.address.wl,
                )
                for page_index, page_lpn in enumerate(group):
                    ftl.mapper.bind(page_lpn, base_ppn + page_index)
                lpn = group[-1] + 1
            ftl._maybe_mark_full(chip_id, allocation.block)
        # demand-paged FTLs persist translation metadata for the
        # prefilled range (untimed, still inside the fault-free window)
        ftl.after_prefill(n_pages)
        # prefill must not distort run statistics
        from repro.faults.counters import RecoveryCounters
        from repro.ftl.base import FTLCounters

        ftl.counters = FTLCounters()
        ftl.recovery = RecoveryCounters()
        if self.config.store_oob:
            # host writes must order strictly after every prefilled page
            ftl._write_seq = max(ftl._write_seq, n_pages)
        return n_pages

    # ------------------------------------------------------------------

    @staticmethod
    def _log_stall(completed: int, pending: Dict[int, IORequest]) -> None:
        """Structured diagnostic mirroring the stall exception, so log
        scrapers see the deadlock even when the caller swallows it."""
        sample = sorted(
            pending.values(), key=lambda r: (r.lpn, r.n_pages)
        )[:_STALL_DETAIL_LIMIT]
        log_event(
            logger,
            "error",
            "stall",
            completed=completed,
            pending=len(pending),
            first_pending=";".join(
                f"{'read' if request.is_read else 'write'}"
                f"@lpn{request.lpn}x{request.n_pages}"
                for request in sample
            ),
        )
