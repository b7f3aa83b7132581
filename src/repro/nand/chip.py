"""The 3D NAND chip: operations, state, and the ONFI-style interface.

A :class:`NandChip` ties the device-model components together:

- :class:`~repro.nand.reliability.ReliabilityModel` supplies the BER
  surface (intra-layer similarity, inter-layer variability, aging);
- :class:`~repro.nand.ispp.IsppEngine` executes program operations and
  reports the monitored per-state loop intervals (the values a controller
  reads back through Get-Features after a program -- Section 4.1.4 notes
  vendors expose these via the low-level NAND interface);
- :class:`~repro.nand.read_retry.ReadRetryModel` decides how many retries
  a read needs given the starting offset hint;
- :class:`~repro.nand.ecc.EccEngine` decides correctability.

The chip enforces the device-level legality rules: erase-before-reprogram
per WL, in-range addresses, optional endurance limit.  WLs are programmed
*one-shot* (all TLC pages of the WL at once), matching how modern 3D TLC
parts program and how the paper's WL-granular allocation (the WAM) works.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # annotation only -- repro.faults imports repro.nand
    from repro.faults.injector import FaultInjector
from repro.nand.ecc import EccEngine
from repro.nand.errors import (
    AddressError,
    EraseFailError,
    ProgramFailError,
    ProgramOrderError,
    UnprogrammedReadError,
    WearOutError,
)
from repro.nand.geometry import BlockGeometry
from repro.nand.ispp import IsppEngine, IsppResult, ProgramParams, WLProgramProfile
from repro.nand.read_retry import (
    MAX_OFFSET,
    NOMINAL_READ,
    ReadParams,
    ReadRetryModel,
)
from repro.nand.reliability import (
    AgingState,
    ReliabilityModel,
    hash_fold,
    hash_state,
    hash_unit,
    hash_unit_tail,
)
from repro.nand.tables import FastPathTables
from repro.nand.timing import NandTiming

#: how many offset levels a *hint-started* retry sweep searches before
#: giving up (only enforced under fault injection; a nominal-start sweep
#: from offset 0 always searches the full range).  Natural drift between
#: a learned hint and the optimum stays within +/-2 (one transient on
#: each side), so only injected skews (>= 3 steps) can exhaust it.
_HINT_SWEEP_BUDGET = 3


class ProgramResult(NamedTuple):
    """Outcome of a one-shot WL program operation.

    Built once per program, so a named tuple rather than a frozen
    dataclass (same fields, equality, hash and repr; much cheaper to
    construct).
    """

    #: total latency including parameter-setting overhead (us)
    t_prog_us: float
    #: detailed ISPP outcome (loops, verifies, penalties)
    ispp: IsppResult
    #: the per-state loop intervals observable via Get-Features -- this is
    #: what the OPM records from a leader-WL program
    monitored: WLProgramProfile
    #: BER measured immediately after the program (no retention); the
    #: safety check of Section 4.1.4 compares this across WLs of a layer
    post_program_ber: float
    #: BER between the E state and the P1 state, monitored during the
    #: program -- the health predictor behind the spare margin S_M
    #: (Section 4.1.2)
    ber_ep1: float
    #: environmental loop shift that affected this program (0 = none)
    env_shift: int

    @property
    def clean(self) -> bool:
        return self.ispp.clean and self.env_shift == 0


@dataclass(frozen=True, init=False)
class ReadResult:
    """Outcome of a page read operation.

    Built once per page read.  It stays a frozen dataclass (callers may
    ``dataclasses.replace`` it), with a hand-written ``__init__`` that
    fills the instance dict directly: the generated one pays an
    ``object.__setattr__`` call per field.
    """

    #: array-sense latency including retries (us); bus transfer is the
    #: controller's job
    t_read_us: float
    #: number of read retries performed
    num_retry: int
    #: offset level that finally decoded -- the value a PS-aware
    #: controller stores back into its ORT
    final_offset: int
    #: raw bit error rate seen by the ECC engine
    ber: float
    #: whether the page decoded within ECC capability
    correctable: bool
    #: stored data tag, when tag storage is enabled
    data: Optional[object]
    #: portion of ``t_read_us`` spent on retry sense steps (0 when the
    #: first sense decoded) -- the tracer's queueing/NAND/retry split
    t_retry_us: float = 0.0

    def __init__(
        self,
        t_read_us: float,
        num_retry: int,
        final_offset: int,
        ber: float,
        correctable: bool,
        data: Optional[object],
        t_retry_us: float = 0.0,
    ) -> None:
        fields = self.__dict__
        fields["t_read_us"] = t_read_us
        fields["num_retry"] = num_retry
        fields["final_offset"] = final_offset
        fields["ber"] = ber
        fields["correctable"] = correctable
        fields["data"] = data
        fields["t_retry_us"] = t_retry_us


class NandChip:
    """One 3D TLC NAND chip with ``n_blocks`` blocks.

    Parameters
    ----------
    chip_id:
        Global chip id; feeds the deterministic per-location hashes so
        chips differ from each other.
    n_blocks, geometry:
        Chip shape.
    env_shift_prob:
        Probability that a program operation experiences a sudden
        operating-condition change (Section 4.1.4), shifting its loop
        profile and invalidating previously monitored parameters.
    store_tags:
        Keep per-page data tags for functional read-back checks.  Costs
        memory on long simulations; benchmarks disable it.
    erase_limit:
        Optional hard endurance cap; exceeding it raises
        :class:`WearOutError`.
    read_disturb_per_read:
        Optional read-disturb modelling: each read of a block weakly
        disturbs its other pages, adding this BER fraction per read (a
        typical figure is ~1e-6 of the base BER per read, i.e. hundreds
        of thousands of reads to matter).  Disabled (0.0) by default; an
        FTL can watch :meth:`block_read_count` and refresh hot blocks.
    fault_injector:
        Optional seeded :class:`~repro.faults.injector.FaultInjector`.
        When attached, programs and erases can report failure statuses
        (:class:`ProgramFailError` / :class:`EraseFailError`), reads can
        see transient BER spikes or stale-offset sweep failures, and any
        operation can hit stuck-die latency.  Without it (the default)
        the chip behaves bit-for-bit like the fault-free model.
    fast_path:
        Serve the program/read hot path from precomputed per-(block,
        erase-epoch) reliability tables (:mod:`repro.nand.tables`).
        The tables are bitwise identical to the scalar model, so this is
        purely a wall-clock switch.  ``None`` (the default) follows the
        ``REPRO_FAST_PATH`` environment variable: set to ``0`` to force
        the scalar path (equivalence smokes); unset or anything else
        enables the tables.
    """

    def __init__(
        self,
        chip_id: int = 0,
        n_blocks: int = 428,
        geometry: BlockGeometry = BlockGeometry(),
        reliability: Optional[ReliabilityModel] = None,
        timing: NandTiming = NandTiming(),
        ispp: Optional[IsppEngine] = None,
        retry_model: Optional[ReadRetryModel] = None,
        ecc: Optional[EccEngine] = None,
        env_shift_prob: float = 2e-4,
        store_tags: bool = True,
        erase_limit: Optional[int] = None,
        read_disturb_per_read: float = 0.0,
        fault_injector: Optional[FaultInjector] = None,
        store_oob: bool = False,
        fast_path: Optional[bool] = None,
    ) -> None:
        if n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        if not 0.0 <= env_shift_prob <= 1.0:
            raise ValueError("env_shift_prob must be in [0, 1]")
        self.chip_id = chip_id
        self.n_blocks = n_blocks
        self.geometry = geometry
        self.reliability = reliability or ReliabilityModel(geometry)
        self.timing = timing
        self.ispp = ispp or IsppEngine(timing)
        self.retry_model = retry_model or ReadRetryModel(self.reliability)
        self.ecc = ecc or EccEngine()
        self.env_shift_prob = env_shift_prob
        self.store_tags = store_tags
        # the block shape as plain ints, for the one-test address
        # acceptance of program_wl and read_page
        self._n_layers = geometry.n_layers
        self._wls_per_layer = geometry.wls_per_layer
        self._pages_per_wl = geometry.pages_per_wl
        self.erase_limit = erase_limit
        if read_disturb_per_read < 0:
            raise ValueError("read_disturb_per_read must be >= 0")
        self.read_disturb_per_read = read_disturb_per_read
        self.faults = fault_injector
        #: keep per-page OOB metadata ``(lpn, seq)`` alongside the data,
        #: the way a real FTL stamps spare-area bytes; the SPOR recovery
        #: path rebuilds the L2P mapping from it (see repro.persist.spor)
        self.store_oob = store_oob
        self._op_nonce = 0
        # cumulative operation counters (observability only; never read
        # by the simulation itself)
        self.reads_done = 0
        self.programs_done = 0
        self.erases_done = 0
        #: optional :class:`~repro.obs.device.ChipTelemetry` recording
        #: hook, installed by ``attach_device_telemetry``; recording
        #: never mutates chip state, so simulated results are identical
        #: with or without it
        self.telemetry = None

        # per-(block, WL) mutable state lives in plain Python lists: the
        # program/read hot paths touch single scalars, where list access
        # is several times cheaper than numpy scalar indexing.  The
        # checkpoint wire format stays numpy (see state_dict).
        wls = geometry.wls_per_block
        self._erase_counts = [0] * n_blocks
        self._programmed = [[False] * wls for _ in range(n_blocks)]
        # incrementally maintained row sums of _programmed, so the FTL's
        # per-program block-full check is O(1) instead of a row scan
        self._programmed_counts = [0] * n_blocks
        self._penalty = [[1.0] * wls for _ in range(n_blocks)]
        # program-instance variation: each program operation lands the
        # V_th distributions slightly differently (sub-percent), which is
        # what the paper's Fig. 13 measures as RTN-scale order noise
        self._prog_noise = [[1.0] * wls for _ in range(n_blocks)]
        self._block_reads = [0] * n_blocks
        self._baseline = AgingState()
        self._read_nonce = 0
        self._program_nonce = 0
        self._tags: Dict[Tuple[int, int, int], object] = {}
        #: (block, wl_index, page) -> (lpn, seq) spare-area metadata
        self._oob: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        self._features: Dict[int, Tuple[int, ...]] = {}
        # allocation caches for the per-operation hot path: AgingState is
        # frozen, so one instance per (block, erase-epoch) can be shared
        # by every read of the block instead of being rebuilt per page
        # read.  Invalidated on erase and on baseline changes; bounded by
        # n_blocks (and by distinct dynamic P/E values for the
        # zero-retention states the program path uses).
        self._block_aging_cache: Dict[int, AgingState] = {}
        self._fresh_aging_cache: Dict[int, AgingState] = {}
        if fast_path is None:
            fast_path = os.environ.get("REPRO_FAST_PATH", "1") != "0"
        self._fast = FastPathTables(self) if fast_path else None
        # premixed hash-chain prefixes of the two per-program draws
        # (environment shift and program-instance noise): the leading
        # (seed, tag, chip_id) keys never change, so folding them per
        # operation is wasted work.  The fast-path tables fold each
        # block's location keys onto these once per erase epoch.
        seed = self.reliability.seed
        self._env_hash_state = hash_state(seed, 0xE47, chip_id)
        self._prog_noise_hash_state = hash_state(seed, 0x9619, chip_id)

    # ------------------------------------------------------------------
    # aging control (experiment pre-conditioning)
    # ------------------------------------------------------------------

    @property
    def baseline_aging(self) -> AgingState:
        return self._baseline

    def set_baseline_aging(self, aging: AgingState) -> None:
        """Pre-condition the chip (e.g. "2 K P/E with 1-year retention")."""
        self._baseline = aging
        self._block_aging_cache.clear()
        self._fresh_aging_cache.clear()
        if self._fast is not None:
            self._fast.invalidate()

    def block_aging(self, block: int) -> AgingState:
        """Effective aging of one block: baseline plus dynamic erases."""
        self._check_block(block)
        aging = self._block_aging_cache.get(block)
        if aging is None:
            aging = AgingState(
                pe_cycles=self._baseline.pe_cycles + self._erase_counts[block],
                retention_months=self._baseline.retention_months,
            )
            self._block_aging_cache[block] = aging
        return aging

    def _fresh_aging(self, pe_cycles: int) -> AgingState:
        """Shared zero-retention AgingState for a dynamic P/E count (the
        immediate post-program read-back condition)."""
        aging = self._fresh_aging_cache.get(pe_cycles)
        if aging is None:
            aging = AgingState(pe_cycles, 0.0)
            self._fresh_aging_cache[pe_cycles] = aging
        return aging

    def block_pe(self, block: int) -> int:
        self._check_block(block)
        return self._erase_counts[block] + self._baseline.pe_cycles

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def erase_block(self, block: int) -> float:
        """Erase a block; returns the erase latency in microseconds.

        Raises :class:`WearOutError` past the endurance limit and, under
        fault injection, :class:`EraseFailError` for grown bad blocks --
        in both cases the block state is left untouched.
        """
        self._check_block(block)
        if self.erase_limit is not None and self.block_pe(block) >= self.erase_limit:
            raise WearOutError(f"block {block} exceeded {self.erase_limit} P/E cycles")
        if self.faults is not None and self.faults.erase_fails(
            self.chip_id, block, self.n_blocks, self._erase_counts[block]
        ):
            raise EraseFailError(
                f"chip {self.chip_id} block {block} erase failed "
                "(grown bad block)",
                t_us=self._op_latency(self.timing.t_erase_us),
            )
        self._erase_counts[block] += 1
        self._block_aging_cache.pop(block, None)
        if self._fast is not None:
            self._fast.invalidate_block(block)
        self.erases_done += 1
        if self.telemetry is not None:
            self.telemetry.record_erase()
        wls = self.geometry.wls_per_block
        self._programmed[block] = [False] * wls
        self._programmed_counts[block] = 0
        self._penalty[block] = [1.0] * wls
        self._prog_noise[block] = [1.0] * wls
        self._block_reads[block] = 0
        if self._tags:
            stale = [key for key in self._tags if key[0] == block]
            for key in stale:
                del self._tags[key]
        if self._oob:
            stale = [key for key in self._oob if key[0] == block]
            for key in stale:
                del self._oob[key]
        return self._op_latency(self.timing.t_erase_us)

    def program_wl(
        self,
        block: int,
        layer: int,
        wl: int,
        params: Optional[ProgramParams] = None,
        data: Optional[Sequence[object]] = None,
        oob: Optional[Sequence[Optional[Tuple[int, int]]]] = None,
    ) -> ProgramResult:
        """One-shot program of all pages of a WL.

        ``data`` optionally supplies one tag per page of the WL (TLC: 3);
        tags are returned by subsequent reads when tag storage is on.
        ``oob`` optionally supplies one ``(lpn, seq)`` spare-area record
        per page (``None`` entries for pad pages); stored only when
        ``store_oob`` is enabled, and, like data, only on program success.
        """
        wls_per_layer = self._wls_per_layer
        if not (
            0 <= layer < self._n_layers
            and 0 <= wl < wls_per_layer
            and 0 <= block < self.n_blocks
        ):
            # one of these raises, with the usual message
            self.geometry.check_wl(layer, wl)
            self._check_block(block)
        wl_index = layer * wls_per_layer + wl
        if self._programmed[block][wl_index]:
            raise ProgramOrderError(
                f"WL (block={block}, layer={layer}, wl={wl}) already programmed"
            )
        if data is not None and len(data) != self._pages_per_wl:
            raise ValueError(
                f"data must supply {self._pages_per_wl} page tags"
            )
        if oob is not None and len(oob) != self._pages_per_wl:
            raise ValueError(
                f"oob must supply {self._pages_per_wl} page records"
            )
        if params is None:
            params = ProgramParams.default(self.ispp.n_states)

        if self._fast is not None:
            tables = self._fast.block(block)
            env_prefix = tables.env_prefix[wl_index]
            noise_prefix = tables.noise_prefix
        else:
            tables = None
            env_prefix = hash_fold(self._env_hash_state, block, layer, wl)
            noise_prefix = hash_fold(self._prog_noise_hash_state, block)
        # environment shift: a fresh draw per program over the WL's
        # premixed (block, layer, wl) chain; shifts of +/-1 loop, the
        # direction from a second hash
        self._program_nonce += 1
        env_shift = 0
        if hash_unit_tail(env_prefix, self._program_nonce) < self.env_shift_prob:
            env_shift = (
                1
                if hash_unit(self.reliability.seed, 0xD17, block, layer, wl) < 0.5
                else -1
            )
        slowdown = self.reliability.program_slowdown(self.chip_id, block, layer)
        profile = self.ispp.wl_profile(slowdown, env_shift)
        ispp_result = self.ispp.simulate(profile, params)

        if self.faults is not None and self.faults.program_fails(
            self.chip_id, block, wl_index, self._program_nonce
        ):
            # program-status FAIL: the WL holds indeterminate data.  It
            # stays "programmed" (reprogramming without an erase remains
            # illegal) with a poisoned BER so any stray read of it is
            # uncorrectable; no tags are stored.
            self._programmed[block][wl_index] = True
            self._programmed_counts[block] += 1
            self._penalty[block][wl_index] = 1e6
            raise ProgramFailError(
                f"chip {self.chip_id} WL (block={block}, layer={layer}, "
                f"wl={wl}) program failed",
                t_us=self._op_latency(ispp_result.t_prog_us),
            )

        self._programmed[block][wl_index] = True
        self._programmed_counts[block] += 1
        self.programs_done += 1
        self._penalty[block][wl_index] = ispp_result.ber_penalty
        noise_u = hash_unit_tail(noise_prefix, wl_index, self._program_nonce)
        self._prog_noise[block][wl_index] = 1.0 + 0.01 * (2.0 * noise_u - 1.0)
        if self.store_tags and data is not None:
            for page, tag in enumerate(data):
                self._tags[(block, wl_index, page)] = tag
        if self.store_oob and oob is not None:
            for page, record in enumerate(oob):
                if record is not None:
                    self._oob[(block, wl_index, page)] = record

        if tables is not None:
            # immediate read-back BER: no retention yet, current block P/E
            post_ber = tables.wl_ber_fresh[layer][wl] * ispp_result.ber_penalty
            # E<->P1 health indicator under the block's effective aging
            ber_ep1 = tables.ep1[layer][wl]
        else:
            # immediate read-back BER: no retention yet, current block P/E
            aging_now = self._fresh_aging(self.block_pe(block))
            post_ber = (
                self.reliability.wl_ber(self.chip_id, block, layer, wl, aging_now)
                * ispp_result.ber_penalty
            )
            # E<->P1 health indicator must reflect how the *stored* data
            # will age, so it is evaluated under the block's effective
            # aging state
            ber_ep1 = self.reliability.ber_ep1(
                self.chip_id, block, layer, wl, self.block_aging(block)
            )
        t_prog = ispp_result.t_prog_us
        if params.window_squeeze_mv != 0 or params.verify_plan.skips_verifies:
            t_prog += self.timing.t_param_set_us
        if self.faults is not None:
            t_prog = self._op_latency(t_prog)
        if self.telemetry is not None:
            self.telemetry.record_program(layer, t_prog)
        return ProgramResult(
            t_prog, ispp_result, ispp_result.monitored, post_ber, ber_ep1,
            env_shift,
        )

    def peek_tag(self, block: int, layer: int, wl: int, page: int) -> object:
        """Side-effect-free tag lookup (the checker's final-state digest).

        Unlike :meth:`read_page` this mutates nothing -- no read counter,
        no nonce, no disturb accumulation, no telemetry -- so inspecting
        the final state cannot perturb a simulation or its determinism.
        """
        self.geometry.check_page(layer, wl, page)
        self._check_block(block)
        wl_index = self.geometry.wl_index(layer, wl)
        return self._tags.get((block, wl_index, page))

    def peek_oob(
        self, block: int, layer: int, wl: int, page: int
    ) -> Optional[Tuple[int, int]]:
        """Side-effect-free spare-area lookup: ``(lpn, seq)`` or None."""
        self.geometry.check_page(layer, wl, page)
        self._check_block(block)
        wl_index = self.geometry.wl_index(layer, wl)
        return self._oob.get((block, wl_index, page))

    def iter_oob(self):
        """Iterate stored OOB records in deterministic address order.

        Yields ``((block, wl_index, page), (lpn, seq))`` -- the SPOR
        recovery scan.  Sorted so the rebuild order (and any tie-break
        it applies) cannot depend on dict insertion history.
        """
        for key in sorted(self._oob):
            yield key, self._oob[key]

    def read_page(
        self,
        block: int,
        layer: int,
        wl: int,
        page: int,
        params: ReadParams = NOMINAL_READ,
    ) -> ReadResult:
        """Read one page of a programmed WL."""
        wls_per_layer = self._wls_per_layer
        if not (
            0 <= layer < self._n_layers
            and 0 <= wl < wls_per_layer
            and 0 <= page < self._pages_per_wl
            and 0 <= block < self.n_blocks
        ):
            # one of these raises, with the usual message
            self.geometry.check_page(layer, wl, page)
            self._check_block(block)
        wl_index = layer * wls_per_layer + wl
        if not self._programmed[block][wl_index]:
            raise UnprogrammedReadError(
                f"page (block={block}, layer={layer}, wl={wl}, page={page}) "
                "was never programmed"
            )
        aging = self._block_aging_cache.get(block)
        if aging is None:
            aging = self.block_aging(block)
        if self._fast is not None:
            tables = self._fast.block(block)
            ber = (
                tables.wl_ber[layer][wl]
                * self._penalty[block][wl_index]
                * self._prog_noise[block][wl_index]
            )
        else:
            ber = (
                self.reliability.wl_ber(self.chip_id, block, layer, wl, aging)
                * self._penalty[block][wl_index]
                * self._prog_noise[block][wl_index]
            )
        if self.read_disturb_per_read:
            disturb = 1.0 + self.read_disturb_per_read * self._block_reads[block]
            ber *= disturb
        self._block_reads[block] += 1
        if self._fast is not None:
            optimal = self.retry_model.transient_optimal(
                self.chip_id, block, layer, tables.stable_opt[layer], aging,
                self._read_nonce, tables.read_prefix[layer],
            )
        else:
            optimal = self.retry_model.read_optimal(
                self.chip_id, block, layer, aging, self._read_nonce
            )
        self._read_nonce += 1
        sweep_failed = False
        if self.faults is not None:
            ber *= self.faults.ber_multiplier(self.chip_id, block, self._read_nonce)
            skew = self.faults.ort_skew(
                self.chip_id,
                block,
                layer,
                self._erase_counts[block],
                self._read_nonce,
            )
            if skew:
                # the h-layer's optimum jumped away from anything a
                # previous read could have learned; a hint-started
                # bounded sweep that lands far from the new optimum
                # gives up, while a nominal-start (offset 0) full sweep
                # still finds it -- the conservative-fallback contract
                optimal = max(0, min(MAX_OFFSET, optimal + skew))
                if (
                    params.offset_hint != 0
                    and abs(optimal - params.offset_hint) >= _HINT_SWEEP_BUDGET
                ):
                    sweep_failed = True
        if sweep_failed:
            num_retry = MAX_OFFSET
            correctable = False
        else:
            num_retry = self.retry_model.retries_needed(params.offset_hint, optimal)
            correctable = self.ecc.correctable(ber)
        tag = self._tags.get((block, wl_index, page)) if self.store_tags else None
        self.reads_done += 1
        if self.telemetry is not None:
            self.telemetry.record_read(layer, num_retry)
        timing = self.timing
        total_raw = timing.t_read_us + num_retry * timing.t_retry_us
        t_read = total_raw if self.faults is None else self._op_latency(total_raw)
        # the retry share survives latency faults because the factor is
        # multiplicative over the whole operation
        t_retry = (
            t_read * (total_raw - timing.t_read_us) / total_raw
            if num_retry
            else 0.0
        )
        # positional: keyword arguments cost a third of the construction
        return ReadResult(
            t_read, num_retry, optimal, ber, correctable, tag, t_retry
        )

    # ------------------------------------------------------------------
    # ONFI-style feature interface
    # ------------------------------------------------------------------

    def set_features(self, address: int, values: Tuple[int, ...]) -> float:
        """ONFI Set-Features: store an operating-parameter record.

        Returns the command latency (< 1 us, Section 5.1).
        """
        self._features[address] = tuple(values)
        return self.timing.t_param_set_us

    def get_features(self, address: int) -> Tuple[int, ...]:
        """ONFI Get-Features: read back an operating-parameter record."""
        if address not in self._features:
            raise AddressError(f"feature address {address:#x} was never set")
        return self._features[address]

    # ------------------------------------------------------------------
    # state queries and characterization helpers
    # ------------------------------------------------------------------

    def is_programmed(self, block: int, layer: int, wl: int) -> bool:
        self._check_block(block)
        return self._programmed[block][self.geometry.wl_index(layer, wl)]

    def programmed_wl_count(self, block: int) -> int:
        self._check_block(block)
        return self._programmed_counts[block]

    def block_read_count(self, block: int) -> int:
        """Reads since the block's last erase (read-disturb exposure)."""
        self._check_block(block)
        return self._block_reads[block]

    def wl_penalty(self, block: int, layer: int, wl: int) -> float:
        self._check_block(block)
        return self._penalty[block][self.geometry.wl_index(layer, wl)]

    def measure_retention_errors(
        self, block: int, layer: int, wl: int, aging: AgingState
    ) -> int:
        """Characterization-board helper: N_ret(w_ij, x, t) for an explicit
        aging condition (used by the Section 3 study harness)."""
        return self.reliability.n_ret(self.chip_id, block, layer, wl, aging)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable mutable state of the chip.

        Covers everything a program/erase/read can change: wear and
        programmed-state arrays, per-WL penalties and program noise,
        read-disturb counters, the deterministic nonces, stored tags and
        OOB records, the ONFI feature store, and the baseline aging.
        The model components (reliability surface, ISPP, ECC) are pure
        functions of the config and are rebuilt, not serialized.
        """
        return {
            "erase_counts": np.array(self._erase_counts, dtype=np.int32),
            "programmed": np.array(self._programmed, dtype=bool),
            "penalty": np.array(self._penalty, dtype=np.float64),
            "prog_noise": np.array(self._prog_noise, dtype=np.float64),
            "block_reads": np.array(self._block_reads, dtype=np.int64),
            "baseline": (
                self._baseline.pe_cycles,
                self._baseline.retention_months,
            ),
            "read_nonce": self._read_nonce,
            "program_nonce": self._program_nonce,
            "op_nonce": self._op_nonce,
            "reads_done": self.reads_done,
            "programs_done": self.programs_done,
            "erases_done": self.erases_done,
            "tags": dict(self._tags),
            "oob": dict(self._oob),
            "features": dict(self._features),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot; derived aging caches
        are dropped and rebuilt lazily."""
        self._erase_counts = [int(n) for n in state["erase_counts"]]
        programmed = np.asarray(state["programmed"], dtype=bool)
        self._programmed = programmed.tolist()
        self._programmed_counts = [int(n) for n in programmed.sum(axis=1)]
        self._penalty = np.asarray(state["penalty"], dtype=np.float64).tolist()
        self._prog_noise = np.asarray(
            state["prog_noise"], dtype=np.float64
        ).tolist()
        self._block_reads = [int(n) for n in state["block_reads"]]
        pe_cycles, retention_months = state["baseline"]
        self._baseline = AgingState(pe_cycles, retention_months)
        self._read_nonce = state["read_nonce"]
        self._program_nonce = state["program_nonce"]
        self._op_nonce = state["op_nonce"]
        self.reads_done = state["reads_done"]
        self.programs_done = state["programs_done"]
        self.erases_done = state["erases_done"]
        self._tags = dict(state["tags"])
        self._oob = dict(state["oob"])
        self._features = dict(state["features"])
        self._block_aging_cache.clear()
        self._fresh_aging_cache.clear()
        if self._fast is not None:
            self._fast.invalidate()

    def _op_latency(self, base_us: float) -> float:
        """Apply stuck-die latency faults to one operation's service time."""
        if self.faults is None:
            return base_us
        self._op_nonce += 1
        return base_us * self.faults.latency_factor(self.chip_id, self._op_nonce)

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.n_blocks:
            raise AddressError(f"block {block} out of range [0, {self.n_blocks})")
