"""Fault-campaign configuration.

A :class:`FaultCampaign` is a declarative, hashable description of the
faults injected into one simulation run.  It is part of
:class:`~repro.ssd.config.SSDConfig` (``faults=...``), so two runs with
the same config -- campaign seed included -- replay the exact same fault
sequence (every draw comes from the seeded stateless hash of
:func:`repro.nand.reliability.hash_unit`).

The fault classes model the grown-fault taxonomy real 3D NAND management
stacks handle (program-status failures, erase failures, grown bad
blocks, transient BER spikes from read disturb / retention, and stuck
dies); the recovery semantics live in the FTL (see ``docs/MODEL.md``,
"Fault model").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class FaultCampaign:
    """Declarative description of one fault-injection campaign.

    All probabilities are per-operation (per WL program, per block
    erase, per page read).  A campaign with every rate at zero is
    behaviorally identical to running without fault injection.
    """

    name: str = "default"
    #: campaign seed; independent from the device-model seed so the same
    #: silicon can be replayed under different fault sequences
    seed: int = 1
    #: probability that a WL program reports a program-status failure
    program_fail_prob: float = 0.0
    #: probability that a block erase fails (transient grown fault)
    erase_fail_prob: float = 0.0
    #: blocks per chip that grow bad during the run: their erase starts
    #: failing permanently after ``grown_bad_onset_erases`` dynamic erases
    grown_bad_per_chip: int = 0
    #: dynamic erase count at which a grown-bad block starts failing
    grown_bad_onset_erases: int = 2
    #: probability that one read sees a transient raw-BER spike
    #: (read-disturb / retention burst)
    ber_spike_prob: float = 0.0
    #: multiplier applied to the raw BER of a spiked read
    ber_spike_factor: float = 50.0
    #: probability that an h-layer's optimal read offset jumps away from
    #: any previously learned value (stale-ORT hazard, re-drawn per
    #: block-erase epoch)
    ort_skew_prob: float = 0.0
    #: how many offset steps a skewed h-layer jumps (>= 3 defeats a
    #: hint-started bounded sweep; a nominal-start full sweep still wins)
    ort_skew_steps: int = 3
    #: chip reads per skew phase: the skew of an h-layer is re-drawn
    #: every this-many reads of the chip, so a drift can strand ORT
    #: hints learned in the previous phase (mid-epoch staleness)
    ort_skew_phase_reads: int = 500
    #: probability that one die operation is served by a "stuck" die
    stuck_die_prob: float = 0.0
    #: latency multiplier of a stuck-die operation
    stuck_latency_factor: float = 4.0
    #: simulated instant (microseconds) of a sudden power-off.  The
    #: injector and :func:`repro.api.run_simulation` ignore this field --
    #: a power cut is not a per-operation fault but a campaign-level
    #: event acted on only by the SPOR harness
    #: (:func:`repro.persist.run_spor_campaign`), which cuts the run at
    #: this instant, drops all volatile FTL state, and recovers.
    spor_at_us: Optional[float] = None

    def __post_init__(self) -> None:
        for field_name in (
            "program_fail_prob",
            "erase_fail_prob",
            "ber_spike_prob",
            "ort_skew_prob",
            "stuck_die_prob",
        ):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1]")
        if self.grown_bad_per_chip < 0:
            raise ValueError("grown_bad_per_chip must be >= 0")
        if self.grown_bad_onset_erases < 1:
            raise ValueError("grown_bad_onset_erases must be >= 1")
        if self.ber_spike_factor < 1.0:
            raise ValueError("ber_spike_factor must be >= 1")
        if self.ort_skew_steps < 1:
            raise ValueError("ort_skew_steps must be >= 1")
        if self.ort_skew_phase_reads < 1:
            raise ValueError("ort_skew_phase_reads must be >= 1")
        if self.stuck_latency_factor < 1.0:
            raise ValueError("stuck_latency_factor must be >= 1")
        # NaN or +inf would be a cut that never comes
        if self.spor_at_us is not None and not 0 <= self.spor_at_us < math.inf:
            raise ValueError("spor_at_us must be a finite number >= 0")

    @property
    def quiet(self) -> bool:
        """True when the campaign can never inject anything -- no
        per-operation fault has a nonzero rate and no power cut is
        scheduled."""
        return (
            self.program_fail_prob == 0.0
            and self.erase_fail_prob == 0.0
            and self.grown_bad_per_chip == 0
            and self.ber_spike_prob == 0.0
            and self.ort_skew_prob == 0.0
            and self.stuck_die_prob == 0.0
            and self.spor_at_us is None
        )


#: named campaigns selectable from the CLI (``--faults <name>``)
CAMPAIGNS: Dict[str, Optional[FaultCampaign]] = {
    "none": None,
    # the acceptance campaign: >= 0.1 % program fails, >= 2 grown bad
    # blocks per chip, periodic BER spikes, occasional stale offsets and
    # stuck-die hiccups
    "default": FaultCampaign(
        name="default",
        program_fail_prob=0.002,
        erase_fail_prob=0.002,
        grown_bad_per_chip=2,
        ber_spike_prob=0.003,
        ort_skew_prob=0.002,
        stuck_die_prob=0.001,
    ),
    # every program fail costs a whole block (the FTL retires it), so
    # even "heavy" keeps the structural rates moderate -- sustained
    # higher rates simply exhaust the over-provisioned space, which the
    # simulator reports as OutOfSpaceError (a worn-out drive)
    "heavy": FaultCampaign(
        name="heavy",
        program_fail_prob=0.004,
        erase_fail_prob=0.01,
        grown_bad_per_chip=4,
        ber_spike_prob=0.01,
        ort_skew_prob=0.01,
        stuck_die_prob=0.005,
        stuck_latency_factor=8.0,
    ),
    # read-side only: stale per-h-layer offsets, no structural damage
    "stale-ort": FaultCampaign(
        name="stale-ort",
        ort_skew_prob=0.02,
        ort_skew_steps=4,
    ),
    # latency only: stuck dies, no data-path faults
    "stuck-die": FaultCampaign(
        name="stuck-die",
        stuck_die_prob=0.01,
        stuck_latency_factor=8.0,
    ),
    # sudden power-off mid-run (no per-operation faults); the cut
    # instant is meaningful only to the SPOR harness in repro.persist
    "spor": FaultCampaign(
        name="spor",
        spor_at_us=50_000.0,
    ),
}


def get_campaign(name: str) -> Optional[FaultCampaign]:
    """Look up a named campaign (``"none"`` -> ``None``)."""
    try:
        return CAMPAIGNS[name]
    except KeyError:
        raise KeyError(
            f"unknown fault campaign {name!r}; "
            f"choose from {sorted(CAMPAIGNS)}"
        ) from None
