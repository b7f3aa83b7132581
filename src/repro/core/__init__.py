"""Process-similarity-aware optimization machinery (the paper's Section 4/5).

This subpackage contains the paper's actual contribution, cleanly separated
from the device model it runs against:

- :mod:`repro.core.vfy_skip` -- redundant-verify elimination (Sec. 4.1.1);
- :mod:`repro.core.maxloop` -- spare-BER-margin (S_M) driven
  (V_start, V_final) adjustment (Sec. 4.1.2);
- :mod:`repro.core.program_order` -- horizontal-first / vertical-first /
  mixed-order program sequences (Sec. 4.1.3);
- :mod:`repro.core.safety` -- the post-program BER safety check
  (Sec. 4.1.4);
- :mod:`repro.core.ort` -- the optimal read-reference-offset table
  (Sec. 4.2 / 5.1);
- :mod:`repro.core.opm` -- the Optimal Parameter Manager (Sec. 5.1);
- :mod:`repro.core.wam` -- the WL Allocation Manager (Sec. 5.2) and the
  horizontal-first allocator of the PS-unaware FTLs.
"""

from repro.core.latency_predictor import LatencyPredictor, PredictionStats
from repro.core.maxloop import MarginTable, DEFAULT_MARGIN_TABLE, spare_margin
from repro.core.opm import LeaderObservation, OptimalParameterManager
from repro.core.ort import OptimalReadTable
from repro.core.program_order import (
    ProgramOrder,
    available_followers_after,
    follower_flags,
    horizontal_first,
    max_follower_run,
    mixed_order,
    program_sequence,
    vertical_first,
)
from repro.core.safety import SafetyChecker, SafetyVerdict
from repro.core.vfy_skip import n_skip_per_state, paper_n_skip, total_skipped
from repro.core.wam import ActiveBlockCursor, WLAllocationManager

__all__ = [
    "LatencyPredictor",
    "PredictionStats",
    "MarginTable",
    "DEFAULT_MARGIN_TABLE",
    "spare_margin",
    "LeaderObservation",
    "OptimalParameterManager",
    "OptimalReadTable",
    "ProgramOrder",
    "horizontal_first",
    "vertical_first",
    "mixed_order",
    "program_sequence",
    "follower_flags",
    "max_follower_run",
    "available_followers_after",
    "SafetyChecker",
    "SafetyVerdict",
    "n_skip_per_state",
    "paper_n_skip",
    "total_skipped",
    "ActiveBlockCursor",
    "WLAllocationManager",
]
