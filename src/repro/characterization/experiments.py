"""Data generators for every characterization figure of the paper.

Each function regenerates the data behind one figure as plain
dictionaries/arrays; the matching benchmark prints the same rows or
series the paper plots and asserts the qualitative shape.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.characterization.harness import CharacterizationStudy
from repro.characterization.metrics import delta_h, delta_v
from repro.core.maxloop import DEFAULT_MARGIN_TABLE, MarginTable
from repro.core.ort import OptimalReadTable
from repro.core.program_order import ProgramOrder, program_sequence
from repro.core.vfy_skip import n_skip_per_state
from repro.nand.chip import NandChip
from repro.nand.ispp import (
    IsppEngine,
    ProgramParams,
    VerifyPlan,
    window_squeeze_ber_multiplier,
)
from repro.nand.read_retry import ReadParams
from repro.nand.reliability import AgingState, ReliabilityModel
from repro.nand.timing import NandTiming


def representative_layers(reliability: ReliabilityModel) -> Dict[str, int]:
    """The four named h-layers of Figs. 5/6: alpha (top edge), beta
    (best), kappa (worst interior), omega (bottom edge)."""
    return {
        "alpha": reliability.layer_alpha,
        "beta": reliability.layer_beta,
        "kappa": reliability.layer_kappa,
        "omega": reliability.layer_omega,
    }


# ----------------------------------------------------------------------
# Fig. 5 -- horizontal intra-layer similarity
# ----------------------------------------------------------------------

def fig5_intra_layer_ber(
    study: CharacterizationStudy,
    aging: AgingState,
    block_row: int = 0,
) -> Dict[str, Dict[str, object]]:
    """Fig. 5(a)/(b): per-WL normalized BER on the four representative
    h-layers, plus each layer's Delta-H."""
    grid = study.measure(aging).astype(float)
    reliability = study.chips[0].reliability
    layers = representative_layers(reliability)
    block = grid[block_row]
    best = block.min()
    out: Dict[str, Dict[str, object]] = {}
    for name, layer in layers.items():
        errors = block[layer]
        out[name] = {
            "layer": layer,
            "normalized_ber": (errors / best).tolist(),
            "delta_h": delta_h(errors),
        }
    return out


def fig5c_delta_h_over_blocks(
    study: CharacterizationStudy,
    agings: Sequence[AgingState],
) -> Dict[Tuple[int, float], Dict[str, float]]:
    """Fig. 5(c): Delta-H statistics across all sampled blocks under
    varying P/E cycles and retention times."""
    out = {}
    for aging in agings:
        values = study.delta_h_values(aging)
        out[(aging.pe_cycles, aging.retention_months)] = {
            "mean": float(values.mean()),
            "max": float(values.max()),
            "p99": float(np.percentile(values, 99)),
        }
    return out


def fig5d_t_prog_per_wl(study: CharacterizationStudy, block_row: int = 0) -> np.ndarray:
    """Fig. 5(d): tPROG per WL -- identical within each h-layer."""
    return study.t_prog_per_wl(block_row)


# ----------------------------------------------------------------------
# Fig. 6 -- vertical inter-layer variability
# ----------------------------------------------------------------------

def fig6_inter_layer_ber(
    study: CharacterizationStudy,
    agings: Sequence[AgingState],
    block_row: int = 0,
) -> Dict[Tuple[int, float], Dict[str, object]]:
    """Fig. 6(a-c): leading-WL BER per h-layer under each aging state,
    normalized over the best layer of the fresh block, plus Delta-V."""
    fresh = study.measure(AgingState(0, 0)).astype(float)[block_row, :, 0]
    reference = fresh.min()
    out = {}
    for aging in agings:
        grid = study.measure(aging).astype(float)
        leading = grid[block_row, :, 0]
        out[(aging.pe_cycles, aging.retention_months)] = {
            "normalized_ber": (leading / reference).tolist(),
            "delta_v": delta_v(leading),
        }
    return out


def fig6d_per_block_delta_v(
    study: CharacterizationStudy, aging: AgingState
) -> Dict[str, object]:
    """Fig. 6(d): per-block Delta-V spread; the paper contrasts two
    sample blocks whose Delta-V differ by ~18 %."""
    grid = study.measure(aging).astype(float)
    leading = grid[:, :, 0]
    per_block = leading.max(axis=1) / leading.min(axis=1)
    lo, hi = per_block.argmin(), per_block.argmax()
    return {
        "delta_v_per_block": per_block.tolist(),
        "block_i": int(hi),
        "block_ii": int(lo),
        "delta_v_block_i": float(per_block[hi]),
        "delta_v_block_ii": float(per_block[lo]),
        "spread_ratio": float(per_block[hi] / per_block[lo]),
    }


# ----------------------------------------------------------------------
# Fig. 8 -- effect of skipped VFYs
# ----------------------------------------------------------------------

def fig8a_ber_vs_skips(
    timing: NandTiming = NandTiming(),
    max_extra_skips: int = 4,
) -> Dict[int, Dict[str, object]]:
    """Fig. 8(a): per-state BER penalty as verifies are skipped.

    For each program state Pi, skipping up to its safe count
    (``L_min - 1`` verifies) leaves BER unchanged; every further skip
    over-programs fast cells and multiplies the error rate.  Also
    reports the tPROG saved by the full safe-skip plan.
    """
    engine = IsppEngine(timing)
    profile = engine.wl_profile(0.0)
    default = engine.simulate(profile, ProgramParams.default(engine.n_states))
    safe_skips = n_skip_per_state(profile)
    out: Dict[int, Dict[str, object]] = {}
    for state in range(1, engine.n_states + 1):
        penalties = []
        safe = safe_skips[state - 1]
        for extra in range(max_extra_skips + 1):
            starts = [1] * engine.n_states
            starts[state - 1] = 1 + safe + extra
            params = ProgramParams(verify_plan=VerifyPlan(tuple(starts)))
            result = engine.simulate(profile, params)
            penalties.append(result.ber_penalty)
        out[state] = {
            "safe_skips": safe,
            "ber_penalty_by_extra_skip": penalties,
        }
    full_plan = engine.follower_params(profile, window_squeeze_mv=0)
    skipped = engine.simulate(profile, full_plan)
    out["t_prog_reduction"] = {
        "default_us": default.t_prog_us,
        "skipped_us": skipped.t_prog_us,
        "reduction_fraction": 1.0 - skipped.t_prog_us / default.t_prog_us,
        "total_safe_skips": sum(safe_skips),
    }
    return out


def fig8b_skip_distribution(
    reliability: ReliabilityModel = None,
    n_blocks: int = 16,
) -> Dict[int, Dict[str, object]]:
    """Fig. 8(b): distribution of N_skip per program state across
    h-layers/blocks (driven by the [L_min, L_max] intervals)."""
    reliability = reliability or ReliabilityModel()
    engine = IsppEngine()
    counts: Dict[int, List[int]] = {s: [] for s in range(1, engine.n_states + 1)}
    for block in range(n_blocks):
        for layer in range(reliability.geometry.n_layers):
            slowdown = reliability.program_slowdown(0, block, layer)
            profile = engine.wl_profile(slowdown)
            for state, skips in enumerate(n_skip_per_state(profile), start=1):
                counts[state].append(skips)
    return {
        state: {
            "mean": float(np.mean(values)),
            "min": int(np.min(values)),
            "max": int(np.max(values)),
        }
        for state, values in counts.items()
    }


# ----------------------------------------------------------------------
# Figs. 10/11 -- window adjustment margins
# ----------------------------------------------------------------------

def fig10_adjustment_margins(
    reliability: ReliabilityModel = None,
    aging: AgingState = AgingState(0, 0),
    ecc_ber_limit: float = 7.7e-3,
    block: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Fig. 10: how much (V_start, V_final) adjustment each representative
    h-layer can afford before its BER crosses the ECC limit."""
    reliability = reliability or ReliabilityModel()
    layers = representative_layers(reliability)
    out = {}
    for name, layer in layers.items():
        ber = reliability.layer_ber(0, block, layer, aging)
        # max squeeze x with ber * exp(x / tau) <= limit
        from repro.nand.ispp import WINDOW_SQUEEZE_TAU_MV

        max_margin = WINDOW_SQUEEZE_TAU_MV * np.log(ecc_ber_limit / ber)
        out[name] = {
            "layer": layer,
            "ber": ber,
            "max_safe_margin_mv": float(max(0.0, max_margin)),
        }
    return out


def fig10b_ber_vs_margin(
    margins_mv: Sequence[int] = (0, 80, 160, 240, 320, 400, 480),
) -> Dict[int, float]:
    """Fig. 10(b): BER growth as the window is tightened."""
    return {
        margin: window_squeeze_ber_multiplier(margin) for margin in margins_mv
    }


def fig11a_ber_ep1_correlation(
    reliability: ReliabilityModel = None,
    agings: Sequence[AgingState] = (
        AgingState(0, 0),
        AgingState(1000, 1.0),
        AgingState(2000, 1.0),
        AgingState(2000, 12.0),
    ),
    n_blocks: int = 8,
) -> Dict[str, object]:
    """Fig. 11(a): BER_EP1 tracks the retention BER (correlation), making
    it a valid online health predictor."""
    reliability = reliability or ReliabilityModel()
    ep1 = []
    retention = []
    for aging in agings:
        for block in range(n_blocks):
            for layer in range(0, reliability.geometry.n_layers, 4):
                ep1.append(reliability.ber_ep1(0, block, layer, 0, aging))
                retention.append(reliability.wl_ber(0, block, layer, 0, aging))
    correlation = float(np.corrcoef(ep1, retention)[0, 1])
    return {"ber_ep1": ep1, "retention_ber": retention, "correlation": correlation}


def fig11b_margin_conversion(
    table: MarginTable = DEFAULT_MARGIN_TABLE,
    timing: NandTiming = NandTiming(),
    s_m_points: Sequence[float] = (0.0, 0.4, 0.8, 1.2, 1.7, 2.5, 4.0),
) -> Dict[float, Dict[str, float]]:
    """Fig. 11(b): S_M -> total adjustment margin -> tPROG reduction.

    The paper's anchor: S_M = 1.7 grants 320 mV and cuts tPROG by about
    19.7 %.
    """
    engine = IsppEngine(timing)
    profile = engine.wl_profile(0.0)
    default = engine.simulate(profile, ProgramParams.default(engine.n_states))
    out = {}
    for s_m in s_m_points:
        margin = table.margin_mv(s_m)
        params = engine.follower_params(profile, window_squeeze_mv=int(margin))
        # isolate the window effect: disable verify skipping
        window_only = ProgramParams(
            v_start_mv=params.v_start_mv,
            v_final_mv=params.v_final_mv,
            dv_ispp_mv=params.dv_ispp_mv,
            verify_plan=VerifyPlan.default(engine.n_states),
        )
        result = engine.simulate(profile, window_only)
        out[s_m] = {
            "margin_mv": margin,
            "t_prog_us": result.t_prog_us,
            "t_prog_reduction": 1.0 - result.t_prog_us / default.t_prog_us,
        }
    return out


# ----------------------------------------------------------------------
# Fig. 13 -- program-order reliability equivalence
# ----------------------------------------------------------------------

def fig13_program_order_ber(
    seed: int = 0,
    aging: AgingState = AgingState(1000, 1.0),
) -> Dict[str, Dict[str, float]]:
    """Fig. 13: mean block BER after programming whole blocks in each of
    the three orders, normalized over horizontal-first.

    WLs are isolated by SL transistors, so the order leaves BER unchanged
    up to RTN-scale program-instance noise (< 3 %).  Returns, per order,
    the block-mean BER normalized over horizontal-first, plus the largest
    per-WL deviation from the horizontal-first measurement.
    """
    geometry = None
    per_wl: Dict[str, np.ndarray] = {}
    for order in ProgramOrder:
        chip = NandChip(chip_id=1, n_blocks=2, store_tags=False, env_shift_prob=0.0)
        chip.set_baseline_aging(aging)
        geometry = chip.geometry
        block = 0
        for address in program_sequence(geometry, order):
            chip.program_wl(block, address.layer, address.wl)
        grid = np.zeros((geometry.n_layers, geometry.wls_per_layer))
        for layer in range(geometry.n_layers):
            for wl in range(geometry.wls_per_layer):
                grid[layer, wl] = chip.read_page(block, layer, wl, 0).ber
        per_wl[order.value] = grid
    reference = per_wl[ProgramOrder.HORIZONTAL_FIRST.value]
    out: Dict[str, Dict[str, float]] = {}
    for name, grid in per_wl.items():
        out[name] = {
            "normalized_mean_ber": float(grid.mean() / reference.mean()),
            "max_wl_deviation": float(np.abs(grid / reference - 1.0).max()),
        }
    return out


# ----------------------------------------------------------------------
# Fig. 14 -- PS-aware read-retry reduction
# ----------------------------------------------------------------------

def fig14_read_retry_distribution(
    aging: AgingState = AgingState(2000, 12.0),
    n_blocks: int = 12,
    reads_per_wl: int = 1,
    seed: int = 0,
) -> Dict[str, object]:
    """Fig. 14: NumRetry distributions, PS-unaware vs. PS-aware.

    Reads sweep whole blocks page by page (the dominant pattern of both
    sequential host reads and GC migration).  The PS-unaware controller
    starts every read at the default references; the PS-aware controller
    starts from the ORT entry of the page's h-layer.
    """
    chip = NandChip(chip_id=2, n_blocks=n_blocks, store_tags=False)
    chip.set_baseline_aging(aging)
    ort = OptimalReadTable()
    unaware: List[int] = []
    aware: List[int] = []
    geometry = chip.geometry
    for block in range(n_blocks):
        for layer in range(geometry.n_layers):
            for wl in range(geometry.wls_per_layer):
                chip.program_wl(block, layer, wl)
        for layer in range(geometry.n_layers):
            for wl in range(geometry.wls_per_layer):
                for page in range(geometry.pages_per_wl):
                    for _ in range(reads_per_wl):
                        baseline = chip.read_page(block, layer, wl, page)
                        unaware.append(baseline.num_retry)
                        hint = ort.get(chip.chip_id, block, layer)
                        result = chip.read_page(
                            block, layer, wl, page, ReadParams(offset_hint=hint)
                        )
                        aware.append(result.num_retry)
                        ort.update(chip.chip_id, block, layer, result.final_offset)
    unaware_arr = np.asarray(unaware)
    aware_arr = np.asarray(aware)
    reduction = 1.0 - aware_arr.mean() / unaware_arr.mean()
    max_retry = int(max(unaware_arr.max(), aware_arr.max()))
    return {
        "unaware_mean": float(unaware_arr.mean()),
        "aware_mean": float(aware_arr.mean()),
        "reduction": float(reduction),
        "unaware_histogram": np.bincount(unaware_arr, minlength=max_retry + 1).tolist(),
        "aware_histogram": np.bincount(aware_arr, minlength=max_retry + 1).tolist(),
    }
