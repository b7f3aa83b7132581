"""Study the three program sequences and the WAM's adaptive allocation.

Part 1 reproduces Fig. 13: programming whole blocks horizontal-first,
vertical-first, and mixed-order is reliability-equivalent on 3D NAND.

Part 2 shows *why* the order matters anyway: the number of fast follower
WLs available after k writes -- the quantity that bounds burst-write
bandwidth -- differs drastically between the orders, and the WAM exploits
exactly that freedom (Section 5.2).

Run:  python examples/program_order_study.py
"""

from repro.analysis.tables import format_table
from repro.characterization.experiments import fig13_program_order_ber
from repro.core.program_order import (
    ProgramOrder,
    available_followers_after,
    max_follower_run,
)
from repro.core.wam import WLAllocationManager
from repro.nand.geometry import BlockGeometry


def main() -> None:
    geometry = BlockGeometry()

    print("== Part 1: reliability equivalence (Fig. 13) ==")
    results = fig13_program_order_ber()
    rows = [
        [name, f"{stats['normalized_mean_ber']:.4f}",
         f"{100 * stats['max_wl_deviation']:.2f} %"]
        for name, stats in results.items()
    ]
    print(format_table(["sequence", "normalized BER", "max WL deviation"], rows))

    print("\n== Part 2: follower availability over time ==")
    steps = [12, 48, 96, 144]
    rows = []
    for order in ProgramOrder:
        rows.append(
            [order.value, max_follower_run(geometry, order)]
            + [available_followers_after(geometry, order, step) for step in steps]
        )
    print(format_table(
        ["sequence", "max run"] + [f"after {s} WLs" for s in steps], rows
    ))

    print("\n== Part 3: the WAM in action ==")
    wam = WLAllocationManager(geometry, mu_threshold=0.9)
    wam.install_block(0, 0)
    wam.install_block(0, 1)
    # calm period: mu low -> leaders, banking followers for later
    for _ in range(6):
        wam.allocate(0, utilization=0.4)
    banked = wam.free_wls(0)
    print(f"after 6 calm writes: {wam.leader_allocations} leaders programmed, "
          f"follower pool ready")
    # burst: mu above the threshold -> followers absorb it
    burst = [wam.allocate(0, utilization=0.97) for _ in range(12)]
    followers = sum(1 for a in burst if not a.is_leader)
    print(f"12-write burst at mu=0.97: {followers}/12 served by fast followers")


if __name__ == "__main__":
    main()
