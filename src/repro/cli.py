"""Command-line interface.

Ten subcommands cover the common flows::

    repro-ssd characterize --chips 4 --blocks 8
        run the Section 3 study and print Delta-H / Delta-V summaries

    repro-ssd simulate --ftl cube --workload OLTP --pe 2000 --retention 12
        replay one workload against one FTL and print the stats

    repro-ssd compare --workload Proxy --pe 2000 --retention 12
        replay one workload against pageFTL / vertFTL / cubeFTL and print
        the normalized comparison (one Fig. 17 slice)

    repro-ssd sweep --ftls page,cube --workloads OLTP,Proxy \\
            --aging 0:0 2000:12 --jobs 4
        run the cross product of FTLs x workloads x aging states (x fault
        campaigns), sharded over worker processes; each cell's seed is
        derived only from the base seed and the cell's name, so the sweep
        output is identical for any --jobs value

    repro-ssd fuzz --seed 7 --ops 400 --check=strict
        replay one seeded random workload through several FTLs under the
        runtime invariant checker and diff their final logical state

    repro-ssd tenants --rate 20000 --json scenario.json
        run a multi-tenant scenario (shared device plus per-tenant solo
        baselines) and print the interference matrix

    repro-ssd contract --workload trace:msr.csv
        score a workload or recorded trace against the unwritten flash
        contract (alignment, sequentiality, locality, death-time grouping)

    repro-ssd report runs/<run_id>
        render the ASCII dashboard of a run artifact written with
        --artifacts (latency CDF, telemetry sparklines, tail exemplars)

    repro-ssd diff runs/<a> runs/<b>
        compare two run artifacts metric by metric with tolerance
        verdicts (exit 1 on regression, 2 on schema mismatch)

    repro-ssd spor --ftl cube --spor-at 20000
        cut power mid-run, recover the FTL from per-page OOB metadata,
        and verify the recovered device against the shadow-store oracle

``simulate``, ``compare`` and ``sweep`` build one
:class:`~repro.specs.SimulationSpec` per run: the command's flags, or
its ``--spec FILE`` (JSON/TOML; ``simulate`` and ``sweep``), with the
run-option flags (``--trace``, ``--telemetry``, ``--check``,
``--artifacts``, ...) applied.  ``simulate`` and ``compare`` run each
spec with :func:`repro.api.run_spec`, ``sweep`` its cells with
:func:`repro.api.run_many`.  ``tenants`` also accepts ``--spec``.  A
flat flag that describes the run (``--ftl``, ``--requests``, ...) is
refused beside ``--spec``.
Everywhere a workload name is accepted, a ``trace:<path>`` reference
replays a recorded block trace.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from repro.analysis.tables import format_table
from repro.api import run_spec, spec_from_kwargs
from repro.faults import CAMPAIGNS, get_campaign
from repro.nand.reliability import AgingState
from repro.obs.log import LEVELS, configure_logging, get_logger, log_event
from repro.specs import SimulationSpec, load_spec_file
from repro.ssd.config import SSDConfig
from repro.workloads import WORKLOAD_GENERATORS, is_trace_path

# fixed name so `python -m repro.cli` and the installed entry point
# emit identical logger= fields
logger = get_logger("repro.cli")


def _workload_arg(value: str) -> str:
    """Accept a registry workload name or a ``trace:<path>`` reference."""
    if is_trace_path(value) or value in WORKLOAD_GENERATORS:
        return value
    raise argparse.ArgumentTypeError(
        f"unknown workload {value!r}; choose from "
        f"{sorted(WORKLOAD_GENERATORS)} or a trace:<path> reference"
    )


class _FlatFlag(argparse.Action):
    """``store``, noting the flag as given: a flat flag describes the
    run, so a command refuses it beside ``--spec``, whose file does."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        given = getattr(namespace, "flat_flags", [])
        namespace.flat_flags = given + [option_string]


def _refuse_flat_flags(args: argparse.Namespace) -> None:
    """Refuse the flat flags given beside ``--spec``, by name, before
    anything is built (they would otherwise be silently ignored)."""
    given = list(dict.fromkeys(getattr(args, "flat_flags", [])))
    if getattr(args, "spec", None) and given:
        raise SystemExit(
            f"{', '.join(given)} cannot be combined with --spec: the spec "
            "file describes the run (edit the file instead)"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ssd",
        description="cubeFTL reproduction: characterization and SSD simulation",
    )
    parser.add_argument(
        "--log-level",
        choices=LEVELS,
        default="warning",
        dest="log_level",
        help="threshold for structured 'REPRO key=value' diagnostics on "
        "stderr (default: warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    characterize = sub.add_parser(
        "characterize", help="run the Section 3 process-characterization study"
    )
    characterize.add_argument("--chips", type=int, default=4)
    characterize.add_argument("--blocks", type=int, default=8)
    characterize.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write a full markdown characterization report to PATH",
    )

    def add_sim_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workload",
            action=_FlatFlag,
            type=_workload_arg,
            default="OLTP",
            metavar="NAME",
            help="workload name "
            f"({', '.join(sorted(WORKLOAD_GENERATORS))}) or a "
            "trace:<path> reference to a recorded block trace "
            "(default: OLTP)",
        )
        p.add_argument(
            "--pe", action=_FlatFlag, type=int, default=0,
            help="pre-cycled P/E count",
        )
        p.add_argument(
            "--retention", action=_FlatFlag, type=float, default=0.0,
            help="retention months",
        )
        p.add_argument("--requests", action=_FlatFlag, type=int, default=8000)
        p.add_argument("--warmup", action=_FlatFlag, type=int, default=2500)
        p.add_argument("--queue-depth", action=_FlatFlag, type=int, default=32)
        p.add_argument(
            "--blocks-per-chip", action=_FlatFlag, type=int, default=48
        )
        p.add_argument("--prefill", action=_FlatFlag, type=float, default=0.9)
        p.add_argument("--seed", action=_FlatFlag, type=int, default=7)
        p.add_argument(
            "--faults",
            action=_FlatFlag,
            choices=sorted(CAMPAIGNS),
            default="none",
            help="fault-injection campaign (default: none)",
        )
        p.add_argument(
            "--check",
            nargs="?",
            const="on",
            choices=["on", "strict"],
            default=None,
            help="attach the runtime invariant checker (bare --check: "
            "per-event invariants + data-integrity oracle + one deep "
            "audit at the end; --check=strict: also deep-audit after "
            "every erase and periodically); any violation aborts with "
            "the offending LPN/PPN/block and timestamp",
        )

    simulate = sub.add_parser("simulate", help="replay a workload on one FTL")
    simulate.add_argument(
        "--ftl",
        action=_FlatFlag,
        choices=["page", "vert", "cube", "cube-", "oracle", "dftl"],
        default="cube",
    )
    simulate.add_argument(
        "--cmt-capacity",
        action=_FlatFlag,
        type=int,
        default=None,
        dest="cmt_capacity",
        metavar="ENTRIES",
        help="dftl only: cached-mapping-table capacity in L2P entries "
        "(default: the FTL's built-in 64)",
    )
    simulate.add_argument(
        "--spec",
        metavar="FILE",
        default=None,
        help="run a SimulationSpec from a JSON/TOML file instead of the "
        "flat flags, which are refused beside it (see docs/WORKLOADS.md); "
        "the run-option flags (--trace, --metrics-interval, --telemetry, "
        "--profile, --check, --checkpoint, --resume, --artifacts) "
        "override the file's options, and --json / --log-level apply as "
        "usual",
    )
    simulate.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the full stats as JSON to PATH (result schema v2)",
    )
    simulate.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="stream a request-lifecycle span trace (JSONL) to PATH and "
        "print the per-stage latency breakdown",
    )
    simulate.add_argument(
        "--metrics-interval",
        metavar="US",
        type=float,
        default=None,
        dest="metrics_interval",
        help="sample time-sliced metrics every US simulated microseconds "
        "and print the timeline; also the window of --artifacts' "
        "telemetry time series (default there: 1000)",
    )
    simulate.add_argument(
        "--telemetry",
        action="store_true",
        help="record device telemetry (per-die busy time, queue depths, "
        "per-h-layer retries / tPROG, ORT hits) and print the heatmaps; "
        "the snapshot is embedded in --json output when both are given",
    )
    simulate.add_argument(
        "--profile",
        action="store_true",
        help="sample the replay's host CPU time per layer (ftl.gc, "
        "nand.chip, sim.engine, ...) with SIGPROF and print the table",
    )
    simulate.add_argument(
        "--checkpoint",
        metavar="DIR",
        default=None,
        help="write a resumable checkpoint into DIR every "
        "--checkpoint-every completed requests (see docs/PERSISTENCE.md)",
    )
    simulate.add_argument(
        "--checkpoint-every",
        metavar="N",
        type=int,
        default=1000,
        dest="checkpoint_every",
        help="checkpoint cadence in completed host requests "
        "(default: 1000; only with --checkpoint)",
    )
    simulate.add_argument(
        "--resume",
        metavar="CKPT",
        default=None,
        help="resume from a checkpoint directory (ckpt_NNNNNNNN); the "
        "continued run is byte-identical to the uninterrupted one",
    )
    simulate.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="write a self-contained run artifact (spec, result, "
        "latency grids, telemetry time-series, tail exemplars, typed "
        "manifest) under DIR/<run_id>/; inspect it with "
        "'repro-ssd report' and 'repro-ssd diff'",
    )
    add_sim_args(simulate)

    compare = sub.add_parser(
        "compare", help="replay a workload on the three FTLs of the paper"
    )
    add_sim_args(compare)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzz: replay one seeded random workload "
        "through several FTLs under the invariant checker and diff the "
        "final logical state",
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=7,
        help="trace + device seed; a failing report is replayed by "
        "rerunning with the same seed (default: 7)",
    )
    fuzz.add_argument(
        "--ops",
        type=int,
        default=400,
        help="host requests in the generated trace (default: 400)",
    )
    fuzz.add_argument(
        "--ftls",
        default="page,vert,cube,oracle,dftl",
        help="comma-separated FTL variants to diff "
        "(default: page,vert,cube,oracle,dftl)",
    )
    fuzz.add_argument(
        "--check",
        nargs="?",
        const="strict",
        choices=["on", "strict"],
        default="strict",
        help="checker level (default: strict)",
    )
    fuzz.add_argument(
        "--faults",
        choices=sorted(CAMPAIGNS),
        default="none",
        help="run the fuzz under a fault campaign (default: none)",
    )
    fuzz.add_argument("--queue-depth", type=int, default=8)
    fuzz.add_argument("--prefill", type=float, default=0.4)

    sweep = sub.add_parser(
        "sweep",
        help="run an FTL x workload x aging (x faults) cross product "
        "across worker processes",
    )
    sweep.add_argument(
        "--spec",
        metavar="FILE",
        default=None,
        help="use a SimulationSpec file as the base cell; the sweep "
        "crosses it with --ftls x --aging x --faults (its workload, "
        "host model, and geometry replace the flat flags, which are "
        "refused beside it)",
    )
    sweep.add_argument(
        "--ftls",
        default="page,vert,cube",
        help="comma-separated FTL variants, any of "
        "page/vert/cube/cube-/oracle/dftl (default: page,vert,cube)",
    )
    sweep.add_argument(
        "--workloads",
        action=_FlatFlag,
        default="OLTP",
        help="comma-separated workload names (default: OLTP)",
    )
    sweep.add_argument(
        "--aging",
        nargs="+",
        default=["0:0"],
        metavar="PE:MONTHS",
        help="aging states as PE:MONTHS pairs, e.g. --aging 0:0 2000:12 "
        "(default: fresh only)",
    )
    sweep.add_argument(
        "--faults",
        nargs="+",
        choices=sorted(CAMPAIGNS),
        default=["none"],
        help="fault campaigns to sweep over (default: none)",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to shard the sweep across (default 1: "
        "inline; results are identical for any value)",
    )
    sweep.add_argument("--requests", action=_FlatFlag, type=int, default=2000)
    sweep.add_argument("--warmup", action=_FlatFlag, type=int, default=500)
    sweep.add_argument("--queue-depth", action=_FlatFlag, type=int, default=32)
    sweep.add_argument(
        "--blocks-per-chip", action=_FlatFlag, type=int, default=16
    )
    sweep.add_argument("--prefill", action=_FlatFlag, type=float, default=0.5)
    sweep.add_argument(
        "--seed",
        type=int,
        default=7,
        help="base seed; each cell runs with derive_seed(seed, cell_name)",
    )
    sweep.add_argument(
        "--telemetry",
        action="store_true",
        help="record device telemetry per cell and include the merged "
        "snapshot in --json output",
    )
    sweep.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the full sweep results (per-cell schema-v2 stats, "
        "derived seeds, errors) as JSON to PATH",
    )
    sweep.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        dest="checkpoint_dir",
        help="save per-cell results into DIR as they complete; an "
        "interrupted sweep rerun with the same DIR (and the same cells "
        "and seed) reruns only the unfinished cells",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=0,
        help="relaunch a cell whose worker hard-died (segfault, OOM "
        "kill) up to N times with the same derived seed (default: 0)",
    )
    sweep.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="write one run artifact per cell under DIR plus a "
        "sweep.json index; inspect cells with 'repro-ssd report' and "
        "compare them with 'repro-ssd diff'",
    )

    tenants = sub.add_parser(
        "tenants",
        help="run a multi-tenant scenario (shared device + per-tenant "
        "solo baselines) and print the interference matrix",
    )
    tenants.add_argument(
        "--spec",
        metavar="FILE",
        default=None,
        help="SimulationSpec file with host.tenants; without it, a "
        "built-in 4-tenant mixed scenario (OLTP/Mail/Web/Proxy, one "
        "LPN-space quarter each) runs, and the scenario flags below are "
        "refused beside it",
    )
    tenants.add_argument(
        "--requests-per-tenant",
        action=_FlatFlag,
        type=int,
        default=2000,
        dest="requests_per_tenant",
        help="requests per tenant stream in the built-in scenario "
        "(default: 2000)",
    )
    tenants.add_argument(
        "--rate",
        action=_FlatFlag,
        type=float,
        default=20000.0,
        help="per-tenant arrival rate in IOPS for the built-in "
        "scenario (default: 20000)",
    )
    tenants.add_argument(
        "--ftl",
        action=_FlatFlag,
        choices=["page", "vert", "cube", "cube-", "oracle", "dftl"],
        default="cube",
        help="FTL for the built-in scenario (a --spec file carries its "
        "own ftl field)",
    )
    tenants.add_argument("--queue-depth", action=_FlatFlag, type=int, default=32)
    tenants.add_argument(
        "--blocks-per-chip", action=_FlatFlag, type=int, default=48
    )
    tenants.add_argument("--prefill", action=_FlatFlag, type=float, default=0.9)
    tenants.add_argument("--seed", action=_FlatFlag, type=int, default=7)
    tenants.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the shared + solo runs (default 1; "
        "results are identical for any value)",
    )
    tenants.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the scenario result (per-tenant stats + "
        "interference matrix) as JSON to PATH",
    )
    tenants.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="write one run artifact per scenario run (shared + each "
        "solo baseline) under DIR",
    )

    report = sub.add_parser(
        "report",
        help="render the ASCII dashboard of one run-artifact directory "
        "(latency CDF, telemetry sparklines, slowest-span exemplars, "
        "telemetry deltas)",
    )
    report.add_argument(
        "run_dir",
        metavar="RUN_DIR",
        help="artifact directory written by --artifacts (runs/<run_id>)",
    )
    report.add_argument(
        "--html",
        metavar="PATH",
        default=None,
        help="also write the dashboard as a single self-contained HTML "
        "page to PATH",
    )

    diff = sub.add_parser(
        "diff",
        help="compare two run artifacts metric by metric with tolerance "
        "verdicts (exit 0 clean, 1 regression, 2 schema mismatch)",
    )
    diff.add_argument("run_a", metavar="RUN_A", help="baseline artifact directory")
    diff.add_argument("run_b", metavar="RUN_B", help="candidate artifact directory")
    diff.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="relative change beyond which a worse gated metric is a "
        "regression (default: 0.10)",
    )

    contract = sub.add_parser(
        "contract",
        help="score a workload or trace against the unwritten flash "
        "contract (alignment, sequentiality, locality, death-time "
        "grouping)",
    )
    contract.add_argument(
        "--workload",
        type=_workload_arg,
        default="OLTP",
        metavar="NAME",
        help="workload name or trace:<path> reference (default: OLTP)",
    )
    contract.add_argument("--requests", type=int, default=8000)
    contract.add_argument("--blocks-per-chip", type=int, default=48)
    contract.add_argument("--seed", type=int, default=7)
    contract.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the contract scores as JSON to PATH",
    )

    spor = sub.add_parser(
        "spor",
        help="sudden-power-off drill: run a workload, cut power "
        "mid-run, recover the FTL from per-page OOB metadata, and "
        "verify the recovered device against the shadow-store oracle",
    )
    spor.add_argument(
        "--ftl", choices=["page", "vert", "cube", "cube-", "oracle", "dftl"],
        default="cube",
    )
    spor.add_argument(
        "--spor-at",
        metavar="US",
        type=float,
        default=None,
        dest="spor_at",
        help="simulated microsecond of the power cut (default: the "
        "'spor' campaign's instant)",
    )
    spor.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the SPOR report as JSON to PATH",
    )
    add_sim_args(spor)
    return parser


def _device(blocks_per_chip: int) -> SSDConfig:
    """The CLI's drive: the default SSD with ``blocks_per_chip`` blocks
    on each chip."""
    geometry = replace(SSDConfig().geometry, blocks_per_chip=blocks_per_chip)
    return SSDConfig(geometry=geometry)


def _config(args: argparse.Namespace) -> SSDConfig:
    return (
        _device(args.blocks_per_chip)
        .with_aging(AgingState(args.pe, args.retention))
        .with_faults(get_campaign(args.faults))
    )


def _run_options(args: argparse.Namespace) -> dict:
    """The :class:`~repro.specs.RunOptions` fields set on the command
    line (``--checkpoint-every`` only counts with ``--checkpoint``)."""
    checkpoint_dir = getattr(args, "checkpoint", None)
    options = {
        "trace": getattr(args, "trace", None),
        "metrics_interval": getattr(args, "metrics_interval", None),
        "telemetry": getattr(args, "telemetry", False),
        "profile": getattr(args, "profile", False),
        "check": getattr(args, "check", None),
        "checkpoint_every": (
            args.checkpoint_every if checkpoint_dir is not None else None
        ),
        "checkpoint_dir": checkpoint_dir,
        "resume_from": getattr(args, "resume", None),
        "artifact_dir": getattr(args, "artifacts", None),
    }
    return {
        key: value
        for key, value in options.items()
        if value is not None and value is not False
    }


def _spec(
    args: argparse.Namespace,
    config: Optional[SSDConfig] = None,
    workload: Optional[str] = None,
    ftl: str = "cube",
) -> SimulationSpec:
    """The run a command describes, with its run-option flags applied:
    its ``--spec`` file, or else ``workload`` on ``config`` under
    ``ftl`` with the flat flags (queue depth, warm-up, prefill,
    requests, seed, ``--cmt-capacity``)."""
    if getattr(args, "spec", None):
        spec = load_spec_file(args.spec)
    else:
        ftl_kwargs = {}
        cmt_capacity = getattr(args, "cmt_capacity", None)
        if cmt_capacity is not None:
            if ftl != "dftl":
                raise SystemExit("--cmt-capacity only applies to --ftl dftl")
            ftl_kwargs["cmt_capacity"] = cmt_capacity
        spec = spec_from_kwargs(
            config,
            workload,
            ftl,
            queue_depth=args.queue_depth,
            warmup_requests=args.warmup,
            prefill=args.prefill,
            n_requests=args.requests,
            seed=args.seed,
            **ftl_kwargs,
        )
    return spec.with_options(**_run_options(args))


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.characterization import experiments as exp
    from repro.characterization.harness import CharacterizationStudy, StudyConfig

    study = CharacterizationStudy(
        StudyConfig(n_chips=args.chips, blocks_per_chip=args.blocks)
    )
    print(f"blocks: {study.config.total_blocks}, WLs: {study.config.total_wls}")
    intra = exp.fig5_intra_layer_ber(study, AgingState(2000, 12.0))
    rows = [
        [name, stats["layer"], f"{stats['delta_h']:.4f}"]
        for name, stats in intra.items()
    ]
    print("\nintra-layer similarity (2K P/E + 1 yr):")
    print(format_table(["h-layer", "index", "Delta-H"], rows))
    inter = exp.fig6_inter_layer_ber(
        study, [AgingState(0, 0), AgingState(2000, 12.0)]
    )
    print("\ninter-layer variability:")
    rows = [
        [f"{pe} P/E + {ret} mo", f"{stats['delta_v']:.2f}"]
        for (pe, ret), stats in inter.items()
    ]
    print(format_table(["condition", "Delta-V"], rows))
    if args.report:
        from repro.characterization.report import build_report

        with open(args.report, "w") as handle:
            handle.write(build_report(study))
        print(f"\nfull report written to {args.report}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    result = run_spec(_spec(args, _config(args), args.workload, args.ftl))
    stats = result.stats
    print(stats.summary())
    if stats.tenants:
        rows = [
            [
                name,
                str(tenant.completed_requests),
                f"{tenant.iops(stats.duration_us):.0f}",
                f"{tenant.p99_us:.0f}",
            ]
            for name, tenant in sorted(stats.tenants.items())
        ]
        print(format_table(["tenant", "requests", "IOPS", "p99 us"], rows))
    counters = stats.counters
    print(
        f"programs: {counters.flash_programs} host + {counters.gc_programs} GC "
        f"(followers {counters.follower_programs}, reprograms {counters.reprograms}); "
        f"mean tPROG {counters.mean_t_prog_us:.0f} us; "
        f"retries/read {counters.mean_num_retry:.2f}; erases {counters.erases}"
    )
    recovery = stats.recovery
    if recovery is not None and recovery.any():
        log_event(
            logger,
            "warning",
            "fault_recovery",
            program_fails=recovery.program_fails,
            erase_fails=recovery.erase_fails,
            blocks_retired=recovery.blocks_retired,
            scrubs=recovery.scrubs,
            ort_invalidations=recovery.ort_invalidations,
            recovered_reads=recovery.recovered_reads,
            uncorrectable=recovery.uncorrectable_after_recovery,
        )
    if result.artifact is not None:
        print(f"artifact written to {result.artifact}")
    if args.resume:
        print(f"resumed from {args.resume}")
    if args.checkpoint:
        print(
            f"checkpoints in {args.checkpoint} "
            f"(every {args.checkpoint_every} requests)"
        )
    if args.trace:
        from repro.obs.analyze import breakdown_report, load_trace

        print(f"\ntrace written to {args.trace}")
        print(breakdown_report(load_trace(args.trace)))
    if args.metrics_interval is not None and result.metrics:
        from repro.obs.analyze import metrics_report

        print()
        print(metrics_report(result.metrics))
    if args.telemetry:
        print()
        print(result.telemetry_report())
    if args.profile:
        from repro.obs.profile import profile_report, unavailable_reason

        print()
        if result.profile is None:
            print(f"profile unavailable: {unavailable_reason()}")
        else:
            print(profile_report(result.profile))
    if args.check is not None and result.check is not None:
        oracle = result.check["oracle"]
        print(
            f"check[{result.check['level']}]: 0 violations; "
            f"{oracle['reads_verified'] + oracle['buffer_reads_verified']} "
            f"reads verified, {result.check['deep_scans']} deep audits, "
            f"digest {result.check['state_digest'][:16]}"
        )
    if args.json:
        import json

        payload = stats.to_dict()
        if args.telemetry:
            payload["telemetry"] = result.telemetry
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"stats written to {args.json}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _config(args)
    rows = []
    base = None
    for ftl in ("page", "vert", "cube", "dftl"):
        stats = run_spec(_spec(args, config, args.workload, ftl)).stats
        if base is None:
            base = stats.iops
        rows.append(
            [
                stats.ftl_name,
                f"{stats.iops:.0f}",
                f"{stats.iops / base:.2f}",
                f"{stats.counters.mean_t_prog_us:.0f}",
                f"{stats.counters.mean_num_retry:.2f}",
                f"{stats.write_latency.percentile(90):.0f}",
                f"{stats.read_latency.percentile(90):.0f}",
            ]
        )
    print(
        format_table(
            ["FTL", "IOPS", "norm", "tPROG us", "retries/read",
             "write p90 us", "read p90 us"],
            rows,
        )
    )
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.check.fuzz import run_fuzz

    ftls = [f for f in args.ftls.split(",") if f]
    if not ftls:
        raise SystemExit("fuzz needs at least one FTL")
    report = run_fuzz(
        seed=args.seed,
        ops=args.ops,
        ftls=ftls,
        level=args.check,
        faults=get_campaign(args.faults),
        queue_depth=args.queue_depth,
        prefill=args.prefill,
    )
    print(report.summary())
    if not report.ok:
        print(
            f"reproduce with: repro-ssd fuzz --seed {args.seed} "
            f"--ops {args.ops} --ftls {args.ftls} --check={args.check}",
            file=sys.stderr,
        )
        return 1
    return 0


def _sweep_cells(args: argparse.Namespace):
    """RunSpecs for the sweep's cross product, in deterministic order.

    A base spec (the ``--spec`` file, or the flags' spec of each
    workload) crossed with every FTL, aging state and fault campaign.
    Each cell's name encodes every swept dimension, and the name is all
    the seed derivation sees -- so a cell keeps its seed (and its
    results) when other cells are added to or removed from the sweep.
    """
    from repro.parallel import RunSpec

    ftls = [f for f in args.ftls.split(",") if f]
    agings = []
    for pair in args.aging:
        try:
            pe_text, months_text = pair.split(":", 1)
            agings.append(AgingState(int(pe_text), float(months_text)))
        except ValueError:
            raise SystemExit(
                f"bad --aging value {pair!r} (expected PE:MONTHS, e.g. 2000:12)"
            )
    if args.spec:
        bases = [_spec(args)]
    else:
        device = _device(args.blocks_per_chip)
        bases = [
            _spec(args, device, workload)
            for workload in args.workloads.split(",")
            if workload
        ]
    cells = []
    for ftl in ftls:
        for base in bases:
            for aging in agings:
                for fault in args.faults:
                    name = (
                        f"{ftl}-{base.workload_name}"
                        f"-pe{aging.pe_cycles}-ret{aging.retention_months:g}"
                    )
                    if fault != "none":
                        name += f"-{fault}"
                    config = base.config.with_aging(aging).with_faults(
                        get_campaign(fault)
                    )
                    cells.append(
                        RunSpec(name, replace(base, ftl=ftl, config=config))
                    )
    return cells


def _heartbeat_printer(n_runs: int):
    """A live single-line progress display for batched runs.

    Returns ``(heartbeat, clear)``: ``heartbeat(name, payload)`` feeds a
    shard's latest ``completed``/``total``/``sim_us`` watermark and
    redraws an aggregate status line on stderr (``\\r``-rewritten on a
    tty, plain lines otherwise); ``clear()`` ends the line so normal
    output continues cleanly.  Display only -- the wall-clock ETA never
    feeds back into any simulation.
    """
    import time

    state: dict = {}
    started = time.monotonic()
    is_tty = sys.stderr.isatty()

    def heartbeat(name: str, payload: dict) -> None:
        state[name] = payload
        done = sum(p.get("completed", 0) for p in state.values())
        total = sum(p.get("total", 0) for p in state.values())
        watermark = max(
            (p.get("sim_us", 0.0) for p in state.values()), default=0.0
        )
        eta = ""
        elapsed = time.monotonic() - started
        if 0 < done < total and elapsed > 0:
            eta = f", ETA {elapsed * (total - done) / done:.0f}s"
        line = (
            f"[{len(state)}/{n_runs} shards] {done}/{total} requests, "
            f"sim t={watermark:.0f}us{eta}"
        )
        if is_tty:
            print(f"\r{line}\x1b[K", end="", file=sys.stderr, flush=True)
        else:
            print(line, file=sys.stderr, flush=True)

    def clear() -> None:
        if is_tty and state:
            print(file=sys.stderr)
            state.clear()

    return heartbeat, clear


def _partial_sweep_payload(cells, outcomes, base_seed):
    """Sweep JSON for an interrupted run: whatever completed, flagged
    ``"incomplete": true`` so downstream tooling never mistakes it for
    a full sweep."""
    from repro.parallel import resolve_seed

    by_name = {outcome.name: outcome for outcome in outcomes}
    runs = []
    for cell in cells:
        outcome = by_name.get(cell.name)
        runs.append(
            {
                "name": cell.name,
                "seed": resolve_seed(cell, base_seed),
                "ftl": cell.spec.ftl,
                "workload": cell.spec.workload_name,
                "stats": (
                    outcome.result.stats.to_dict()
                    if outcome is not None and outcome.ok
                    else None
                ),
                "error": outcome.error if outcome is not None else None,
            }
        )
    return {"base_seed": base_seed, "incomplete": True, "runs": runs}


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.api import run_many
    from repro.parallel import ShardsInterrupted, resolve_seed

    cells = _sweep_cells(args)
    if not cells:
        raise SystemExit("sweep is empty: no FTLs or workloads selected")
    print(f"sweep: {len(cells)} cell(s), {args.jobs} job(s)")
    heartbeat, clear_heartbeat = _heartbeat_printer(len(cells))

    def progress(name: str, ok: bool) -> None:
        clear_heartbeat()
        print(f"  {name}: {'done' if ok else 'FAILED'}", flush=True)

    try:
        batch = run_many(
            cells,
            jobs=args.jobs,
            base_seed=args.seed,
            on_progress=progress,
            retries=args.retries,
            checkpoint_dir=args.checkpoint_dir,
            on_heartbeat=heartbeat,
        )
    except ShardsInterrupted as interrupt:
        clear_heartbeat()
        done = len(interrupt.outcomes)
        print(
            f"\ninterrupted: {done}/{len(cells)} cell(s) complete",
            file=sys.stderr,
        )
        if args.json:
            import json

            payload = _partial_sweep_payload(
                cells, interrupt.outcomes, args.seed
            )
            with open(args.json, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            print(
                f"partial sweep results written to {args.json}",
                file=sys.stderr,
            )
        if args.checkpoint_dir:
            print(
                f"rerun with --checkpoint-dir {args.checkpoint_dir} to "
                "finish the remaining cells",
                file=sys.stderr,
            )
        return 130
    clear_heartbeat()
    if args.artifacts:
        from repro.obs.artifact import write_sweep_manifest

        artifacts = {
            cell.name: (result.artifact if result is not None else None)
            for cell, result in zip(cells, batch.results)
        }
        index = write_sweep_manifest(args.artifacts, artifacts, args.seed)
        print(f"sweep artifact index written to {index}")
    rows = []
    for cell, result in zip(cells, batch.results):
        if result is None:
            rows.append([cell.name, str(resolve_seed(cell, args.seed)),
                         "FAILED", "-", "-", "-"])
            continue
        stats = result.stats
        rows.append(
            [
                cell.name,
                str(resolve_seed(cell, args.seed)),
                f"{stats.iops:.0f}",
                f"{stats.read_latency.percentile(99):.0f}",
                f"{stats.write_latency.percentile(99):.0f}",
                f"{stats.counters.mean_num_retry:.2f}",
            ]
        )
    print(
        format_table(
            ["cell", "seed", "IOPS", "read p99 us", "write p99 us",
             "retries/read"],
            rows,
        )
    )
    if args.json:
        import json

        payload = {
            "base_seed": args.seed,
            "runs": [
                {
                    "name": cell.name,
                    "seed": resolve_seed(cell, args.seed),
                    "ftl": cell.spec.ftl,
                    "workload": cell.spec.workload_name,
                    "stats": result.stats.to_dict() if result else None,
                    "error": batch.errors.get(cell.name),
                    "retried": cell.name in batch.retried,
                    "cached": cell.name in batch.cached,
                }
                for cell, result in zip(cells, batch.results)
            ],
        }
        if batch.telemetry is not None:
            payload["telemetry"] = batch.telemetry
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"sweep results written to {args.json}")
    if batch.errors:
        for name, error in batch.errors.items():
            print(f"FAILED cell {name}:\n{error}", file=sys.stderr)
        return 1
    return 0


def _default_tenant_spec(args: argparse.Namespace):
    """The built-in 4-tenant mixed scenario: OLTP, Mail, Web, and Proxy
    streams at the same arrival rate, each confined to one quarter of the
    logical space."""
    from repro.specs import HostSpec, TenantSpec, WorkloadSpec

    names = ("OLTP", "Mail", "Web", "Proxy")
    tenants = tuple(
        TenantSpec(
            name=name.lower(),
            workload=WorkloadSpec(name, n_requests=args.requests_per_tenant),
            rate_iops=args.rate,
            partition=(index * 0.25, (index + 1) * 0.25),
        )
        for index, name in enumerate(names)
    )
    return SimulationSpec(
        config=_device(args.blocks_per_chip),
        ftl=getattr(args, "ftl", "cube"),
        host=HostSpec(queue_depth=args.queue_depth, tenants=tenants),
        prefill=args.prefill,
        seed=args.seed,
    )


def _cmd_tenants(args: argparse.Namespace) -> int:
    from repro.api import run_tenant_scenario

    if args.spec:
        spec = load_spec_file(args.spec)
        if not spec.host.tenants:
            raise SystemExit(
                f"spec {args.spec} has no host.tenants; the tenants "
                "command needs a multi-tenant spec"
            )
    else:
        spec = _default_tenant_spec(args)
    if args.artifacts:
        spec = spec.with_options(artifact_dir=args.artifacts)
    print(
        f"scenario: {', '.join(t.name for t in spec.host.tenants)} "
        f"(ftl={spec.ftl}, queue depth {spec.host.queue_depth}, "
        f"seed {spec.seed})"
    )
    heartbeat, clear_heartbeat = _heartbeat_printer(
        1 + len(spec.host.tenants)
    )
    result = run_tenant_scenario(spec, jobs=args.jobs, on_heartbeat=heartbeat)
    clear_heartbeat()
    if args.artifacts:
        written = [result.shared] + [
            result.solo[t.name] for t in spec.host.tenants
        ]
        paths = [r.artifact for r in written if r.artifact is not None]
        print(f"{len(paths)} run artifact(s) written under {args.artifacts}")
    shared = result.shared.stats
    print(shared.summary())
    matrix = result.interference_matrix()
    rows = [
        [
            name,
            f"{row['solo_iops']:.0f}",
            f"{row['shared_iops']:.0f}",
            f"{row['solo_p99_us']:.0f}",
            f"{row['shared_p99_us']:.0f}",
            f"{row['p99_slowdown']:.2f}x",
        ]
        for name, row in sorted(matrix.items())
    ]
    print("\ninterference vs solo baselines:")
    print(
        format_table(
            ["tenant", "solo IOPS", "shared IOPS", "solo p99 us",
             "shared p99 us", "p99 slowdown"],
            rows,
        )
    )
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
        print(f"scenario results written to {args.json}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.artifact import load_artifact, validate_artifact
    from repro.obs.report import render_html, render_report

    problems = validate_artifact(args.run_dir)
    if problems:
        for problem in problems:
            print(f"invalid artifact: {problem}", file=sys.stderr)
        return 2
    artifact = load_artifact(args.run_dir)
    text = render_report(artifact)
    print(text)
    if args.html:
        with open(args.html, "w") as handle:
            handle.write(render_html(artifact, report=text))
        print(f"\nHTML report written to {args.html}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.diffing import (
        SchemaDriftError,
        compare_artifacts,
        format_artifact_diff,
    )

    try:
        report = compare_artifacts(
            args.run_a, args.run_b, tolerance=args.tolerance
        )
    except (SchemaDriftError, FileNotFoundError, ValueError) as error:
        print(f"diff failed: {error}", file=sys.stderr)
        return 2
    print("\n".join(format_artifact_diff(report)))
    return 1 if report["problems"] else 0


def _cmd_contract(args: argparse.Namespace) -> int:
    from repro.obs.contract import analyze_contract, contract_report
    from repro.specs import WorkloadSpec

    trace = WorkloadSpec(
        args.workload, n_requests=args.requests, seed=args.seed
    ).build(_device(args.blocks_per_chip))
    scores = analyze_contract(trace)
    print(contract_report(scores))
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(scores, handle, indent=2, sort_keys=True)
        print(f"contract scores written to {args.json}")
    return 0


def _cmd_spor(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.persist import run_spor_campaign

    campaign = get_campaign("spor" if args.faults == "none" else args.faults)
    spor_at = args.spor_at
    if spor_at is None:
        spor_at = campaign.spor_at_us
    if spor_at is None:
        raise SystemExit(
            f"campaign {campaign.name!r} has no SPOR instant; pass --spor-at"
        )
    try:
        campaign = dataclasses.replace(campaign, spor_at_us=spor_at)
    except ValueError as error:
        raise SystemExit(f"--spor-at {spor_at}: {error}")
    config = _config(args)
    config = config.with_faults(campaign)
    report = run_spor_campaign(
        config,
        args.workload,
        ftl=args.ftl,
        queue_depth=args.queue_depth,
        prefill=args.prefill,
        n_requests=args.requests,
        seed=args.seed,
        check=args.check or "on",
    )
    print(
        f"SPOR at {report.spor_at_us:.0f} us: "
        f"{report.completed_before}/{report.issued_before} issued requests "
        f"acked before the cut; lost window {report.lost_writes} write(s), "
        f"{report.dropped_reads} read(s) dropped"
    )
    recovery = report.recovery
    print(
        f"recovery: {recovery['mapped_lpns']} LPNs rebuilt from "
        f"{recovery['oob_records']} OOB records, "
        f"{recovery['full_blocks']} block(s) sealed FULL, "
        f"max seq {recovery['max_seq']}"
    )
    oracle = report.check["oracle"]
    verdict = "CLEAN" if report.clean else "VIOLATIONS"
    print(
        f"verification: {verdict}; "
        f"{oracle['reads_verified'] + oracle['buffer_reads_verified']} reads "
        f"verified post-recovery, {report.check['violations']} violation(s), "
        f"mapper audit {'clean' if report.audit is None else report.audit}"
    )
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"SPOR report written to {args.json}")
    return 0 if report.clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    _refuse_flat_flags(args)
    configure_logging(args.log_level)
    if args.command == "characterize":
        return _cmd_characterize(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "tenants":
        return _cmd_tenants(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "contract":
        return _cmd_contract(args)
    if args.command == "spor":
        return _cmd_spor(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
