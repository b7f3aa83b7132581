#!/usr/bin/env python3
"""Benchmark of the SSD simulator: host speed, set-up time and memory,
plus the simulated SSD's own figures, per workload.

Run from the repository root::

    python3 perfbench/run.py --workload gc-cube --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

``--trace 0`` (the default) times untraced runs: every observer in the
simulator (tracer, telemetry, profiler, checker) is off.  Each run
builds the device, prefills it, generates a trace and replays it; runs
cycle over the workload's traces until ``--seconds`` have passed, and
every trace runs at least ``Workload.repeats`` times.  One extra run of
the first trace under the strict invariant checker follows the timed
runs.

Host time is the process's CPU time, which leaves out waiting for a
CPU but not a neighbour on the same physical core: that slows every
instruction by up to three quarters, for seconds or for minutes (the
same replay took 1.6 s and 2.9 s minutes apart).  So host time is
counted against a clock that slows with it: a fixed calibration loop
(``workloads.calibrate``) runs before set-up and at both ends of each
of ``SEGMENTS`` replay parts, cut at fixed counts of completed
requests, and each part's CPU time is divided by the loop's time at its
ends.  Loops are reported as ``CAL_REF_S`` seconds each.  A trace that
ran more than once takes each part from its least disturbed run.
``requests_per_s`` is the median of the traces' replay rates and
``setup_s`` the median of their set-up times.

``--trace 1`` runs the traced pass instead: pairs of one untraced and
one traced run of the first trace, reporting per-layer host time from
spans recorded around each layer's entry points (see ``layers.py``).

Every run's simulated result is hashed.  A run fails if it raises,
stalls, or hashes differently from another run of the same trace; the
strict run and the traced runs must hash like the untraced runs.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--record
FILE`` also appends a fuller JSON line (quartiles, run counts, extra
simulated percentiles, hashes) to FILE, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: a run that takes longer than this is treated as stalled
RUN_LIMIT_S = 90


def benchmark_units(section: str) -> dict:
    """name -> unit of one metric list (``end_to_end`` or ``per_layer``)
    of ``BENCHMARK.json``, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


class RunTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")


def guarded(fn, *args, **kwargs):
    """Call ``fn``; a raise or a timeout is reported and gives None."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    try:
        return fn(*args, **kwargs)
    except Exception:  # a failed run is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return None
    finally:
        signal.alarm(0)


def digest(sim, stats) -> str:
    """Hash of a run's simulated result: IOPS, every latency sample,
    the FTL counters and, on dftl, the translation counters."""
    h = hashlib.sha256()
    h.update(repr((stats.completed_requests, stats.duration_us)).encode())
    h.update(stats.read_latency.samples.tobytes())
    h.update(stats.write_latency.samples.tobytes())
    h.update(json.dumps(stats.counters.to_dict(), sort_keys=True).encode())
    dftl = getattr(sim.ftl, "dftl_stats", None)
    if dftl is not None:
        h.update(json.dumps(dftl.to_dict(), sort_keys=True).encode())
    return h.hexdigest()[:16]


def reset_peak_rss() -> None:
    """Start a new peak-memory window, so that with ``--workload all``
    each workload reports its own peak (Linux: writing 5 to
    ``clear_refs`` resets ``VmHWM`` to the current resident size).
    Memory freed by an earlier workload is first handed back to the
    system where the C library allows it."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident memory since :func:`reset_peak_rss`, or over the
    process's life where ``/proc`` is missing."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summary(values):
    """(median, q1, q3, count) of a list of timings."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0], len(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


class Outcome:
    """Counts and metrics of one workload's pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems = []
        #: name -> (value, unit)
        self.metrics = {}
        #: extra figures for the record and the human-readable lines
        self.detail = {}

    def fail(self, problem: str) -> None:
        self.problems.append(problem)
        print(f"perfbench: {problem}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


# ---------------------------------------------------------------------------
# untraced pass
# ---------------------------------------------------------------------------


def untraced_pass(workload, seed: int, seconds: float, units: dict) -> Outcome:
    from repro.check import InvariantChecker, parse_check_level
    from workloads import CAL_REF_S, run_once

    out = Outcome()
    specs = [workload.spec(s) for s in workload.seeds(seed)]
    times = [[] for _ in specs]
    digests = [None] * len(specs)
    first = [None] * len(specs)
    reset_peak_rss()
    start = time.perf_counter()
    i = 0
    least = workload.repeats * len(specs)
    while i < least or time.perf_counter() - start < seconds:
        k = i % len(specs)
        i += 1
        out.attempted += 1
        result = guarded(run_once, specs[k])
        if result is None:
            out.failed += 1
            continue
        sim, stats, run_times = result
        run_digest = digest(sim, stats)
        del sim, result
        gc.collect()
        if digests[k] is None:
            digests[k], first[k] = run_digest, stats
        elif run_digest != digests[k]:
            out.failed += 1
            out.fail(f"trace {k}: digest {run_digest} != {digests[k]}")
            continue
        times[k].append(run_times)
    rss = peak_rss_mb()

    # the strict checker, outside the timed runs, on the first trace
    out.attempted += 1
    checker = InvariantChecker(parse_check_level("strict"))
    result = guarded(run_once, specs[0], checker=checker)
    if result is None:
        out.failed += 1
    else:
        report = checker.finalize()
        strict_digest = digest(result[0], result[1])
        if report["violations"] or strict_digest != digests[0]:
            out.failed += 1
            out.fail(
                f"strict run: {report['violations']} violation(s), "
                f"digest {strict_digest} vs {digests[0]}"
            )
    del result, checker
    gc.collect()

    done = [k for k in range(len(specs)) if times[k]]
    if len(done) < len(specs):
        out.fail(f"only {len(done)} of {len(specs)} traces completed")
    if not done:
        return out
    # one trace's host time swings with how many GC rounds land inside
    # its window, so the figures span all of the workload's traces: the
    # median of each trace's replay rate, each trace at its least
    # disturbed and in reference seconds (module docstring)
    rates = summary(workload.n_requests / t.replay_s for k in done for t in times[k])
    setups = summary(t.setup_s for k in done for t in times[k])
    trace_rates = [
        workload.n_requests
        / (sum(min(part) for part in zip(*(t.segments_cal for t in times[k]))) * CAL_REF_S)
        for k in done
    ]
    setup_cal = statistics.median(min(t.setup_cal for t in times[k]) for k in done)
    values = {
        "requests_per_s": statistics.median(trace_rates),
        "setup_s": setup_cal * CAL_REF_S,
        "peak_rss_mb": rss,
    }
    values.update(simulated_figures([first[k] for k in done]))
    out.metrics = {name: (values[name], unit) for name, unit in units.items()}
    out.detail = {name: value for name, value in values.items() if name not in units}
    out.detail.update(
        requests_per_s_runs=rates,
        setup_s_runs=setups,
        traces=len(done),
        runs_per_trace=min(len(times[k]) for k in done),
        trace_requests_per_s=[round(rate, 1) for rate in trace_rates],
        digests=digests,
    )
    return out


def simulated_figures(runs) -> dict:
    """Simulated-time figures over several traces' results.

    Latencies pool every trace's samples.  IOPS is the median of the
    per-trace IOPS: GC rounds come in whole steps, so per-trace IOPS
    takes a few discrete values and the median keeps to the usual one.
    """
    import numpy as np

    reads = np.concatenate([stats.read_latency.samples for stats in runs])
    writes = np.concatenate([stats.write_latency.samples for stats in runs])
    return {
        "sim_iops": statistics.median(stats.iops for stats in runs),
        "sim_read_mean_us": float(reads.mean()),
        "sim_write_mean_us": float(writes.mean()),
        "sim_read_p50_us": float(np.percentile(reads, 50)),
        "sim_write_p50_us": float(np.percentile(writes, 50)),
        "sim_read_p90_us": float(np.percentile(reads, 90)),
        "sim_write_p90_us": float(np.percentile(writes, 90)),
        "sim_read_p99_us": float(np.percentile(reads, 99)),
        "sim_write_p99_us": float(np.percentile(writes, 99)),
    }


# ---------------------------------------------------------------------------
# traced pass
# ---------------------------------------------------------------------------


def traced_pass(workload, seed: int, seconds: float, units: dict) -> Outcome:
    from layers import SpanLog, layer_metrics
    from workloads import run_once

    out = Outcome()
    spec = workload.spec(seed)
    untraced, traced, per_run = [], [], []
    reference = None
    calls = {}
    start = time.perf_counter()
    while not per_run or time.perf_counter() - start < seconds:
        out.attempted += 1
        result = guarded(run_once, spec)
        if result is None:
            out.failed += 1
            break
        sim, stats, times = result
        plain_digest = digest(sim, stats)
        del sim, result
        gc.collect()
        log = SpanLog()
        out.attempted += 1
        result = guarded(run_once, spec, traced=log)
        if result is None:
            out.failed += 1
            break
        sim, stats, traced_times = result
        traced_digest = digest(sim, stats)
        reference = reference or plain_digest
        if plain_digest != reference or traced_digest != reference:
            out.failed += 1
            out.fail(
                f"digests differ: untraced {plain_digest}, traced "
                f"{traced_digest}, first {reference}"
            )
        untraced.append(times)
        traced.append(traced_times)
        per_run.append(layer_metrics(log, sim, stats))
        calls = log.calls()
        del sim, result, log
        gc.collect()
    if not per_run:
        out.fail("no traced run completed")
        return out

    runs = untraced + traced
    values = {
        "setup.build_s": statistics.median(t.build_s for t in runs),
        "setup.prefill_s": statistics.median(t.prefill_s for t in runs),
        "setup.trace_s": statistics.median(t.trace_s for t in runs),
    }
    for name in per_run[0]:
        values[name] = statistics.median(run[name] for run in per_run)
    untraced_replay = statistics.median(t.replay_s for t in untraced)
    # events per untraced second: tracing slows every event
    values["sim.engine.events_per_s"] = values["sim.engine.events"] / untraced_replay
    values["trace.overhead_ratio"] = (
        statistics.median(t.replay_s for t in traced) / untraced_replay - 1.0
    )

    # self-checks: the busy boundaries saw calls, GC ran where it should
    missing = [b for b in workload.busy if not calls.get(b)]
    if missing:
        out.fail(f"boundaries never called: {', '.join(missing)}")
    erases = values["ftl.gc.erases"]
    retries = values["nand.retries_per_read"]
    if workload.expect_gc and not erases > 0:
        out.fail("expected GC erases, saw none")
    if not workload.expect_gc and (erases != 0 or not retries > 0):
        out.fail(
            f"expected no erases and some read retries, saw {erases} "
            f"erases and {retries} retries per read"
        )
    out.metrics = {name: (values[name], unit) for name, unit in units.items()}
    out.detail = {"traced_runs": len(per_run), "calls": calls}
    return out


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _print_outcome(name: str, out: Outcome) -> None:
    error_rate = out.failed / out.attempted if out.attempted else 0.0
    print(
        f"{name}: {out.attempted} runs, {out.failed} failed "
        f"(error_rate {error_rate:.3f}), correct={out.correct}"
    )
    for metric, (value, unit) in out.metrics.items():
        print(f"  {metric:<28} {value:>14.4f} {unit}")
    for key, value in out.detail.items():
        if key in ("digests", "calls"):
            continue
        if isinstance(value, tuple):
            median, q1, q3, count = value
            value = f"median {median:.4f}, q1 {q1:.4f}, q3 {q3:.4f}, n={count}"
        elif isinstance(value, float):
            value = f"{value:14.4f}"
        print(f"  {key:<28} {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, help="a workload name or 'all'")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, metavar="FILE")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"perfbench: simulator sources not found under {SRC}; run from "
            "a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    from workloads import DEFAULT_SEED, WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{', '.join(WORKLOADS)} or all",
            file=sys.stderr,
        )
        return 2

    run_pass = traced_pass if args.trace else untraced_pass
    units = benchmark_units("per_layer" if args.trace else "end_to_end")
    outcomes = {}
    for name in names:
        out = run_pass(WORKLOADS[name], seed, args.seconds, units)
        outcomes[name] = out
        _print_outcome(name, out)
        if args.record:
            record = {
                "workload": name,
                "seed": seed,
                "trace": args.trace,
                "correct": out.correct,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {
                    **{m: v for m, (v, _unit) in out.metrics.items()},
                    **{
                        m: v
                        for m, v in out.detail.items()
                        if m.startswith("sim_")
                    },
                },
                "detail": out.detail,
            }
            with open(args.record, "a") as handle:
                handle.write(json.dumps(record) + "\n")

    prefix = len(names) > 1
    metrics = {
        (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
        for name, out in outcomes.items()
        for metric, (value, unit) in out.metrics.items()
    }
    print(
        json.dumps(
            {
                "correct": all(out.correct for out in outcomes.values()),
                "attempted": sum(out.attempted for out in outcomes.values()),
                "failed": sum(out.failed for out in outcomes.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
