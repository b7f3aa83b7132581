"""The benchmark's workloads and the one path that builds and runs them.

Every workload uses the same device: 2 channels x 4 chips, 16 blocks
per chip, the default block geometry.  Sixteen blocks per chip is small
enough that a 0.9 prefill drives data GC continuously within a few
thousand requests.  The workload seed (``--seed``) only feeds the
generated host traces and their arrival times; the device model keeps
its own fixed seed, so the simulator receives only the generated trace
and the spec.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import repro.ssd.host as host_module
from repro.nand.geometry import BlockGeometry, SSDGeometry
from repro.nand.reliability import AgingState
from repro.parallel.seeds import derive_seed
from repro.specs import HostSpec, SimulationSpec, WorkloadSpec
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay

#: the seed the figures in README.md were taken with
DEFAULT_SEED = 7
#: not used while the benchmark was written: confirm a claimed gain here
HELDOUT_SEED = 1009

GEOMETRY = SSDGeometry(
    n_channels=2, chips_per_channel=4, blocks_per_chip=16, block=BlockGeometry()
)

#: parts each replay's host time is split into, at equal counts of
#: measured completions
SEGMENTS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    ftl: str
    stream: str
    n_requests: int
    prefill: float
    host: HostSpec
    #: traces per run, each from its own seed derived from ``--seed``;
    #: metrics span them all, so one trace's luck (how many GC rounds
    #: fall inside its window) does not swing the result
    traces: int
    #: runs of each trace at the least, however short ``--seconds`` is
    repeats: int
    #: True: GC must erase blocks; False: no erases and read retries > 0
    expect_gc: bool
    #: boundaries (``layer/method``) the traced pass must see called
    busy: Tuple[str, ...]
    warmup: int = 1000
    aging: AgingState = AgingState()

    def seeds(self, seed: int) -> List[int]:
        """Trace seeds of one run: ``seed`` itself, then derived ones."""
        return [seed] + [
            derive_seed(seed, f"perfbench:{self.name}:{k}")
            for k in range(1, self.traces)
        ]

    def spec(self, seed: int) -> SimulationSpec:
        return SimulationSpec(
            config=SSDConfig(geometry=GEOMETRY, aging=self.aging),
            workload=WorkloadSpec(self.stream, n_requests=self.n_requests),
            ftl=self.ftl,
            host=self.host,
            warmup_requests=self.warmup,
            prefill=self.prefill,
            seed=seed,
        )


_GC_BUSY = (
    "ftl.submit/submit",
    "ftl.write/_start_write",
    "ftl.write/_program_entries",
    "ftl.gc/_maybe_gc",
    "ftl.gc/_gc_continue",
    "ftl.gc/_gc_erase",
    "ftl.gc/_program_entries",
    "ftl.gc/_flash_read",
    "ftl.mapping/bind",
    "ftl.blockmgr/select_victim",
    "ssd.write_buffer/admit",
    "nand.chip/program_wl",
    "nand.chip/erase_block",
    "nand.ispp/simulate",
    "nand.reliability/program_slowdown",
    "sim.resources/submit",
    "sim.engine/schedule",
    "ssd.host/callback",
    "ssd.stats/add",
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # data GC runs all the time: the write path, ISPP and WAM/OPM
        # dominate; read retry and translation are idle
        Workload(
            name="gc-cube",
            ftl="cube",
            stream="OLTP",
            n_requests=8000,
            prefill=0.9,
            host=HostSpec(queue_depth=16),
            # one 8,000-request trace's host time swings by up to a
            # third with the GC rounds in its window: sum ten
            traces=10,
            repeats=1,
            expect_gc=True,
            busy=_GC_BUSY + ("core.opm/follower_params", "core.wam/allocate"),
        ),
        # the same traces on demand-paged mapping: data GC, translation
        # GC and CMT writebacks all run; cube's core modules are idle
        Workload(
            name="gc-dftl",
            ftl="dftl",
            stream="OLTP",
            n_requests=8000,
            # at 0.9 fill some seeds (e.g. 1006) end in OutOfSpaceError:
            # data GC finds no free block after translation GC took the
            # last one; 0.85 keeps both GC machines busy without it
            prefill=0.85,
            host=HostSpec(queue_depth=16),
            traces=10,
            repeats=1,
            expect_gc=True,
            busy=_GC_BUSY
            + (
                "ftl.dftl/_translate_read",
                "ftl.dftl/_cmt_note_update",
                "ftl.dftl/_writeback",
                "ftl.gc/_trans_gc_erase",
            ),
        ),
        # aged device, Zipf reads arriving open loop below saturation: the
        # read path, read retry and the ORT dominate; GC is idle
        Workload(
            name="read-aged-ncq",
            ftl="cube",
            stream="Web",
            n_requests=30000,
            prefill=0.5,
            host=HostSpec(queue_depth=32, open_loop=True, rate_iops=20000.0),
            # traces differ by less here (no GC): fewer, run more often
            traces=4,
            repeats=2,
            expect_gc=False,
            aging=AgingState(2000, 12.0),
            busy=(
                "ssd.host/event",
                "ssd.host/callback",
                "ftl.read/_start_read",
                "ftl.read/_flash_read",
                "ftl.read/_deliver_read",
                "ftl.mapping/lookup",
                "nand.chip/read_page",
                "nand.read_retry/retries_needed",
                "core.opm/read_params",
                "core.ort/get",
                "core.ort/update",
                "sim.resources/submit",
                "sim.engine/schedule_at",
                "ssd.stats/add",
            ),
        ),
    )
}


#: steps of the calibration loop: 7 to 10 ms between two replay parts
CAL_STEPS = 10000
#: host times are counted in calibration loops and reported as this
#: many seconds per loop: on an undisturbed core of the machine the
#: README's figures come from, a reported replay second is about one
#: CPU second and a reported set-up second about 1.3
CAL_REF_S = 0.01
#: the calibration loop's table, larger than a core's private caches as
#: the simulator's working set is (about 10 MB of the reported memory)
_CAL_SIZE = 1 << 17
_CAL_TABLE = {i: i & 255 for i in range(_CAL_SIZE)}
_CAL_SLOTS = [0] * _CAL_SIZE


def calibrate() -> Tuple[float, float]:
    """Run a fixed loop of dictionary, list and integer work -- the kind
    of work the simulator does, none of its code -- and return the
    process times before and after it.

    Another tenant on the same physical core slows this loop nearly as
    much as it slows the simulator (a little more), so the loop's time
    next to a timed part measures how fast the core ran just then.
    """
    before = time.process_time()
    table, slots, mask = _CAL_TABLE, _CAL_SLOTS, _CAL_SIZE - 1
    k, kept = 1, []
    for i in range(CAL_STEPS):
        k = (k * 1103515245 + 12345) & mask
        v = table[k]
        slots[(k * 31) & mask] = v + i
        kept.append((v, k))
    return before, time.process_time()


@dataclass
class RunTimes:
    build_s: float
    prefill_s: float
    trace_s: float
    replay_s: float
    #: the replay in SEGMENTS consecutive parts -- from its start to the
    #: first mark (arrival scheduling and warm-up included), from mark to
    #: mark, and from the last mark to its end -- each in calibration
    #: loops (its CPU time over the loop's mean time at its two ends)
    segments_cal: Tuple[float, ...]
    #: set-up time in calibration loops
    setup_cal: float

    @property
    def setup_s(self) -> float:
        return self.build_s + self.prefill_s + self.trace_s


@contextmanager
def segment_clock(marks: List[Tuple[float, float]], measured: int):
    """Run :func:`calibrate` and append its times to ``marks`` each time
    the replay's measured completions reach a multiple of
    ``measured / SEGMENTS``.

    The replay builds its statistics itself, so ``_new_stats`` is
    swapped for the length of the replay and the new latency histograms'
    ``add`` counts each completion.
    """
    at = {round(measured * j / SEGMENTS) for j in range(1, SEGMENTS)}
    new_stats = host_module._new_stats

    def clocked_stats(sim, trace):
        stats = new_stats(sim, trace)
        done = [0]
        for histogram in (stats.read_latency, stats.write_latency):

            def add(latency_us, _add=histogram.add):
                _add(latency_us)
                done[0] += 1
                if done[0] in at:
                    marks.append(calibrate())

            histogram.add = add
        return stats

    host_module._new_stats = clocked_stats
    try:
        yield
    finally:
        host_module._new_stats = new_stats


def run_once(spec: SimulationSpec, checker=None, traced=None):
    """Build, prefill, generate the trace and replay it, timing each phase.

    Times are CPU seconds of this process (``time.process_time``): on a
    shared machine the time the process waits for a CPU is not the
    simulator's, and wall-clock time of identical work drifted by up to
    half again over minutes.  Untraced, the replay is also timed in parts
    (:func:`segment_clock`), with :func:`calibrate` run before set-up and
    at both ends of every part, outside the timed work.

    With neither ``checker`` nor ``traced`` every observer is off: no
    tracer, telemetry, profiler or checker.  ``checker`` attaches an
    invariant checker the way ``repro.api.run_spec`` does.  ``traced``
    (a :class:`layers.SpanLog`) instruments the built simulation before
    the replay; the replay is then one part, without calibration.
    Returns ``(sim, stats, times)``.
    """
    from layers import instrument, traced_replay

    config = spec.config
    if checker is not None:
        # the checker's data oracle reads content tags back; storing
        # them changes no timing or draw (as in run_spec)
        config = replace(config, store_tags=True)
    before_setup = calibrate()
    t0 = before_setup[1]
    sim = SSDSimulation(config, ftl=spec.ftl, checker=checker, **spec.ftl_kwargs)
    t1 = time.process_time()
    if spec.prefill > 0:
        sim.prefill(spec.prefill)
    t2 = time.process_time()
    trace = spec.build_trace()
    t3 = time.process_time()
    marks = [calibrate()]
    cals = [before_setup[1] - before_setup[0], marks[0][1] - marks[0][0]]
    setup_cal = (t3 - t0) / (sum(cals) / 2)
    if traced is None:
        scope = segment_clock(marks, len(trace) - spec.warmup_requests)
    else:
        instrument(traced, sim)
        scope = traced_replay(traced)
    t4 = time.process_time()
    with scope:
        stats = replay(
            sim,
            trace,
            mode=spec.host.mode,
            queue_depth=spec.host.queue_depth,
            warmup_requests=spec.warmup_requests,
        )
    t5 = time.process_time()
    if traced is None:
        marks.append(calibrate())
        cals = [after - before for before, after in marks]
        segments = tuple(b[0] - a[1] for a, b in zip(marks, marks[1:]))
        segments_cal = tuple(
            s / ((c0 + c1) / 2) for s, c0, c1 in zip(segments, cals, cals[1:])
        )
    else:
        segments, segments_cal = (t5 - t4,), ()
    return sim, stats, RunTimes(
        t1 - t0, t2 - t1, t3 - t2, sum(segments), segments_cal, setup_cal
    )
