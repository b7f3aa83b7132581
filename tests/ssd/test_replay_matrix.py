"""Every host replay mode, pinned against committed fingerprints.

Each case replays a small trace on cube or dftl and hashes what the
replay produced: the schema-v2 result, the latency samples (per tenant
too), the metrics samples (projected from an attached time-series
recorder's windows in the ``-metrics`` cases), the engine's event count
and final clock, every (time, seq) entry the engine popped, and the
accounting payload of every segment barrier.  The digests in
``golden/replay_matrix.json`` were generated before the replay modes
shared one driver, so a match shows the driver dispatches the same
events in the same order as the loops it replaced.  The ``-metrics``
cases' ``engine`` and ``popped`` digests were taken again when the
sampler left the event heap: the recorder's windows are not events, so
each such case pops exactly its plain case's entries
(:func:`test_recorder_takes_no_event`), while its ``result``,
``latency`` and ``sampler`` digests kept their old values.  The
``closed-aged-faults`` case runs an aged device under the ``heavy``
fault campaign, so the program-fail rewrite, read recovery and block
retirement paths are pinned too.  The ``ncq``, ``unbounded`` and
``ncq-tenants`` ``-segmented`` cases were added when open-loop and
tenant runs learned to checkpoint: their barrier payloads carry the
arrival shift and the tenant slices, and each ``-resumed`` twin starts
from the second barrier and must end equal to its straight run.

Regenerate them only after an intentional model change::

    PYTHONPATH=src python tests/ssd/golden/regen_replay_matrix.py
"""

import hashlib
import heapq
import json
import os
import pickle
from contextlib import contextmanager

import pytest

from repro.faults.campaign import get_campaign
from repro.nand.reliability import AgingState
from repro.obs.registry import TelemetryRegistry
from repro.obs.timeseries import TimeSeriesRecorder, metrics_samples
from repro.persist.driver import capture_state, restore_state
from repro.specs import TenantSpec, WorkloadSpec
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads.base import with_arrivals
from repro.workloads.synthetic import uniform_random_trace
from repro.workloads.tenants import compose_tenants

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "replay_matrix.json")

FTLS = ("cube", "dftl")
QUEUE_DEPTH = 8
SEGMENT = 100
METRICS_US = 250.0
PREFILL = 0.7
CASES = (
    "closed",
    "closed-metrics",
    "ncq",
    "ncq-metrics",
    "unbounded",
    "unbounded-metrics",
    "ncq-tenants",
    "ncq-tenants-metrics",
    "closed-warmup-max-events",
    "ncq-warmup-max-events",
    "segmented",
    "segmented-resumed",
    "ncq-segmented",
    "ncq-segmented-resumed",
    "unbounded-segmented",
    "unbounded-segmented-resumed",
    "ncq-tenants-segmented",
    "ncq-tenants-segmented-resumed",
    "closed-aged-faults",
)
#: the aged, faulty device of the ``closed-aged-faults`` case
AGING = AgingState(pe_cycles=2000, retention_months=12.0)
FAULTS = "heavy"


def _config():
    return SSDConfig.small()


def _aged_faulty_config():
    return _config().with_aging(AGING).with_faults(get_campaign(FAULTS))


def _trace(config):
    trace = uniform_random_trace(
        config.logical_pages, 400, read_fraction=0.4, seed=21
    )
    return with_arrivals(trace, rate_iops=30_000, burstiness=2.0, seed=22)


def _tenant_trace(config):
    tenants = [
        TenantSpec("reader", WorkloadSpec("OLTP", n_requests=150), 20_000.0,
                   partition=(0.0, 0.5)),
        TenantSpec("writer", WorkloadSpec("Proxy", n_requests=150), 8_000.0,
                   partition=(0.5, 1.0)),
    ]
    return compose_tenants(tenants, config, base_seed=3)


def _sim(config, ftl, prefill=True, metrics=False):
    """A simulation; ``metrics`` attaches a registry and a recorder
    taking a window every METRICS_US, as a metrics run does."""
    registry = TelemetryRegistry() if metrics else None
    sim = SSDSimulation(config, ftl=ftl, telemetry=registry)
    if metrics:
        sim.timeseries = TimeSeriesRecorder(
            registry, sim.controller.engine, interval_us=METRICS_US
        )
    if prefill:
        sim.prefill(PREFILL)
    return sim


@contextmanager
def _recording_pops(popped):
    """Append the (time, seq) of every heap entry popped meanwhile."""
    pop = heapq.heappop

    def recording_pop(heap):
        entry = pop(heap)
        popped.append(entry[:2])
        return entry

    heapq.heappop = recording_pop
    try:
        yield
    finally:
        heapq.heappop = pop


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _fingerprint(sim, stats, popped, barriers):
    engine = sim.controller.engine
    tenants = {
        name: [t.read_latency.sample_list(), t.write_latency.sample_list()]
        for name, t in (stats.tenants or {}).items()
    }
    return {
        "result": _digest(stats.to_dict()),
        "latency": _digest(
            [
                stats.read_latency.sample_list(),
                stats.write_latency.sample_list(),
                tenants,
            ]
        ),
        "sampler": _digest(stats.metrics or []),
        "engine": _digest([engine.processed, engine.now]),
        "popped": _digest(popped),
        "barriers": _digest(barriers),
    }


def _replay_case(ftl, mode, *, tenants=False, config=None, results=None,
                 metrics=False, **kwargs):
    """One replay's fingerprint; its result dict is appended to
    ``results`` when one is given."""
    config = config or _config()
    trace = _tenant_trace(config) if tenants else _trace(config)
    if mode != "unbounded":
        kwargs.setdefault("queue_depth", QUEUE_DEPTH)
    popped = []
    sim = _sim(config, ftl, metrics=metrics)
    with _recording_pops(popped):
        stats = replay(sim, trace, mode=mode, **kwargs)
    if metrics:
        stats.metrics = metrics_samples(sim.timeseries.records, sim.ftl.name)
    if results is not None:
        results.append(stats.to_dict())
    return _fingerprint(sim, stats, popped, [])


def _segmented(sim, trace, mode, **kwargs):
    """Replay in drained segments of SEGMENT requests."""
    if mode != "unbounded":
        kwargs["queue_depth"] = QUEUE_DEPTH
    return replay(
        sim,
        trace,
        mode=mode,
        warmup_requests=50,
        segment_requests=SEGMENT,
        **kwargs,
    )


def _segmented_cases(ftl, mode="closed", tenants=False):
    """The straight-through segmented run and the run resumed from its
    second barrier; the resumed result must equal the straight one."""
    config = _config()
    trace = _tenant_trace(config) if tenants else _trace(config)
    barriers, snapshots, popped = [], [], []
    sim = _sim(config, ftl)

    def on_barrier(accounting):
        barriers.append(accounting)
        snapshots.append(pickle.dumps(capture_state(sim, accounting)))

    with _recording_pops(popped):
        stats = _segmented(sim, trace, mode, on_barrier=on_barrier)
    straight = _fingerprint(sim, stats, popped, barriers)
    assert [b["completed"] for b in barriers] == list(
        range(SEGMENT, len(trace), SEGMENT)
    )
    # the drains overrun the next segment's first arrival, so the shift
    # is pinned; closed-loop payloads carry no shift
    assert (barriers[-1].get("shift_us", 0.0) > 0) == (mode != "closed")
    assert ("tenants" in barriers[0]) == tenants

    state = pickle.loads(snapshots[1])
    resumed_sim = _sim(config, ftl, prefill=False)
    restore_state(resumed_sim, state)
    resumed_barriers, resumed_popped = [], []
    with _recording_pops(resumed_popped):
        resumed_stats = _segmented(
            resumed_sim,
            trace,
            mode,
            on_barrier=resumed_barriers.append,
            resume_accounting=state["accounting"],
        )
    assert resumed_stats.to_dict() == stats.to_dict()
    resumed = _fingerprint(
        resumed_sim, resumed_stats, resumed_popped, resumed_barriers
    )
    label = "segmented"
    if mode != "closed":
        label = f"{mode}{'-tenants' if tenants else ''}-segmented"
    return {label: straight, f"{label}-resumed": resumed}


def fingerprints(aged_results=None):
    """Every case's fingerprint, keyed ``<ftl>/<case>``.  When
    ``aged_results`` is a dict, it receives each FTL's
    ``closed-aged-faults`` result dict."""
    out = {}
    for ftl in FTLS:
        cases = {}
        for mode in ("closed", "ncq", "unbounded"):
            cases[mode] = _replay_case(ftl, mode)
            cases[f"{mode}-metrics"] = _replay_case(ftl, mode, metrics=True)
        cases["ncq-tenants"] = _replay_case(ftl, "ncq", tenants=True)
        cases["ncq-tenants-metrics"] = _replay_case(
            ftl, "ncq", tenants=True, metrics=True
        )
        cases["closed-warmup-max-events"] = _replay_case(
            ftl, "closed", warmup_requests=40, max_events=1200
        )
        cases["ncq-warmup-max-events"] = _replay_case(
            ftl, "ncq", warmup_requests=40, max_events=1200
        )
        cases.update(_segmented_cases(ftl))
        for mode, tenants in (("ncq", False), ("unbounded", False),
                              ("ncq", True)):
            cases.update(_segmented_cases(ftl, mode, tenants))
        results = []
        cases["closed-aged-faults"] = _replay_case(
            ftl, "closed", config=_aged_faulty_config(), results=results
        )
        if aged_results is not None:
            aged_results[ftl] = results[0]
        for case, fingerprint in cases.items():
            out[f"{ftl}/{case}"] = fingerprint
    return out


@pytest.fixture(scope="module")
def matrix():
    aged_results = {}
    return fingerprints(aged_results), aged_results


@pytest.fixture(scope="module")
def current(matrix):
    return matrix[0]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_every_case_is_pinned(current, golden):
    keys = sorted(f"{ftl}/{case}" for ftl in FTLS for case in CASES)
    assert sorted(current) == sorted(golden) == keys


@pytest.mark.parametrize("ftl", FTLS)
@pytest.mark.parametrize("case", CASES)
def test_replay_matches_golden(current, golden, ftl, case):
    key = f"{ftl}/{case}"
    assert current[key] == golden[key]


@pytest.mark.parametrize("ftl", FTLS)
@pytest.mark.parametrize(
    "case", [case for case in CASES if case.endswith("-metrics")]
)
def test_recorder_takes_no_event(current, ftl, case):
    """A metrics case dispatches its plain case's events: same popped
    (time, seq) stream, same event count and final clock."""
    observed = current[f"{ftl}/{case}"]
    plain = current[f"{ftl}/{case[:-len('-metrics')]}"]
    for key in ("engine", "popped", "latency"):
        assert observed[key] == plain[key], key


@pytest.mark.parametrize("ftl", FTLS)
def test_aged_faults_case_reaches_recovery(matrix, ftl):
    """The aged, faulty case must keep erasing, retrying reads, failing
    programs and recovering reads, or its digest pins nothing of them."""
    result = matrix[1][ftl]
    assert result["counters"]["erases"] > 0
    assert result["counters"]["read_retries"] > 0
    assert result["recovery"]["program_fails"] > 0
    assert result["recovery"]["recovered_reads"] > 0
