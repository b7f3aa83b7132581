"""Every generator, stamping and tenant path equals its pre-column form.

The functions prefixed ``ref_`` are the request loops the generators
ran before they drew through :class:`~repro.workloads.draws.ScalarDraws`
and filled :class:`~repro.workloads.base.Columns`: NumPy scalar calls,
one ``IORequest`` per request, appended one by one.  Each new generator
must produce the same requests -- or raise the same error -- over 20
seeds at three sizes and one space too small for its requests; tenant
composition is compared the same way, on top of ``with_arrivals``,
whose stamping ``tests/integration/test_open_loop.py`` pins against its
scalar loop.
The last tests count request constructions: each request of a
generated stream is built once, closed loop, open loop or tenant.
"""

import json
import os

import numpy as np
import pytest

from repro.specs import HostSpec, SimulationSpec, TenantSpec, WorkloadSpec
from repro.ssd.config import SSDConfig
from repro.workloads import WORKLOAD_GENERATORS, build_workload, save_trace
from repro.workloads.base import READ, WRITE, Columns, IORequest, Trace, with_arrivals
from repro.workloads.synthetic import ZipfSampler
from repro.workloads.tenants import (
    _partition_pages,
    compose_tenants,
    tenant_arrival_seed,
    tenant_seed,
    tenant_trace,
)

# -- the pre-column generators ----------------------------------------------


def ref_mail_trace(logical_pages, n_requests, seed=1):
    rng = np.random.default_rng(seed)
    trace = Trace("Mail", logical_pages)
    working_set = max(16, int(logical_pages * 0.30))
    base = rng.integers(0, max(1, logical_pages - working_set))
    for _ in range(n_requests):
        lpn = int(base + rng.integers(0, working_set - 2))
        if rng.random() < 0.55:
            trace.append(IORequest(WRITE, lpn, 1))
        else:
            trace.append(IORequest(READ, lpn, int(rng.integers(1, 3))))
    return trace


def ref_web_trace(logical_pages, n_requests, seed=1):
    rng = np.random.default_rng(seed)
    trace = Trace("Web", logical_pages)
    log_region = max(8, int(logical_pages * 0.02))
    file_region = logical_pages - log_region
    sampler = ZipfSampler(max(1, file_region - 4), theta=0.9, rng=rng)
    log_cursor = 0
    reads = sampler.sample(rng, n_requests)
    for i in range(n_requests):
        if rng.random() < 0.92:
            trace.append(IORequest(READ, int(reads[i]), int(rng.integers(1, 5))))
        else:
            trace.append(IORequest(WRITE, file_region + log_cursor, 1))
            log_cursor = (log_cursor + 1) % (log_region - 1)
    return trace


def ref_proxy_trace(logical_pages, n_requests, seed=1):
    rng = np.random.default_rng(seed)
    trace = Trace("Proxy", logical_pages)
    for _ in range(n_requests):
        if rng.random() < 0.75:
            n_pages = int(rng.integers(1, 9))
            lpn = int(rng.integers(0, logical_pages - n_pages))
            trace.append(IORequest(READ, lpn, n_pages))
        else:
            n_pages = int(rng.integers(1, 5))
            lpn = int(rng.integers(0, logical_pages - n_pages))
            trace.append(IORequest(WRITE, lpn, n_pages))
    return trace


def ref_oltp_trace(logical_pages, n_requests, seed=1):
    rng = np.random.default_rng(seed)
    trace = Trace("OLTP", logical_pages)
    hot = max(16, int(logical_pages * 0.25))
    base = rng.integers(0, max(1, logical_pages - hot))
    produced = 0
    while produced < n_requests:
        if rng.random() < 0.70:
            burst = int(rng.integers(8, 33))
            for _ in range(min(burst, n_requests - produced)):
                lpn = int(base + rng.integers(0, hot - 1))
                trace.append(IORequest(WRITE, lpn, 1))
                produced += 1
        else:
            run = int(rng.integers(2, 9))
            for _ in range(min(run, n_requests - produced)):
                lpn = int(base + rng.integers(0, hot - 1))
                trace.append(IORequest(READ, lpn, 1))
                produced += 1
    return trace


def ref_rocks_trace(logical_pages, n_requests, seed=1):
    rng = np.random.default_rng(seed)
    trace = Trace("Rocks", logical_pages)
    wal_region = max(8, int(logical_pages * 0.03))
    sst_region = logical_pages - wal_region
    sampler = ZipfSampler(max(1, sst_region - 4), theta=0.99, rng=rng)
    wal_cursor = 0
    compaction_cursor = 0
    updates_since_flush = 0
    produced = 0
    while produced < n_requests:
        if rng.random() < 0.5:
            trace.append(IORequest(READ, int(sampler.sample(rng, 1)[0]), 1))
            produced += 1
        else:
            trace.append(IORequest(WRITE, sst_region + wal_cursor, 1))
            wal_cursor = (wal_cursor + 1) % (wal_region - 1)
            produced += 1
            updates_since_flush += 1
            if updates_since_flush >= 48 and produced < n_requests:
                updates_since_flush = 0
                burst_pages = int(rng.integers(16, 65))
                span = max(1, sst_region - burst_pages - 1)
                start = compaction_cursor % span
                compaction_cursor += burst_pages
                chunk = 8
                for off in range(0, burst_pages, chunk):
                    pages = min(chunk, burst_pages - off)
                    trace.append(IORequest(WRITE, start + off, pages))
                    produced += 1
                    if produced >= n_requests:
                        break
    return trace


def ref_mongo_trace(logical_pages, n_requests, seed=1):
    rng = np.random.default_rng(seed)
    trace = Trace("Mongo", logical_pages)
    journal_region = max(8, int(logical_pages * 0.02))
    data_region = logical_pages - journal_region
    sampler = ZipfSampler(max(1, data_region - 4), theta=0.99, rng=rng)
    journal_cursor = 0
    produced = 0
    while produced < n_requests:
        if rng.random() < 0.5:
            trace.append(IORequest(READ, int(sampler.sample(rng, 1)[0]), 1))
            produced += 1
        else:
            lpn = int(sampler.sample(rng, 1)[0])
            trace.append(IORequest(WRITE, lpn, int(rng.integers(1, 3))))
            produced += 1
            if produced < n_requests and rng.random() < 0.5:
                trace.append(IORequest(WRITE, data_region + journal_cursor, 1))
                journal_cursor = (journal_cursor + 1) % (journal_region - 1)
                produced += 1
    return trace


def ref_uniform_random_trace(
    logical_pages, n_requests, read_fraction=0.5, n_pages=1, seed=1,
    name="uniform", region=None,
):
    rng = np.random.default_rng(seed)
    lo, hi = region if region is not None else (0, logical_pages)
    span = hi - lo - n_pages
    if span < 1:
        raise ValueError("region too small for the request size")
    trace = Trace(name, logical_pages)
    ops = rng.random(n_requests) < read_fraction
    lpns = lo + rng.integers(0, span, n_requests)
    for is_read, lpn in zip(ops, lpns):
        trace.append(IORequest(READ if is_read else WRITE, int(lpn), n_pages))
    return trace


def ref_sequential_trace(
    logical_pages, n_requests, op=WRITE, n_pages=4, seed=1,
    name="sequential", start=0,
):
    trace = Trace(name, logical_pages)
    lpn = start
    for _ in range(n_requests):
        if lpn + n_pages > logical_pages:
            lpn = 0
        trace.append(IORequest(op, lpn, n_pages))
        lpn += n_pages
    return trace


def ref_zipf_trace(
    logical_pages, n_requests, read_fraction=0.5, theta=0.99, n_pages=1,
    seed=1, name="zipf",
):
    rng = np.random.default_rng(seed)
    sampler = ZipfSampler(max(1, logical_pages - n_pages), theta, rng)
    lpns = sampler.sample(rng, n_requests)
    ops = rng.random(n_requests) < read_fraction
    trace = Trace(name, logical_pages)
    for is_read, lpn in zip(ops, lpns):
        trace.append(IORequest(READ if is_read else WRITE, int(lpn), n_pages))
    return trace


REFERENCES = {
    "Mail": ref_mail_trace,
    "Web": ref_web_trace,
    "Proxy": ref_proxy_trace,
    "OLTP": ref_oltp_trace,
    "Rocks": ref_rocks_trace,
    "Mongo": ref_mongo_trace,
    "uniform": ref_uniform_random_trace,
    "sequential": ref_sequential_trace,
    "zipf": ref_zipf_trace,
}


def ref_build_workload(name, logical_pages, n_requests=None, seed=1, **params):
    if name.startswith("trace:"):
        return build_workload(name, logical_pages, n_requests, seed=seed, **params)
    return REFERENCES[name](logical_pages, n_requests, seed=seed, **params)


def ref_tenant_trace(tenant, config, base_seed):
    logical_pages = config.logical_pages
    base_lpn, region_pages = _partition_pages(tenant, logical_pages)
    spec = tenant.workload
    seed = tenant.seed if tenant.seed is not None else tenant_seed(
        base_seed, tenant.name
    )
    raw = ref_build_workload(
        spec.name,
        region_pages,
        None if spec.is_trace else spec.n_requests,
        seed=seed,
        **spec.params,
    )
    placed = Trace(tenant.name, logical_pages)
    for request in raw:
        placed.append(
            IORequest(
                request.op,
                request.lpn + base_lpn,
                request.n_pages,
                request.arrival_us,
                tenant.name,
            )
        )
    if placed.has_arrivals:
        if tenant.rate_scale == 1.0:
            return placed
        compressed = Trace(tenant.name, logical_pages)
        for request in placed:
            compressed.append(request.at(request.arrival_us / tenant.rate_scale))
        return compressed
    return with_arrivals(
        placed,
        tenant.effective_rate_iops,
        burstiness=tenant.burstiness,
        seed=tenant_arrival_seed(base_seed, tenant.name),
    )


def ref_compose_tenants(tenants, config, base_seed):
    names = [tenant.name for tenant in tenants]
    streams = [ref_tenant_trace(tenant, config, base_seed) for tenant in tenants]
    keyed = [
        (request.arrival_us, tenant_index, sequence, request)
        for tenant_index, stream in enumerate(streams)
        for sequence, request in enumerate(stream)
    ]
    keyed.sort(key=lambda entry: entry[:3])
    merged = Trace("+".join(names), config.logical_pages)
    for _, _, _, request in keyed:
        merged.append(request)
    return merged


# -- comparisons -------------------------------------------------------------


def _outcome(build):
    """A trace as ``repr`` of its fields (so a NumPy scalar in place of
    an int differs), or the error building it raised."""
    try:
        trace = build()
    except (ValueError, TypeError) as error:
        return ("raised", type(error).__name__, str(error))
    return (
        trace.name,
        trace.logical_pages,
        [repr((r.op, r.lpn, r.n_pages, r.arrival_us, r.tenant)) for r in trace],
    )


#: (logical_pages, n_requests): three sizes, then a space too small
#: for some generators' requests (their errors must match too)
SIZES = ((64, 300), (4096, 800), (58982, 1500), (6, 40))
SEEDS = range(20)


def test_every_generator_has_a_reference():
    assert sorted(REFERENCES) == sorted(WORKLOAD_GENERATORS)


@pytest.mark.parametrize("name", sorted(REFERENCES))
@pytest.mark.parametrize("pages, n", SIZES)
def test_generator_equals_its_reference(name, pages, n):
    for seed in SEEDS:
        want = _outcome(lambda: REFERENCES[name](pages, n, seed=seed))
        got = _outcome(lambda: WORKLOAD_GENERATORS[name](pages, n, seed=seed))
        assert got == want, (name, pages, n, seed)


def test_small_spaces_raise_as_before():
    """The too-small space makes at least these generators fail, so the
    comparison above covers their error paths."""
    for name in ("Mail", "Web", "Proxy", "OLTP", "Rocks", "Mongo"):
        assert _outcome(lambda: REFERENCES[name](6, 40, seed=1))[0] == "raised"


@pytest.mark.parametrize(
    "name, params",
    [
        ("uniform", {"read_fraction": 0.8, "n_pages": 4, "region": (100, 900)}),
        ("uniform", {"region": (10.0, 500.0)}),
        ("sequential", {"op": READ, "n_pages": 3, "start": 2000}),
        ("zipf", {"theta": 1.2, "n_pages": 2, "read_fraction": 0.3}),
    ],
)
def test_parameterized_generators_equal_their_references(name, params):
    for seed in range(5):
        want = _outcome(lambda: REFERENCES[name](4096, 700, seed=seed, **params))
        got = _outcome(lambda: WORKLOAD_GENERATORS[name](4096, 700, seed=seed, **params))
        assert got == want


def test_open_loop_spec_equals_generate_then_stamp():
    for burstiness in (1.0, 2.5):
        spec = SimulationSpec(
            config=SSDConfig.small(),
            workload=WorkloadSpec("Web", n_requests=1200),
            host=HostSpec(queue_depth=8, rate_iops=9000.0, burstiness=burstiness),
            seed=3,
        )
        from repro.parallel.seeds import derive_seed

        want = with_arrivals(
            ref_web_trace(spec.config.logical_pages, 1200, seed=3),
            9000.0,
            burstiness,
            derive_seed(3, "host:arrivals"),
        )
        assert _outcome(spec.build_trace) == _outcome(lambda: want)


def _tenant(name, workload, **kwargs):
    return TenantSpec(name=name, workload=workload, rate_iops=15000.0, **kwargs)


@pytest.fixture
def recorded(tmp_path):
    """Recorded traces: one with arrivals, one without, one whose own
    space (4096 pages) overhangs a small partition."""
    timed = with_arrivals(build_workload("OLTP", 4096, 300, seed=2), 5000.0)
    untimed = build_workload("Proxy", 4096, 300, seed=2)
    paths = {}
    for key, trace in (("timed", timed), ("untimed", untimed)):
        paths[key] = str(tmp_path / f"{key}.trace")
        save_trace(trace, paths[key])
    return paths


def test_tenants_equal_their_reference(recorded):
    config = SSDConfig.small()
    scenarios = [
        [
            _tenant("a", WorkloadSpec("OLTP", n_requests=300), partition=(0.0, 0.5)),
            _tenant("b", WorkloadSpec("Web", n_requests=300), partition=(0.5, 1.0),
                    burstiness=3.0),
        ],
        [
            _tenant("x", WorkloadSpec("zipf", n_requests=200, params={"theta": 1.1})),
            _tenant("y", WorkloadSpec("Rocks", n_requests=250), seed=99,
                    rate_scale=2.0),
            _tenant("z", WorkloadSpec("Mail", n_requests=150), partition=(0.2, 0.7)),
        ],
        [
            _tenant("rec", WorkloadSpec("trace:" + recorded["timed"]),
                    partition=(0.0, 0.9), rate_scale=1.5),
            _tenant("plain", WorkloadSpec("trace:" + recorded["untimed"])),
            _tenant("gen", WorkloadSpec("Proxy", n_requests=100)),
        ],
        # the recorded trace's 4096-page space overhangs this partition
        [_tenant("over", WorkloadSpec("trace:" + recorded["untimed"]),
                 partition=(0.9, 1.0))],
        # a partition too small for OLTP's hot set
        [_tenant("tiny", WorkloadSpec("OLTP", n_requests=50),
                 partition=(0.0, 10 / config.logical_pages))],
        # a bad op in the first tenant raises before the second's bound
        [
            _tenant("badop", WorkloadSpec("sequential", n_requests=10,
                                          params={"op": "X"})),
            _tenant("tiny", WorkloadSpec("OLTP", n_requests=50),
                    partition=(0.0, 10 / config.logical_pages)),
        ],
    ]
    for tenants in scenarios:
        for seed in (1, 7):
            want = _outcome(lambda: ref_compose_tenants(tenants, config, seed))
            got = _outcome(lambda: compose_tenants(tenants, config, seed))
            assert got == want
            for tenant in tenants:
                want = _outcome(lambda: ref_tenant_trace(tenant, config, seed))
                got = _outcome(lambda: tenant_trace(tenant, config, seed))
                assert got == want
    assert _outcome(lambda: compose_tenants(scenarios[3], config, 1))[0] == "raised"
    assert _outcome(lambda: compose_tenants(scenarios[4], config, 1))[0] == "raised"
    assert _outcome(lambda: compose_tenants(scenarios[5], config, 1)) == (
        "raised", "ValueError", "op must be 'R' or 'W'"
    )


def test_check_raises_what_appending_would():
    """An invalid request before one past the space raises its own
    error; one past the space before an invalid one raises the bound."""
    bad_lpn_first = Columns("t", 10, [READ, READ], [-1, 9], [1, 5])
    with pytest.raises(ValueError, match="lpn must be >= 0"):
        bad_lpn_first.check()
    bound_first = Columns("t", 10, [READ, READ], [9, -1], [5, 1])
    with pytest.raises(ValueError) as caught:
        bound_first.check()
    assert str(caught.value) == (
        f"request {IORequest(READ, 9, 5)} exceeds logical space 10"
    )
    with pytest.raises(ValueError, match="n_pages must be >= 1"):
        Columns("t", 10, [WRITE], [0], [0]).check()
    with pytest.raises(ValueError, match="op must be"):
        Columns("t", 10, ["X", READ], [0, 9], [1, 5]).check()
    with pytest.raises(ValueError, match="op must be"):
        Columns("t", 10, [["R"]], [0], [1]).check()
    Columns("t", 10).check()
    Columns("t", 10, [READ], [5], [5]).check()


# -- one construction per request --------------------------------------------


@pytest.fixture
def constructions(monkeypatch):
    """Counts ``IORequest`` constructions from here on."""
    count = [0]
    validate = IORequest.__post_init__

    def counting(self):
        count[0] += 1
        validate(self)

    monkeypatch.setattr(IORequest, "__post_init__", counting)
    return count


@pytest.mark.parametrize(
    "host",
    [
        HostSpec(queue_depth=16),
        HostSpec(queue_depth=32, open_loop=True, rate_iops=20000.0),
        HostSpec(queue_depth=16, rate_iops=5000.0, burstiness=4.0),
    ],
    ids=["closed", "open-loop", "bursty"],
)
@pytest.mark.parametrize("workload", ["Web", "OLTP", "zipf"])
def test_generated_requests_are_built_once(constructions, host, workload):
    spec = SimulationSpec(
        config=SSDConfig.small(),
        workload=WorkloadSpec(workload, n_requests=1000),
        host=host,
        seed=4,
    )
    trace = spec.build_trace()
    assert len(trace) == 1000
    assert constructions[0] == 1000


def test_tenant_requests_are_built_once(constructions):
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        "examples",
        "spec_tenants.json",
    )
    with open(path) as handle:
        spec = SimulationSpec.from_dict(json.load(handle))
    trace = spec.build_trace()
    assert len(trace) == 800
    assert constructions[0] == 800
