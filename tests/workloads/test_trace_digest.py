"""Generated request streams, pinned against committed digests.

Each case hashes ``repr((op, lpn, n_pages, arrival_us, tenant))`` of
every request of one generated trace, after the trace's name and
logical space.  Hashing the ``repr`` makes a NumPy scalar that leaks
into a field (``np.int64(5)`` in place of ``5``) fail as surely as a
changed value.  The cases cover every registry name at three sizes (one
a 16-page space, where ``integers(0, 1)`` draws nothing), the traces of
perfbench's three workloads at its default and held-out seeds, one
bursty open-loop spec, the committed two-tenant example, and the error
that generating past the logical space raises.  The perfbench cases are
frozen here (device, stream, size, host and trace seeds), so retuning a
benchmark workload leaves this golden alone.

The digests in ``golden/trace_digest.json`` were taken before the
generators drew through :class:`repro.workloads.draws.ScalarDraws`, so a
match shows every draw and every request came out the same.  Regenerate
them only after an intentional change to a generator::

    PYTHONPATH=src python tests/workloads/golden/regen_trace_digest.py
"""

import hashlib
import json
import os

import pytest

from repro.nand.geometry import BlockGeometry, SSDGeometry
from repro.specs import HostSpec, SimulationSpec, WorkloadSpec, load_spec_file
from repro.ssd.config import SSDConfig
from repro.workloads import WORKLOAD_GENERATORS, build_workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(HERE, "golden", "trace_digest.json")

#: (logical_pages, n_requests, seed) of every registry name's cases
POINTS = ((16, 60, 3), (4096, 2000, 1), (100_000, 5000, 11))
#: perfbench's device: 2 channels x 4 chips, 16 blocks per chip, the
#: default block (58,982 logical pages)
GEOMETRY = SSDGeometry(
    n_channels=2, chips_per_channel=4, blocks_per_chip=16, block=BlockGeometry()
)
#: perfbench's workloads as the digests were taken: name -> (stream,
#: requests, host, {run seed: trace seeds}), at its default and
#: held-out run seeds
PERFBENCH = {
    "gc-cube": ("OLTP", 8000, HostSpec(queue_depth=16), {
        7: (7, 1167606409048300901, 369320911344290418, 5500297710548498061,
            1240642500837087678, 3747126667268779664, 8201166901578322856,
            7746136157520313940, 1199468555300207376, 6374791071344563685),
        1009: (1009, 6734474419756447915, 7245145310756117122,
               1150008583704073145, 5800815714061308272, 1214907460755344443,
               8765565098411918729, 535446891661886620, 3789631108070665659,
               2215401518822499607),
    }),
    "gc-dftl": ("OLTP", 8000, HostSpec(queue_depth=16), {
        7: (7, 5568781276903579266, 4271444928760486268, 8747150733241894440,
            7478022676086797680, 5205052032277778485, 3473473995589189606,
            8070397608630880800, 5372973251918266132, 4413344883549983643),
        1009: (1009, 8035405506057959394, 2621316093046942306,
               4333165158840343770, 1820411837053441012, 8803270846559339742,
               1518785981588062011, 5180613561834490983, 9118510841135097423,
               2827576610741471076),
    }),
    "read-aged-ncq": (
        "Web", 30000, HostSpec(queue_depth=32, open_loop=True, rate_iops=20000.0), {
            7: (7, 7682549668405019280, 2900624987153583600, 6182501291587508777),
            1009: (1009, 2652908560037010447, 5064602478687632878,
                   6077182348731557771),
        },
    ),
}


def trace_digest(trace) -> str:
    h = hashlib.sha256(repr((trace.name, trace.logical_pages)).encode())
    for r in trace:
        h.update(repr((r.op, r.lpn, r.n_pages, r.arrival_us, r.tenant)).encode())
    return h.hexdigest()


def _error(build) -> str:
    """The error generating a stream raises, as ``Type: message``."""
    with pytest.raises(ValueError) as caught:
        build()
    return f"{type(caught.value).__name__}: {caught.value}"


def _cases():
    """Case name -> zero-argument callable returning a Trace."""
    cases = {}
    for name in sorted(WORKLOAD_GENERATORS):
        for pages, n, seed in POINTS:
            cases[f"{name}/{pages}x{n}/s{seed}"] = (
                lambda name=name, pages=pages, n=n, seed=seed: build_workload(
                    name, pages, n, seed=seed
                )
            )
    for workload, (stream, n, host, run_seeds) in PERFBENCH.items():
        for run_seed, seeds in run_seeds.items():
            for k, seed in enumerate(seeds):
                cases[f"perfbench/{workload}/{run_seed}/{k}"] = (
                    lambda spec=SimulationSpec(
                        config=SSDConfig(geometry=GEOMETRY),
                        workload=WorkloadSpec(stream, n_requests=n),
                        host=host,
                        seed=seed,
                    ): spec.build_trace()
                )
    cases["open-loop/Proxy/burstiness4"] = lambda: SimulationSpec(
        config=SSDConfig.small(),
        workload=WorkloadSpec("Proxy", n_requests=3000),
        host=HostSpec(queue_depth=16, rate_iops=5000.0, burstiness=4.0),
        seed=5,
    ).build_trace()
    cases["tenants/spec_tenants"] = lambda: load_spec_file(
        os.path.join(ROOT, "examples", "spec_tenants.json")
    ).build_trace()
    return cases


#: case name -> callable whose ValueError's text is pinned instead
ERRORS = {
    # compaction bursts of 16-64 pages cannot fit a 16-page space
    "error/Rocks/16x400": lambda: build_workload("Rocks", 16, 400, seed=3),
    # Web's 8-page log sits below page 0 of a 6-page space
    "error/Web/6x50": lambda: build_workload("Web", 6, 50, seed=3),
}


def digests():
    """Every case's digest, keyed by case."""
    out = {case: trace_digest(build()) for case, build in _cases().items()}
    for case, build in ERRORS.items():
        out[case] = hashlib.sha256(_error(build).encode()).hexdigest()
    return out


@pytest.fixture(scope="module")
def current():
    return digests()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_every_case_is_pinned(current, golden):
    assert sorted(current) == sorted(golden)
    assert len(golden) == 9 * len(POINTS) + 2 * (10 + 10 + 4) + 2 + len(ERRORS)


@pytest.mark.parametrize("case", sorted(list(_cases()) + list(ERRORS)))
def test_trace_matches_golden(current, golden, case):
    assert current[case] == golden[case]
