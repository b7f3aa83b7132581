"""Property-based end-to-end test: arbitrary traces, invariant state."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads.base import IORequest, Trace

LOGICAL_LIMIT = 512  # keep traces inside a small prefix of the space


@st.composite
def small_traces(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    requests = []
    for _ in range(n):
        op = draw(st.sampled_from(["R", "W"]))
        lpn = draw(st.integers(min_value=0, max_value=LOGICAL_LIMIT - 8))
        pages = draw(st.integers(min_value=1, max_value=8))
        requests.append(IORequest(op, lpn, pages))
    return requests


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(requests=small_traces(), ftl=st.sampled_from(["page", "cube"]))
def test_any_trace_completes_with_consistent_state(requests, ftl):
    """For any request sequence and FTL: every request completes, the
    mapper's invariants hold, and written pages read back as themselves."""
    config = SSDConfig.small(store_tags=True, env_shift_prob=0.0)
    sim = SSDSimulation(config, ftl=ftl)
    trace = Trace("prop", config.logical_pages, requests)
    stats = replay(sim, trace, queue_depth=4)
    assert stats.completed_requests == len(requests)
    mapper = sim.ftl.mapper
    mapper.check_invariants()
    written = set()
    for request in requests:
        if request.is_write:
            written.update(range(request.lpn, request.end_lpn))
    for lpn in written:
        ppn = mapper.lookup(lpn)
        assert ppn != -1, f"written LPN {lpn} lost"
        chip_id, address = config.geometry.ppn_to_address(ppn)
        result = sim.controller.chip(chip_id).read_page(
            address.block, address.layer, address.wl, address.page
        )
        assert result.data == lpn
