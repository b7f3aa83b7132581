"""Tests for block-trace CSV ingestion and the trace:<path> scheme."""

import pytest

from repro.workloads import build_workload, is_trace_path
from repro.workloads.blocktrace import BlockTraceError, load_block_trace

MSR_ROWS = """\
128166372003061629,hm,0,Read,383496192,32768,571
128166372016382155,hm,0,Write,2822144,4096,174
128166372026382245,hm,0,Write,2822144,8192,211
128166372033382455,hm,0,Read,383496192,4096,79
"""

SIMPLE_ROWS = """\
# four-column form: timestamp, op, offset, size
0.0,W,0,4096
100.0,R,4096,4096
250.0,W,8192,12288
"""


class TestParsing:
    def test_simple_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(SIMPLE_ROWS)
        trace = load_block_trace(path, logical_pages=100)
        assert len(trace) == 3
        assert [r.op for r in trace] == ["W", "R", "W"]
        assert [r.lpn for r in trace] == [0, 1, 2]
        assert [r.n_pages for r in trace] == [1, 1, 3]
        assert trace.has_arrivals
        assert [r.arrival_us for r in trace] == [0.0, 100.0, 250.0]

    def test_msr_cambridge_shape(self, tmp_path):
        """7-column MSR rows: win100ns timestamps, byte offsets."""
        path = tmp_path / "hm_0.csv"
        path.write_text(MSR_ROWS)
        trace = load_block_trace(
            path, logical_pages=1000, time_unit="win100ns",
            address_mode="wrap",
        )
        assert len(trace) == 4
        assert [r.op for r in trace] == ["R", "W", "W", "R"]
        # timestamps re-based to the first request, ticks are 100 ns
        assert trace[0].arrival_us == 0.0
        assert trace[1].arrival_us == pytest.approx(1332052.6)

    def test_header_row_by_name(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "size,op,timestamp,offset\n4096,W,5.0,0\n4096,R,9.0,4096\n"
        )
        trace = load_block_trace(path, logical_pages=100)
        assert [r.op for r in trace] == ["W", "R"]
        assert trace[0].arrival_us == 0.0
        assert trace[1].arrival_us == 4.0

    def test_whitespace_separated(self, tmp_path):
        path = tmp_path / "t.trc"
        path.write_text("0 W 0 8\n10 R 8 8\n")
        trace = load_block_trace(
            path, logical_pages=100, offset_unit="sector"
        )
        assert len(trace) == 2
        assert trace[0].n_pages == 1  # 8 sectors = 4096 B = one page

    def test_scale_mode_fits_address_space(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,W,0,4096\n1,W,40960000,4096\n")
        trace = load_block_trace(path, logical_pages=100)
        assert all(r.lpn + r.n_pages <= 100 for r in trace)
        # relative order preserved
        assert trace[0].lpn < trace[1].lpn

    def test_strict_mode_raises_when_out_of_range(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,W,40960000,4096\n")
        with pytest.raises(BlockTraceError, match="exceeds"):
            load_block_trace(path, logical_pages=100, address_mode="strict")

    def test_time_scale_stretches_arrivals(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(SIMPLE_ROWS)
        trace = load_block_trace(path, logical_pages=100, time_scale=2.0)
        assert trace[-1].arrival_us == 500.0

    def test_limit_truncates(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(SIMPLE_ROWS)
        trace = load_block_trace(path, logical_pages=100, limit=2)
        assert len(trace) == 2

    def test_bad_op_raises(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,X,0,4096\n")
        with pytest.raises(BlockTraceError, match="op"):
            load_block_trace(path, logical_pages=100)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# nothing here\n")
        with pytest.raises(BlockTraceError, match="no requests"):
            load_block_trace(path, logical_pages=100)

    def test_bad_row_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,W,0,4096\nnot,a,row,here\n")
        with pytest.raises(BlockTraceError, match=":2:"):
            load_block_trace(path, logical_pages=100)

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_names_line(self, tmp_path, stamp):
        path = tmp_path / "t.csv"
        path.write_text(f"0,W,0,4096\n{stamp},R,0,4096\n")
        with pytest.raises(BlockTraceError, match=":2: non-finite"):
            load_block_trace(path, logical_pages=100)


class TestTraceScheme:
    def test_is_trace_path(self):
        assert is_trace_path("trace:/tmp/t.csv")
        assert not is_trace_path("OLTP")

    def test_build_workload_routes_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(SIMPLE_ROWS)
        trace = build_workload(f"trace:{path}", 100, None)
        assert len(trace) == 3
        assert trace.has_arrivals

    def test_missing_file_raises(self):
        with pytest.raises((FileNotFoundError, OSError)):
            build_workload("trace:/nonexistent/nowhere.csv", 100, None)
