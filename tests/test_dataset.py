import csv
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from dpsketch import countsketch, dataset, jl, l1
from dpsketch.countsketch import private_countsketch_l2
from dpsketch.dataset import (
    DataMatrix,
    ingest,
    max_row_norm,
    row_norms,
    synthetic_regression,
)
from dpsketch.errors import CertificationError, ParameterError
from dpsketch.jl import JlConfig, private_jl_sketch
from dpsketch.l1 import L1SketchConfig, private_l1_sketch
from dpsketch.mechanisms import PrivacyParams, RowBound

PP = PrivacyParams(1.0, 0.05)


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestDataMatrix:
    def test_certification_holds(self):
        a = np.array([[3.0, 4.0], [0.0, 5.0]])  # row norms exactly 5
        dm = DataMatrix(a, RowBound(5.0))
        assert dm.n == 2 and dm.d == 1
        assert np.allclose(dm.X[:, 0], [3.0, 0.0])
        assert np.allclose(dm.y, [4.0, 5.0])

    def test_certification_violation(self):
        with pytest.raises(CertificationError):
            DataMatrix(np.array([[3.0, 4.0]]), RowBound(4.9))

    def test_violation_names_first_offending_row(self):
        a = np.array([[0.3, 0.4], [3.0, 4.0], [6.0, 8.0]])
        with pytest.raises(CertificationError, match=r"^row 2 has norm 5 > bound 4\.9$"):
            DataMatrix(a, RowBound(4.9))

    def test_single_column_rejected(self):
        with pytest.raises(ParameterError):
            DataMatrix(np.ones((3, 1)), RowBound(2.0))

    def test_norm_whose_squares_overflow_certifies(self):
        # 1e155**2 overflows, but the row's norm is 1e155 <= B
        a = np.array([[1e155, 0.0], [0.1, 0.2]])
        assert DataMatrix(a, RowBound(1e200)).n == 2
        with pytest.raises(CertificationError, match=r"^row 1 has norm 1e\+155 > bound 1e\+150$"):
            DataMatrix(a, RowBound(1e150))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("first_row", [[0.3, 0.4], [3.0, 4.0]], ids=["within", "over"])
    def test_non_finite_entry_refused(self, bad, first_row):
        # a NaN norm compares false with B, so it must not certify; and a
        # non-finite entry is refused before a row over B is named
        a = np.array([first_row, [0.1, 0.2], [0.1, bad]])
        with pytest.raises(ParameterError, match=r"^matrix contains NaN or Inf entries$"):
            DataMatrix(a, RowBound(1.0))
        with pytest.raises(ParameterError, match=r"^matrix contains NaN or Inf entries$"):
            DataMatrix._adopt(np.asfortranarray(a), RowBound(1.0))

    def test_finite_row_whose_norm_overflows_is_over_the_bound(self):
        # even hypot of these finite entries is inf: a row over B, not a
        # non-finite entry
        a = np.array([[0.1, 0.2], [1.5e308, 1.5e308]])
        with pytest.raises(CertificationError, match=r"^row 2 has norm inf > bound 1e\+300$"):
            DataMatrix(a, RowBound(1e300))

    def test_certification_takes_no_bool_matrix(self):
        # Certifying an adopted array allocates the n row norms (1/11 of A),
        # one block of squares and an n-entry mask: 0.1025x A measured. The
        # bool matrix of np.isfinite (1/8 of A) would fail this bound.
        a = np.random.default_rng(7).standard_normal((200_000, 11))
        a = np.asfortranarray(a / np.linalg.norm(a, axis=1).max())
        tracemalloc.start()
        try:
            DataMatrix._adopt(a, RowBound(1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.11 * a.nbytes

    def test_construction_peak_is_the_copy(self):
        a = np.random.default_rng(7).standard_normal((200_000, 11))
        a /= np.linalg.norm(a, axis=1).max()
        tracemalloc.start()
        try:
            DataMatrix(a, RowBound(1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * a.nbytes

    def test_float32_construction_peak_is_one_copy(self):
        # a float32 input is converted straight into the column-major float64
        # copy, not into a row-major float64 array copied again
        a = np.random.default_rng(7).standard_normal((200_000, 11)).astype(np.float32)
        a /= np.linalg.norm(a, axis=1).max() * np.float32(1.001)
        tracemalloc.start()
        try:
            dm = DataMatrix(a, RowBound(1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dm.A.dtype == np.float64 and dm.A.flags.f_contiguous
        assert np.array_equal(dm.A, a)
        assert peak < 1.5 * a.size * 8

    def test_synthetic_is_certified(self):
        dm = synthetic_regression(100, 3, seed=1, bound=2.5)
        assert max_row_norm(dm.A) <= 2.5 * (1 + 1e-9)
        assert dm.n == 100 and dm.d == 3

    @pytest.mark.parametrize("n, d", [(0, 5), (-1, 3), (5, 0)])
    def test_synthetic_refuses_empty_sizes(self, n, d):
        with pytest.raises(ParameterError):
            synthetic_regression(n, d, seed=1)


class TestRowNorms:
    @pytest.mark.parametrize("width", [2, 4, 11, 33])
    def test_blocked_bit_identical_to_whole_matrix(self, width):
        n = 3 * (dataset._INGEST_CELLS // width) + 17  # several blocks and a part
        a = np.random.default_rng(width).standard_normal((n, width)) * np.geomspace(1e-3, 1e3, width)
        assert row_norms(a).tobytes() == np.sqrt((a**2).sum(axis=1)).tobytes()

    def test_overflowing_squares_are_measured_by_hypot(self):
        a = np.array([[1e200, 1e200, 3.0], [3.0, 4.0, 0.0], [-1e300, 0.0, 0.0]])
        assert row_norms(a).tolist() == [np.hypot(1e200, 1e200), 5.0, 1e300]

    @pytest.mark.parametrize("width", [2, 11, 33])
    def test_same_bits_on_both_layouts(self, width):
        # numpy sums a row of a row-major block pairwise and a column-major
        # block's rows one column at a time; at width 11 about one row in six
        # of these got another last bit before the squares were laid out
        # row-major
        a = np.random.default_rng(width).standard_normal((100_000, width))
        a[::997] *= 1e160  # squares overflow: these rows go through hypot
        norms = row_norms(a)
        assert np.all(np.isfinite(norms))
        assert row_norms(np.asfortranarray(a)).tobytes() == norms.tobytes()


class TestLayout:
    """``A`` is kept column-major and read-only, however it was built."""

    @staticmethod
    def assert_certified_layout(data):
        assert data.A.flags.f_contiguous
        assert not data.A.flags.writeable

    def test_from_caller_array(self):
        a = np.random.default_rng(3).standard_normal((500, 4))
        data = DataMatrix(a / np.linalg.norm(a, axis=1).max(), RowBound(1.0))
        self.assert_certified_layout(data)
        assert a.flags.c_contiguous  # the caller's array is untouched

    def test_from_ingest(self, tmp_path):
        a = np.random.default_rng(4).standard_normal((3000, 5))  # several blocks
        path = tmp_path / "data.csv"
        np.savetxt(path, a / np.linalg.norm(a, axis=1).max(), delimiter=",")
        self.assert_certified_layout(ingest(str(path), RowBound(1.0)).data)

    def test_from_synthetic_regression(self):
        self.assert_certified_layout(synthetic_regression(500, 4, seed=3))

    def test_adopt_keeps_the_array_it_is_given(self):
        a = np.asfortranarray(synthetic_regression(50, 3, seed=3).A)
        data = DataMatrix._adopt(a, RowBound(1.0))
        assert data.A is a
        assert not a.flags.writeable


class TestCertifyOnce:
    """``DataMatrix`` is the one certification point; releases trust it."""

    RELEASES = {
        "jl": lambda data, bound: private_jl_sketch(data, JlConfig(16, PP, bound, seed=1)),
        "cs2": lambda data, bound: private_countsketch_l2(data, 8, PP, bound, seed=1),
        "l1": lambda data, bound: private_l1_sketch(data, L1SketchConfig(PP, bound, seed=1, N=8)),
    }

    @pytest.fixture
    def scans(self, monkeypatch):
        # Count row-norm scans at every site that imports max_row_norm, so a
        # scan reintroduced in any release is counted too.
        calls = []

        def counting(a):
            calls.append(np.shape(a))
            return max_row_norm(a)

        for module in (dataset, jl, countsketch, l1):
            monkeypatch.setattr(module, "max_row_norm", counting)
        return calls

    @pytest.mark.parametrize("method", sorted(RELEASES))
    @pytest.mark.parametrize("certified_at", [0.5, 1.0])
    def test_certified_matrix_is_not_rescanned(self, method, certified_at, scans):
        data = synthetic_regression(200, 3, seed=2, bound=certified_at)
        scans.clear()
        self.RELEASES[method](data, RowBound(1.0))
        assert scans == []

    @pytest.mark.parametrize("method", sorted(RELEASES))
    def test_raw_array_is_scanned_once(self, method, scans):
        a = synthetic_regression(200, 3, seed=2, bound=1.0).A.copy()
        scans.clear()
        self.RELEASES[method](a, RowBound(1.0))
        assert scans == [a.shape]
        scans.clear()
        a[7] *= 1.01 / np.linalg.norm(a[7])
        with pytest.raises(CertificationError):
            self.RELEASES[method](a, RowBound(1.0))
        assert scans == [a.shape]

    @pytest.mark.parametrize("method", sorted(RELEASES))
    def test_tighter_release_bound_is_scanned_once(self, method, scans):
        data = synthetic_regression(200, 3, seed=2, bound=1.0)
        scans.clear()
        with pytest.raises(CertificationError):
            self.RELEASES[method](data, RowBound(0.5))
        assert scans == [data.A.shape]

    def test_matrix_is_a_read_only_copy(self):
        a = np.array([[0.6, 0.8], [0.0, 1.0]])
        dm = DataMatrix(a, RowBound(1.0))
        a[0] = [30.0, 40.0]
        assert dm.A.tolist() == [[0.6, 0.8], [0.0, 1.0]]
        with pytest.raises(ValueError):
            dm.A[0, 0] = 30.0
        with pytest.raises(ValueError):
            dm.X[1] = 5.0

    def test_read_only_caller_array_is_still_copied(self):
        # a read-only array is no sign that nothing else can write to it: its
        # owner may make it writeable again
        a = np.array([[0.6, 0.8], [0.0, 1.0]])
        a.flags.writeable = False
        dm = DataMatrix(a, RowBound(1.0))
        a.flags.writeable = True
        a[0] = [30.0, 40.0]
        assert dm.A.tolist() == [[0.6, 0.8], [0.0, 1.0]]
        assert not dm.A.flags.writeable
        assert not np.shares_memory(a, dm.A)


class TestIngest:
    def test_accepts_bounded_rows(self, tmp_path):
        path = write_csv(tmp_path, "1,2,0.5\n2,1,0.25\n0,1,1\n1,0,1\n")
        res = ingest(path, RowBound(10.0))
        assert res.data.n == 4 and res.data.d == 2
        assert res.rescaled_rows == 0
        assert res.data.bound.B == 10.0

    def test_scale_clips_offending_row(self, tmp_path):
        path = write_csv(tmp_path, "12,0\n1,0\n2,0\n")
        res = ingest(path, RowBound(10.0), clip="scale")
        assert res.rescaled_rows == 1
        assert res.data.A[0, 0] == pytest.approx(12.0 * 10.0 / 12.0)
        assert res.data.A[1, 0] == 1.0  # untouched

    def test_reject_raises(self, tmp_path):
        path = write_csv(tmp_path, "12,0\n1,0\n2,0\n")
        with pytest.raises(CertificationError, match="row 1"):
            ingest(path, RowBound(10.0), clip="reject")

    def test_parse_error_names_cell(self, tmp_path):
        path = write_csv(tmp_path, "1,2\n3,oops\n4,5\n")
        with pytest.raises(ParameterError, match=r"row 2, column 2"):
            ingest(path, RowBound(10.0))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_cell(self, tmp_path, cell):
        path = write_csv(tmp_path, f"1,2\n3,4\n4,{cell}\n1,1\n")
        with pytest.raises(ParameterError, match=r"non-finite value at row 3, column 2$"):
            ingest(path, RowBound(10.0))

    def test_one_column_refused(self, tmp_path):
        path = write_csv(tmp_path, "1\n2\n3\n")
        with pytest.raises(ParameterError, match=r"data\.csv: need at least one feature column plus the response$"):
            ingest(path, RowBound(10.0))

    def test_ambiguous_response_name(self, tmp_path):
        path = write_csv(tmp_path, "a,b,a\n1,2,3\n2,1,4\n1,1,5\n0,2,6\n")
        with pytest.raises(ParameterError, match=r"column 'a' appears 2 times in header"):
            ingest(path, RowBound(10.0), has_header=True, response_column="a")
        res = ingest(path, RowBound(10.0), has_header=True, response_column="b")
        assert res.data.y.tolist() == [2.0, 1.0, 1.0, 2.0]

    def test_header_and_named_response(self, tmp_path):
        path = write_csv(tmp_path, "age,income,target\n1,2,3\n2,1,4\n1,1,5\n0,2,6\n")
        res = ingest(path, RowBound(10.0), has_header=True, response_column="target")
        assert np.allclose(res.data.y, [3.0, 4.0, 5.0, 6.0])

    def test_response_by_index(self, tmp_path):
        path = write_csv(tmp_path, "1,9,2\n2,8,1\n1,7,1\n0,6,2\n")
        res = ingest(path, RowBound(20.0), response_column=1)
        assert np.allclose(res.data.y, [9.0, 8.0, 7.0, 6.0])
        assert res.data.d == 2

    def test_custom_delimiter(self, tmp_path):
        path = write_csv(tmp_path, "1;2\n3;4\n1;1\n")
        res = ingest(path, RowBound(10.0), delimiter=";")
        assert res.data.n == 3

    @pytest.mark.parametrize("header", ["a,b,c,target", "a,b"])
    def test_header_width_must_match_rows(self, tmp_path, header):
        path = write_csv(tmp_path, header + "\n1,2,3\n2,1,4\n1,1,5\n0,2,6\n")
        with pytest.raises(ParameterError, match="header has"):
            ingest(path, RowBound(10.0), has_header=True, response_column="target")
        with pytest.raises(ParameterError, match="header has"):
            ingest(path, RowBound(10.0), has_header=True, response_column="b")

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_delimiter_checked_before_open(self, tmp_path, delimiter):
        missing = str(tmp_path / "absent.csv")
        with pytest.raises(ParameterError, match="one character"):
            ingest(missing, RowBound(10.0), delimiter=delimiter)

    @pytest.mark.parametrize("delimiter", ['"', "\r", "\n"])
    def test_unusable_delimiter_refused_before_open(self, tmp_path, delimiter):
        missing = str(tmp_path / "absent.csv")
        message = f"delimiter cannot be the quote character or a line break, got {delimiter!r}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            ingest(missing, RowBound(10.0), delimiter=delimiter)

    def test_named_response_needs_header(self, tmp_path):
        path = write_csv(tmp_path, "1,2\n3,4\n1,1\n")
        with pytest.raises(ParameterError, match="header"):
            ingest(path, RowBound(10.0), response_column="target")

    def test_too_few_rows(self, tmp_path):
        path = write_csv(tmp_path, "1,2,3\n4,5,6\n")  # d+1 = 3 needs >= 4 rows
        with pytest.raises(ParameterError, match="rows"):
            ingest(path, RowBound(100.0))

    @pytest.mark.parametrize("has_header", [True, False])
    def test_byte_order_mark_is_not_data(self, tmp_path, has_header):
        # Excel's "CSV UTF-8" export starts the file with a byte-order mark
        text = ("target,x\n" if has_header else "") + "3.25,1\n4,2\n5,1\n6,2\n"
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        response = "target" if has_header else "0"
        res = ingest(str(path), RowBound(10.0), has_header=has_header, response_column=response)
        assert res.data.y.tolist() == [3.25, 4.0, 5.0, 6.0]
        assert res.data.X[:, 0].tolist() == [1.0, 2.0, 1.0, 2.0]

    def test_peak_memory_is_a_few_copies_of_the_matrix(self, tmp_path):
        # the text of one row block is held at a time, not every cell's string
        a = np.random.default_rng(5).standard_normal((20_000, 11))
        path = tmp_path / "big.csv"
        np.savetxt(path, a / np.linalg.norm(a, axis=1).max(), delimiter=",")
        for trailer in ("", "\n\n"):  # blank lines: more lines than rows
            with open(path, "a") as handle:
                handle.write(trailer)
            tracemalloc.start()
            try:
                res = ingest(str(path), RowBound(1.0))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # A, sized by the line count before it is filled and shrunk in
            # place if that was too many, plus one block's text and values:
            # 1.29x A measured both times, where keeping the blocks and
            # concatenating them took 2.02x and an exact-size copy would take
            # 2x. The bound leaves 0.11x A of slack for the text reader's
            # buffers in other numpy versions.
            assert peak < 1.4 * res.data.A.nbytes
            assert res.data.n == 20_000 and not res.data.A.flags.writeable

    @pytest.mark.parametrize("clip,bound", [("reject", 1e5), ("scale", 2e3)])
    def test_blocks_bit_identical_to_per_cell_float(self, tmp_path, clip, bound):
        width = 4
        n = 2 * (dataset._INGEST_CELLS // width) + 123  # two full blocks and a part
        rng = np.random.default_rng(6)
        values = rng.standard_normal((n, width)) * np.geomspace(1e-3, 1e3, width)
        cells = [[repr(float(v)) for v in row] for row in values]
        for i in range(0, n, 7):
            cells[i][1] = f'"{cells[i][1]}"'  # quoted
        for i in range(3, n, 11):
            cells[i][2] = f" {float(values[i, 2]):.6e} "
        text = "a,target,b,c\n" + "\n".join(",".join(row) for row in cells) + "\n"
        path = write_csv(tmp_path, text)
        res = ingest(path, RowBound(bound), clip=clip, has_header=True, response_column="target")

        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        ref = np.array([[float(c) for c in row] for row in rows])[:, [0, 2, 3, 1]]
        if clip == "scale":
            norms = np.sqrt((ref**2).sum(axis=1))
            over = norms > bound * (1.0 + 1e-9)
            ref[over] *= (bound / norms[over])[:, None]
            assert res.rescaled_rows == int(over.sum()) > 0
        assert res.data.A.tobytes() == np.ascontiguousarray(ref).tobytes()

    @pytest.mark.parametrize("has_header", [False, True])
    @pytest.mark.parametrize(
        "bad,message",
        [
            ("1,2", "row {row} has 2 cells, expected 3"),
            ("1,x2,3", "non-numeric cell at row {row}, column 2: 'x2'"),
            ("1,2,-inf", "non-finite value at row {row}, column 3"),
        ],
        ids=["ragged", "non-numeric", "non-finite"],
    )
    def test_error_in_second_block_names_global_row(self, tmp_path, has_header, bad, message):
        step = dataset._INGEST_CELLS // 3
        lines = ["0.1,0.2,0.3"] * (2 * step)
        lines[step + 5] = bad
        text = ("a,b,c\n" if has_header else "") + "\n".join(lines) + "\n"
        path = write_csv(tmp_path, text)
        expected = message.format(row=step + 6)
        with pytest.raises(ParameterError, match=f": {re.escape(expected)}$"):
            ingest(path, RowBound(1.0), has_header=has_header)

    def test_response_resolved_before_rows_are_parsed(self, tmp_path):
        step = dataset._INGEST_CELLS // 3
        lines = ["0.1,0.2,0.3"] * (2 * step)
        lines[step + 5] = "1,x2,3"
        path = write_csv(tmp_path, "a,b,c\n" + "\n".join(lines) + "\n")
        with pytest.raises(ParameterError, match=r"no column named 'missing' in header$"):
            ingest(path, RowBound(1.0), has_header=True, response_column="missing")

    @pytest.mark.parametrize("row", ["1e200,1e200,3", "1.5e308,1.5e308,0"])
    def test_scale_keeps_direction_when_squares_overflow(self, tmp_path, row):
        path = write_csv(tmp_path, row + "\n0.1,0.2,0.3\n0.3,0.1,0.2\n0.2,0.3,0.1\n0.1,0.1,0.1\n")
        res = ingest(path, RowBound(2.0), clip="scale")
        assert res.rescaled_rows == 1
        first = res.data.A[0]
        assert np.linalg.norm(first) == pytest.approx(2.0)
        x = np.array([float(v) for v in row.split(",")])
        assert first == pytest.approx(2.0 * (x / np.abs(x).max()) / np.linalg.norm(x / np.abs(x).max()))
        assert res.data.A[1:].tolist() == [[0.1, 0.2, 0.3], [0.3, 0.1, 0.2], [0.2, 0.3, 0.1], [0.1, 0.1, 0.1]]

    def test_c_reader_parses_quoted_and_padded_blocks(self, tmp_path, monkeypatch):
        # Cells are parsed one by one only in the first row, which csv.reader
        # reads with the header, and in the one block holding a cell only
        # float reads; every other block goes to numpy's C reader.
        parsed = []

        def spy(block, *args):
            parsed.append(len(block))
            return parse_block(block, *args)

        parse_block = dataset._parse_block
        monkeypatch.setattr(dataset, "_parse_block", spy)
        step = dataset._INGEST_CELLS // 3
        lines = [f'"0.{i % 9}", 0.2 ,0.3' if i % 7 == 0 else f"0.1,0.{i % 9}\t,0.3" for i in range(3 * step)]
        lines[step + 4] = "0.1,0.000_2,0.3"
        path = write_csv(tmp_path, "a,b,c\r\n" + "\r\n".join(lines) + "\r\n\r\n")
        res = ingest(path, RowBound(1.0), has_header=True)
        assert parsed == [1, step]
        assert res.data.n == 3 * step
        assert res.data.A[step + 4, 1] == 0.0002

    def test_oversized_field_refused(self, tmp_path):
        path = write_csv(tmp_path, "1,2\n3," + "4" * 200_000 + "\n1,1\n")
        with pytest.raises(ParameterError, match=r"data\.csv: line 2: field larger than field limit"):
            ingest(path, RowBound(10.0))

    def test_unknown_clip_mode(self, tmp_path):
        path = write_csv(tmp_path, "1,2\n3,4\n1,1\n")
        with pytest.raises(ParameterError):
            ingest(path, RowBound(10.0), clip="truncate")


class TestCountThenFill:
    """``A`` is sized by the line count of a regular file and filled a block at
    a time. A pipe, a count too low (a file that grew after it) and one too
    high (blank lines, a quoted cell spanning lines) give the regular file's
    bytes, rescaled rows and cs2 release, in a column-major read-only ``A``."""

    ROWS = 3000  # several blocks of 5 columns, and more than one block's rows

    @pytest.fixture
    def lines(self):
        a = np.random.default_rng(12).standard_normal((self.ROWS, 5))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        a[::40] *= 3.0  # rescaled to norm 2 under clip="scale"
        return [",".join(repr(float(v)) for v in row) for row in a]

    @staticmethod
    def read(path):
        return ingest(str(path), RowBound(2.0), clip="scale", has_header=True, response_column="y")

    def check(self, tmp_path, lines, got):
        plain = tmp_path / "plain.csv"
        plain.write_text("a,y,b,c,d\n" + "\n".join(lines) + "\n")
        assert dataset._count_lines(plain) == self.ROWS + 1
        expected = self.read(plain)
        assert expected.rescaled_rows == self.ROWS // 40 > 0
        assert got.data.A.flags.f_contiguous and not got.data.A.flags.writeable
        assert got.data.A.tobytes() == expected.data.A.tobytes()
        assert got.rescaled_rows == expected.rescaled_rows
        release = lambda res: private_countsketch_l2(res.data, 64, PP, RowBound(2.0), seed=1)[0].tobytes()
        assert release(got) == release(expected)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_pipe(self, tmp_path, lines):
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)

        def feed():
            with open(pipe, "w") as handle:
                handle.write("a,y,b,c,d\n" + "\n".join(lines) + "\n")

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        got = self.read(pipe)
        writer.join(timeout=10)
        assert not writer.is_alive()
        self.check(tmp_path, lines, got)

    @pytest.mark.parametrize("counted", [1, 2, 11])  # the header and 0, 1 or 10 rows
    def test_count_too_low(self, tmp_path, lines, monkeypatch, counted):
        path = tmp_path / "grown.csv"
        path.write_text("a,y,b,c,d\n" + "\n".join(lines) + "\n")
        with monkeypatch.context() as patch:
            patch.setattr(dataset, "_count_lines", lambda path: counted)
            got = self.read(path)
        self.check(tmp_path, lines, got)

    def test_count_too_high(self, tmp_path, lines):
        spaced = list(lines)
        cells = spaced[1500].split(",")
        cells[2] = f'"{cells[2]}\n"'  # float reads the cell without its line break
        spaced[1500] = ",".join(cells)
        spaced[10:10] = ["", ""]
        spaced += ["", ""]
        path = tmp_path / "spaced.csv"
        path.write_text("a,y,b,c,d\n" + "\n".join(spaced) + "\n")
        assert dataset._count_lines(path) == self.ROWS + 6
        self.check(tmp_path, lines, self.read(path))

    @pytest.mark.parametrize("width", [1, 2, 5])
    @pytest.mark.parametrize("old,filled,rows", [(2, 2, 5), (7, 3, 16), (7, 7, 7), (7, 4, 4), (16, 9, 9), (7, 0, 3)])
    def test_resize_rows_keeps_the_filled_rows(self, width, old, filled, rows):
        a = np.empty((old, width), order="F")
        a[:] = np.arange(old * width).reshape(old, width)
        kept = a[:filled].copy()
        dataset._resize_rows(a, filled, rows)
        assert a.shape == (rows, width) and a.flags.f_contiguous and a.flags.owndata
        assert np.array_equal(a[:filled], kept)

    @pytest.mark.parametrize("read_bytes", [1, 2, 3, 1 << 16])
    def test_line_count_is_the_readers(self, tmp_path, monkeypatch, read_bytes):
        # \n, \r and \r\n each end a line, also where a read splits \r\n
        monkeypatch.setattr(dataset, "_COUNT_BYTES", read_bytes)
        path = tmp_path / "lines.csv"
        for text in ["", "a", "a\n", "\n\n", "a\r\nb", "a\rb\r", "\r\n\r\n", "ab\r\r\nc\n\rd", "a,b\r\n1,2\r"]:
            path.write_bytes(text.encode())
            with open(path, newline="") as handle:
                assert dataset._count_lines(path) == sum(1 for _ in handle), text


def reference_read(path, delimiter, has_header):
    """The reader before numpy's C parser: ``csv.reader`` records with blank
    lines skipped, each cell parsed with ``float``, and the checks made a block
    of ``_INGEST_CELLS // width`` rows at a time, rows counted from 1 after the
    header. Returns the matrix or the error message."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            rows = [row for row in reader if row]
        except csv.Error as exc:
            return f"line {reader.line_num}: {exc}"
    rows = rows[has_header:]
    width = len(rows[0])
    step = max(1, dataset._INGEST_CELLS // width)
    blocks = []
    for start in range(0, len(rows), step):
        block = np.empty((len(rows[start : start + step]), width))
        for i, row in enumerate(rows[start : start + step]):
            if len(row) != width:
                return f"row {start + i + 1} has {len(row)} cells, expected {width}"
            for j, cell in enumerate(row):
                try:
                    block[i, j] = float(cell)
                except ValueError:
                    return f"non-numeric cell at row {start + i + 1}, column {j + 1}: {cell!r}"
        if not np.all(np.isfinite(block)):
            i, j = np.argwhere(~np.isfinite(block))[0]
            return f"non-finite value at row {start + i + 1}, column {j + 1}"
        blocks.append(block)
    return np.concatenate(blocks)


class TestReaderMatchesReference:
    """``ingest`` reads every file as ``reference_read`` does: the same bytes of
    ``A`` or the same message, whether numpy's C reader or the per-cell path
    parses a block."""

    # Three columns in blocks of 8 rows, so a 40-row file has five blocks.
    CELLS = 24
    ROWS = 40
    # Data rows (from 0) a case is put in: the first block, the last row of
    # the first block and a later block.
    POSITIONS = [1, 7, 18]
    # Replaces the first or the last cell of the row.
    CELL_CASES = {
        "plain": "0.5",
        "quoted": '"0.5"',
        "quoted-then-text": '"0."5',
        "padded": " 0.5 ",
        "underscore": "1_000",
        "arabic-digit": "\u0661",
        "no-break-space": "\xa00.5",
        "unit-separator": "\x1f0.5",
        "plus": "+1",
        "minus-zero": "-0",
        "underflow": "1e-400",
        "nan": "nan",
        "inf": "-Infinity",
        "overflow": "1e400",
        "empty": "",
        "hash": "#",
        "hash-after-number": "0.5#1",
        "inner-quote": '1"2',
        "escaped-quote": '"1""2"',
        "quoted-line-break": '"0.5\n"',
        "open-quote": '"0.5',
    }
    # Edits the list of lines (without terminators) at data row i.
    LINE_CASES = {
        "ragged": lambda lines, i, d: lines.__setitem__(i, d.join(["0.1", "0.2"])),
        "whitespace-line": lambda lines, i, d: lines.__setitem__(i, "   "),
        "blank-lines": lambda lines, i, d: lines.__setitem__(slice(i, i), ["", ""]),
        "trailing-blank-lines": lambda lines, i, d: lines.extend(["", "", ""]),
        "oversized-field": lambda lines, i, d: lines.__setitem__(i, d.join(["0.1", "0.2", "9" * 200_000])),
    }
    # Terminator and leading bytes of the whole file.
    FILE_CASES = {"lf": ("\n", ""), "crlf-bom": ("\r\n", "\ufeff"), "cr": ("\r", "")}

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(dataset, "_INGEST_CELLS", self.CELLS)

    def lines(self, delimiter):
        rng = np.random.default_rng(11)
        return [delimiter.join(repr(float(v)) for v in row) for row in rng.uniform(-1, 1, (self.ROWS, 3))]

    def check(self, tmp_path, lines, delimiter, has_header, newline="\n", lead=""):
        if has_header:
            lines = [delimiter.join("abc")] + lines
        path = tmp_path / "case.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(lead + newline.join(lines) + newline)
        expected = reference_read(path, delimiter, has_header)
        try:
            got = ingest(path, RowBound(1e6), clip="reject", delimiter=delimiter, has_header=has_header)
        except ParameterError as exc:
            assert str(exc) == f"{path}: {expected}"
        else:
            assert not isinstance(expected, str), expected
            assert got.data.A.tobytes() == expected.tobytes()
        return expected

    @pytest.mark.parametrize("delimiter", [",", ";", "\t", "|", " "])
    @pytest.mark.parametrize("case", sorted(CELL_CASES))
    def test_cell(self, tmp_path, case, delimiter):
        for i in self.POSITIONS:
            for j in (0, 2):
                for has_header in (False, True):
                    lines = self.lines(delimiter)
                    cells = lines[i].split(delimiter)
                    cells[j] = self.CELL_CASES[case]
                    lines[i] = delimiter.join(cells)
                    self.check(tmp_path, lines, delimiter, has_header)

    @pytest.mark.parametrize("delimiter", [",", ";", "\t", "|", " "])
    @pytest.mark.parametrize("case", sorted(LINE_CASES))
    def test_line(self, tmp_path, case, delimiter):
        for i in self.POSITIONS:
            for has_header in (False, True):
                lines = self.lines(delimiter)
                self.LINE_CASES[case](lines, i, delimiter)
                self.check(tmp_path, lines, delimiter, has_header)

    @pytest.mark.parametrize("delimiter", [",", ";", "\t", "|", " "])
    @pytest.mark.parametrize("case", sorted(FILE_CASES))
    def test_file(self, tmp_path, case, delimiter):
        newline, lead = self.FILE_CASES[case]
        for has_header in (False, True):
            self.check(tmp_path, self.lines(delimiter), delimiter, has_header, newline, lead)

    @pytest.mark.parametrize("has_header", [False, True])
    @pytest.mark.parametrize("case", ["quoted-line-break", "blank-lines"])
    def test_blocks_start_at_the_same_rows(self, tmp_path, case, has_header):
        # A non-finite cell ends the second block and a non-numeric one opens
        # the third: the first is reported only if blocks hold the same rows
        # after a row spanning two lines, or blank lines, in the first block.
        lines = self.lines(",")
        lines[15] = "0.1,inf,0.3"
        lines[16] = "0.1,x,0.3"
        if case == "quoted-line-break":
            lines[2] = '0.1,0.2,"0.3\n"'
        else:
            lines[2:2] = ["", ""]
        assert self.check(tmp_path, lines, ",", has_header) == "non-finite value at row 16, column 2"

    @pytest.mark.parametrize("has_header", [False, True])
    def test_line_numbers_count_on_after_the_per_cell_path(self, tmp_path, has_header):
        # "1_000" sends the first block to csv.reader and the field over the
        # csv size limit the third: lines are numbered from the start of the
        # file across both readers
        lines = self.lines(",")
        lines[1] = "1_000,0.2,0.3"
        lines[18] = "0.1,0.2," + "9" * 200_000
        expected = self.check(tmp_path, lines, ",", has_header)
        assert expected.startswith(f"line {19 + has_header}: field larger than field limit")
