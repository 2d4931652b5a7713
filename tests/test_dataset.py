import numpy as np
import pytest

from dpsketch import countsketch, dataset, jl, l1
from dpsketch.countsketch import private_countsketch_l2
from dpsketch.dataset import (
    DataMatrix,
    DatasetFile,
    from_xy,
    ingest,
    max_row_norm,
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

    def test_from_xy(self):
        dm = from_xy([[1.0], [2.0]], [3.0, 4.0], RowBound(10.0))
        assert dm.A.shape == (2, 2)

    def test_single_column_rejected(self):
        with pytest.raises(ParameterError):
            DataMatrix(np.ones((3, 1)), RowBound(2.0))

    def test_synthetic_is_certified(self):
        dm = synthetic_regression(100, 3, seed=1, bound=2.5)
        assert max_row_norm(dm.A) <= 2.5 * (1 + 1e-9)
        assert dm.n == 100 and dm.d == 3


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


class TestIngest:
    def test_accepts_bounded_rows(self, tmp_path):
        path = write_csv(tmp_path, "1,2,0.5\n2,1,0.25\n0,1,1\n1,0,1\n")
        res = ingest(DatasetFile(path), RowBound(10.0))
        assert res.data.n == 4 and res.data.d == 2
        assert res.rescaled_rows == 0
        assert res.data.bound.B == 10.0

    def test_scale_clips_offending_row(self, tmp_path):
        path = write_csv(tmp_path, "12,0\n1,0\n2,0\n")
        res = ingest(DatasetFile(path), RowBound(10.0), clip="scale")
        assert res.rescaled_rows == 1
        assert res.data.A[0, 0] == pytest.approx(12.0 * 10.0 / 12.0)
        assert res.data.A[1, 0] == 1.0  # untouched

    def test_reject_raises(self, tmp_path):
        path = write_csv(tmp_path, "12,0\n1,0\n2,0\n")
        with pytest.raises(CertificationError, match="row 1"):
            ingest(DatasetFile(path), RowBound(10.0), clip="reject")

    def test_parse_error_names_cell(self, tmp_path):
        path = write_csv(tmp_path, "1,2\n3,oops\n4,5\n")
        with pytest.raises(ParameterError, match=r"row 2, column 2"):
            ingest(DatasetFile(path), RowBound(10.0))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_cell(self, tmp_path, cell):
        path = write_csv(tmp_path, f"1,2\n3,4\n4,{cell}\n1,1\n")
        with pytest.raises(ParameterError, match=r"non-finite value at row 3, column 2$"):
            ingest(DatasetFile(path), RowBound(10.0))

    def test_one_column_refused(self, tmp_path):
        path = write_csv(tmp_path, "1\n2\n3\n")
        with pytest.raises(ParameterError, match=r"data\.csv: need at least one feature column plus the response$"):
            ingest(DatasetFile(path), RowBound(10.0))

    def test_ambiguous_response_name(self, tmp_path):
        path = write_csv(tmp_path, "a,b,a\n1,2,3\n2,1,4\n1,1,5\n0,2,6\n")
        with pytest.raises(ParameterError, match=r"column 'a' appears 2 times in header"):
            ingest(DatasetFile(path, has_header=True, response_column="a"), RowBound(10.0))
        res = ingest(DatasetFile(path, has_header=True, response_column="b"), RowBound(10.0))
        assert res.data.y.tolist() == [2.0, 1.0, 1.0, 2.0]

    def test_header_and_named_response(self, tmp_path):
        path = write_csv(tmp_path, "age,income,target\n1,2,3\n2,1,4\n1,1,5\n0,2,6\n")
        res = ingest(
            DatasetFile(path, has_header=True, response_column="target"), RowBound(10.0)
        )
        assert np.allclose(res.data.y, [3.0, 4.0, 5.0, 6.0])

    def test_response_by_index(self, tmp_path):
        path = write_csv(tmp_path, "1,9,2\n2,8,1\n1,7,1\n0,6,2\n")
        res = ingest(DatasetFile(path, response_column=1), RowBound(20.0))
        assert np.allclose(res.data.y, [9.0, 8.0, 7.0, 6.0])
        assert res.data.d == 2

    def test_custom_delimiter(self, tmp_path):
        path = write_csv(tmp_path, "1;2\n3;4\n1;1\n")
        res = ingest(DatasetFile(path, delimiter=";"), RowBound(10.0))
        assert res.data.n == 3

    @pytest.mark.parametrize("header", ["a,b,c,target", "a,b"])
    def test_header_width_must_match_rows(self, tmp_path, header):
        path = write_csv(tmp_path, header + "\n1,2,3\n2,1,4\n1,1,5\n0,2,6\n")
        with pytest.raises(ParameterError, match="header has"):
            ingest(DatasetFile(path, has_header=True, response_column="target"), RowBound(10.0))
        with pytest.raises(ParameterError, match="header has"):
            ingest(DatasetFile(path, has_header=True, response_column="b"), RowBound(10.0))

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_delimiter_checked_before_open(self, tmp_path, delimiter):
        missing = str(tmp_path / "absent.csv")
        with pytest.raises(ParameterError, match="one character"):
            ingest(DatasetFile(missing, delimiter=delimiter), RowBound(10.0))

    def test_named_response_needs_header(self, tmp_path):
        path = write_csv(tmp_path, "1,2\n3,4\n1,1\n")
        with pytest.raises(ParameterError, match="header"):
            ingest(DatasetFile(path, response_column="target"), RowBound(10.0))

    def test_too_few_rows(self, tmp_path):
        path = write_csv(tmp_path, "1,2,3\n4,5,6\n")  # d+1 = 3 needs >= 4 rows
        with pytest.raises(ParameterError, match="rows"):
            ingest(DatasetFile(path), RowBound(100.0))

    @pytest.mark.parametrize("has_header", [True, False])
    def test_byte_order_mark_is_not_data(self, tmp_path, has_header):
        # Excel's "CSV UTF-8" export starts the file with a byte-order mark
        text = ("target,x\n" if has_header else "") + "3.25,1\n4,2\n5,1\n6,2\n"
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        response = "target" if has_header else "0"
        res = ingest(DatasetFile(str(path), has_header=has_header, response_column=response), RowBound(10.0))
        assert res.data.y.tolist() == [3.25, 4.0, 5.0, 6.0]
        assert res.data.X[:, 0].tolist() == [1.0, 2.0, 1.0, 2.0]

    def test_unknown_clip_mode(self, tmp_path):
        path = write_csv(tmp_path, "1,2\n3,4\n1,1\n")
        with pytest.raises(ParameterError):
            ingest(DatasetFile(path), RowBound(10.0), clip="truncate")
