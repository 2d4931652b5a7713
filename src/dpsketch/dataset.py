"""Row-bounded regression datasets ``A = [X | y]`` and CSV ingestion."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CertificationError, ParameterError
from .linalg import as_matrix
from .mechanisms import RowBound

# Relative slack when checking row norms against B, so rows rescaled to
# exactly B still certify despite rounding.
_NORM_SLACK = 1e-9


@dataclass(frozen=True)
class DataMatrix:
    """The n-by-(d+1) matrix ``A = [X | y]`` with a certified row bound.

    The response column is the last one. This is the one certification
    point: every row's l2 norm is checked against ``bound.B`` at construction
    (a refusal names the first row over it, counting from 1) and ``A`` is kept
    as a read-only copy, so writes to the caller's array cannot void the
    certificate and releases need not scan ``A`` again.
    """

    A: np.ndarray
    bound: RowBound

    def __post_init__(self):
        a = np.array(as_matrix(self.A))
        if a.shape[1] < 2:
            raise ParameterError("need at least one feature column plus the response")
        a.flags.writeable = False
        object.__setattr__(self, "A", a)
        limit = self.bound.B * (1.0 + _NORM_SLACK)
        if max_row_norm(a) > limit:
            norms = np.sqrt((a**2).sum(axis=1))
            bad = int(np.argmax(norms > limit))
            raise CertificationError(
                f"row {bad + 1} has norm {norms[bad]:.6g} > bound {self.bound.B:.6g}"
            )

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1] - 1

    @property
    def X(self) -> np.ndarray:
        return self.A[:, :-1]

    @property
    def y(self) -> np.ndarray:
        return self.A[:, -1]


def max_row_norm(a: np.ndarray) -> float:
    return float(np.sqrt((np.asarray(a, dtype=float) ** 2).sum(axis=1)).max())


def certified_rows(data: "DataMatrix | np.ndarray", bound: RowBound) -> np.ndarray:
    """The rows of ``data``, certified for a release at ``bound``.

    A ``DataMatrix`` certified at ``B' <= bound.B`` is returned unscanned;
    anything else goes through ``DataMatrix(..., bound)`` once.
    """
    if isinstance(data, DataMatrix):
        if data.bound.B <= bound.B:
            return data.A
        data = data.A
    return DataMatrix(data, bound).A


def from_xy(X, y, bound: RowBound) -> DataMatrix:
    """Stack features and response into a certified ``[X | y]`` matrix."""
    x = as_matrix(X)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if yv.shape[0] != x.shape[0]:
        raise ParameterError("X and y disagree on the number of rows")
    return DataMatrix(np.column_stack([x, yv]), bound)


def synthetic_regression(
    n: int,
    d: int,
    seed,
    noise: float = 0.05,
    beta_scale: float = 0.1,
    bound: float = 1.0,
) -> DataMatrix:
    """A planted linear model ``y = X beta0 + noise`` rescaled so every row of
    ``[X | y]`` has l2 norm at most ``bound`` (rescaling X and y together
    leaves the regression solution unchanged)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    beta0 = beta_scale * rng.standard_normal(d)
    y = x @ beta0 + noise * rng.standard_normal(n)
    a = np.column_stack([x, y])
    a *= bound / max_row_norm(a)
    return DataMatrix(a, RowBound(bound))


@dataclass(frozen=True)
class DatasetFile:
    """Where and how to read a CSV regression dataset."""

    path: str
    delimiter: str = ","
    has_header: bool = False
    response_column: "str | int" = -1


@dataclass(frozen=True)
class IngestResult:
    data: DataMatrix
    rescaled_rows: int


def ingest(f: DatasetFile, bound: RowBound, clip: str = "scale") -> IngestResult:
    """Parse a CSV file into a DataMatrix, which certifies it.

    ``clip="scale"`` first rescales rows whose l2 norm exceeds ``bound.B`` to
    norm exactly B and reports how many were touched; under ``clip="reject"``
    such a row raises the ``DataMatrix`` refusal, prefixed with the path.
    """
    if clip not in ("reject", "scale"):
        raise ParameterError(f"clip must be 'reject' or 'scale', got {clip!r}")
    if len(f.delimiter) != 1:
        raise ParameterError(f"delimiter must be one character, got {f.delimiter!r}")
    path = Path(f.path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle, delimiter=f.delimiter)
            rows = [row for row in reader if row]
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text ({exc.reason})") from None
    header: "list[str] | None" = None
    if f.has_header:
        if not rows:
            raise ParameterError(f"{path}: empty file")
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
    if not rows:
        raise ParameterError(f"{path}: no data rows")

    width = len(rows[0])
    if header is not None and len(header) != width:
        raise ParameterError(f"{path}: header has {len(header)} cells, expected {width}")
    values = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParameterError(f"{path}: row {i + 1} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise ParameterError(
                    f"{path}: non-numeric cell at row {i + 1}, column {j + 1}: {cell!r}"
                ) from None
    del rows  # the parsed text outweighs the matrix several times over
    if not np.all(np.isfinite(values)):
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise ParameterError(f"{path}: non-finite value at row {i + 1}, column {j + 1}")

    resp = _resolve_response(f.response_column, header, width, path)
    a = values[:, [j for j in range(width) if j != resp] + [resp]]
    rescaled = 0
    if clip == "scale":
        norms = np.sqrt((a**2).sum(axis=1))
        over = norms > bound.B * (1.0 + _NORM_SLACK)
        rescaled = int(over.sum())
        a[over] *= (bound.B / norms[over])[:, None]
    try:
        data = DataMatrix(a, bound)
    except (CertificationError, ParameterError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    if data.n < data.d + 2:
        raise ParameterError(f"{path}: need at least d+2 = {data.d + 2} rows, got {data.n}")
    return IngestResult(data, rescaled)


def _resolve_response(column, header, width, path) -> int:
    if isinstance(column, str):
        stripped = column.strip()
        try:
            idx = int(stripped)
        except ValueError:
            if header is None:
                raise ParameterError(
                    f"{path}: response column {column!r} given by name but file has no header"
                ) from None
            count = header.count(stripped)
            if count == 0:
                raise ParameterError(f"{path}: no column named {column!r} in header") from None
            if count > 1:
                raise ParameterError(f"{path}: column {column!r} appears {count} times in header") from None
            return header.index(stripped)
        column = idx
    idx = int(column)
    if idx < 0:
        idx += width
    if not (0 <= idx < width):
        raise ParameterError(f"{path}: response column index {column} out of range")
    return idx
