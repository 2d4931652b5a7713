"""Row-bounded regression datasets ``A = [X | y]`` and CSV ingestion."""

from __future__ import annotations

import csv
import io
import itertools
import mmap
import os
import signal
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CertificationError, ParameterError
from .linalg import as_matrix, nonempty_matrix
from .mechanisms import RowBound

# Relative slack when checking row norms against B, so rows rescaled to
# exactly B still certify despite rounding.
_NORM_SLACK = 1e-9
# Cells per block when parsing a CSV or squaring rows. A block's text (several
# times the size of its floats) and its squares are held to a fixed size; an
# ingest peaks at A plus about 0.45 MB of them at 11 columns.
_INGEST_CELLS = 1 << 13
# Bytes per read when counting a CSV file's lines.
_COUNT_BYTES = 1 << 16
# Bytes from which a regular file is parsed in two processes (_read_split).
# Forking, and waiting for the worker to exit, cost a fixed few ms: on a
# 2-core host with one BLAS thread (median of 40, 11 columns) the two-process
# read of 0.46 MB took 14.4 ms against 9.3 in process, 0.69 MB tied at 12.3
# against 12.9, and 1.15 MB took 17.2 against 20.5. A fork also costs more in
# a process with a larger address space (1.1 ms, and 3.7 ms beside 200 MB of
# arrays), hence 1 MiB.
_SPLIT_BYTES = 1 << 20


@dataclass(frozen=True)
class DataMatrix:
    """The n-by-(d+1) matrix ``A = [X | y]`` with a certified row bound.

    The response column is the last one. This is the one certification
    point: every row's l2 norm is checked against ``bound.B`` at construction
    (a refusal names the first row over it, counting from 1) and ``A`` is kept
    as a read-only copy, so writes to the caller's array cannot void the
    certificate and releases need not scan ``A`` again. Certification takes
    no other n x (d+1) array, only the n row norms: ``row_norms`` squares a
    block of rows at a time, and a NaN or infinite entry is found by the
    non-finite norm it gives its row (the bool matrix of ``np.isfinite`` is
    built only to confirm a refusal). ``ingest`` and
    ``synthetic_regression`` hand over the array they have just built, which
    is kept without a copy (``_adopt``).

    ``A`` is stored column-major (Fortran order). The bucket sums of the
    hashed releases, ``X @ beta``, ``y`` and the residuals of the solvers go
    over ``A`` a column at a time, and in this layout each reads contiguous
    memory. The jl release's tall-skinny QR copies ``A`` a group of rows at
    a time in either layout and folds each group into one running R, so it
    never holds more than one group.
    """

    A: np.ndarray
    bound: RowBound

    def __post_init__(self):
        self._certify(nonempty_matrix(np.array(self.A, dtype=float, order="F")))

    @classmethod
    def _adopt(cls, a: np.ndarray, bound: RowBound) -> "DataMatrix":
        """A DataMatrix over ``a`` itself, not a copy of it: for a
        column-major array the caller has just built and holds no other
        reference to."""
        data = object.__new__(cls)
        object.__setattr__(data, "bound", bound)
        data._certify(nonempty_matrix(a))
        return data

    def _certify(self, a: np.ndarray) -> None:
        top = max_row_norm(a)  # NaN or inf if an entry is: np.max propagates NaN
        if not np.isfinite(top):  # a non-finite entry, or finite ones too large even for hypot
            as_matrix(a)  # refuses the first with ParameterError
        if a.shape[1] < 2:
            raise ParameterError("need at least one feature column plus the response")
        a.flags.writeable = False
        object.__setattr__(self, "A", a)
        limit = self.bound.B * (1.0 + _NORM_SLACK)
        if top > limit:
            norms = row_norms(a)
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


def row_norms(a: np.ndarray) -> np.ndarray:
    """The l2 norm of each row of ``a``, squared and summed ``_INGEST_CELLS``
    cells at a time; rows whose squares overflow are measured by ``hypot``.

    The squares of a block are laid out row-major whatever the layout of
    ``a``, so each row is summed in the same order, and its norm has the same
    bits, for a row-major and a column-major ``a``."""
    a = np.asarray(a, dtype=float)
    step = max(1, _INGEST_CELLS // max(1, a.shape[1]))
    norms = np.empty(len(a))
    with np.errstate(over="ignore"):
        for i in range(0, len(a), step):
            norms[i : i + step] = np.sqrt(np.square(a[i : i + step], order="C").sum(axis=1))
        big = np.isinf(norms)
        norms[big] = np.hypot.reduce(a[big], axis=1, initial=0.0)
    return norms


def max_row_norm(a: np.ndarray) -> float:
    return float(row_norms(a).max())


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
    if n < 1 or d < 1:
        raise ParameterError(f"need n >= 1 rows and d >= 1 features, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    beta0 = beta_scale * rng.standard_normal(d)
    y = x @ beta0 + noise * rng.standard_normal(n)
    a = np.empty((n, d + 1), order="F")
    a[:, :-1], a[:, -1] = x, y
    del x, y
    a *= bound / max_row_norm(a)
    return DataMatrix._adopt(a, RowBound(bound))  # a is referenced nowhere else: no copy


@dataclass(frozen=True)
class IngestResult:
    data: DataMatrix
    rescaled_rows: int


def ingest(
    path: "str | Path", bound: RowBound, clip: str = "scale", delimiter: str = ",",
    has_header: bool = False, response_column: "str | int" = -1,
) -> IngestResult:
    """Parse a CSV file into a DataMatrix, which certifies it.

    ``csv.reader`` reads the header and the first data row, and the response
    column is resolved from them before any row is parsed. The rest is read in
    blocks of about ``_INGEST_CELLS`` cells, whose lines numpy's C reader
    (``np.loadtxt``) parses. When it refuses a block, or might read it
    otherwise than ``csv.reader`` and ``float`` would (see ``_load_lines``),
    ``csv.reader`` reads that block's rows from its first line, through any
    lines a quoted field runs on to, and ``_parse_block`` parses each cell
    with ``float``; the next block goes to the C reader again. A block holds
    the same rows on either path, so values, row and line numbers and
    messages do not depend on which one ran. Each block is then checked
    finite, put in response-last order and, under ``clip="scale"``, has its
    rows over ``bound.B`` rescaled to norm exactly B (counted in the result).
    Under ``clip="reject"`` such a row raises the ``DataMatrix`` refusal,
    prefixed with the path. A delimiter that is the quote character or a line
    break is refused before the file is opened.

    The blocks are written straight into one column-major ``A``, which
    ``DataMatrix`` keeps without a copy. For a regular file, ``A`` is sized
    by a first pass that counts the lines (``_count_lines``), less the
    header: every record takes at least one line. The peak is then ``A``
    plus one block's text and values, or certification's row norms (about
    1.1x ``A`` at 200k x 11). Where there are more records than the count (a
    pipe, or a file that grew after it), ``A`` grows by doubling; where there
    are fewer (blank lines, quoted cells spanning lines), it is shrunk to
    them. Both resize it in place (``_resize_rows``), so it is never held
    twice. Either way ``A`` is column-major and read-only.

    A regular file of ``_SPLIT_BYTES`` or more that holds no quote character
    is read by two processes (``_read_split``) when this one may run on two
    CPUs or more and runs a single OS thread; so a multi-threaded BLAS keeps
    ``ingest`` in process. A forked worker parses the second half of the
    file while this process parses the first, both into one ``A`` held in an
    anonymous shared map, which ``A`` then views. The bytes of ``A``, the
    rescaled count and every message do not depend on it: a later range may
    be read concurrently, but the error reported is the one the read in
    process gives, that of the first malformed block in file order.
    """
    if clip not in ("reject", "scale"):
        raise ParameterError(f"clip must be 'reject' or 'scale', got {clip!r}")
    if len(delimiter) != 1:
        raise ParameterError(f"delimiter must be one character, got {delimiter!r}")
    if delimiter in '"\r\n':
        raise ParameterError(f"delimiter cannot be the quote character or a line break, got {delimiter!r}")
    path = Path(path)
    args = (path, bound, clip, delimiter, has_header, response_column)
    try:
        a, rescaled = _read(*args, split=True) or _read(*args, split=False)
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        data = DataMatrix._adopt(a, bound)  # a is referenced nowhere else: no copy
    except (CertificationError, ParameterError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    if data.n < data.d + 2:
        raise ParameterError(f"{path}: need at least d+2 = {data.d + 2} rows, got {data.n}")
    return IngestResult(data, rescaled)


def _read(
    path: Path, bound: RowBound, clip: str, delimiter: str, has_header: bool, response_column, split: bool,
) -> "tuple[np.ndarray, int] | None":
    """``A`` of the CSV at ``path``, before certification, and the number of
    rows rescaled; read in two processes where ``split`` is set and
    ``_splits`` allows, and None when that read must be done again in
    process."""
    with path.open(newline="", encoding="utf-8-sig") as handle:
        records, line = _records(handle, delimiter, 1 + has_header, 0, path)
        if len(records) < 1 + has_header:
            raise ParameterError(f"{path}: " + ("empty file" if has_header and not records else "no data rows"))
        header = [c.strip() for c in records[0]] if has_header else None
        head = records[-1:]  # the first row, parsed with the block it opens
        width = len(head[0])
        if header is not None and len(header) != width:
            raise ParameterError(f"{path}: header has {len(header)} cells, expected {width}")
        resp = _resolve_response(response_column, header, width, path)
        parser = _BlockParser(path, delimiter, tuple(j for j in range(width) if j != resp) + (resp,), clip, bound)
        count = _count_lines(path) if path.is_file() else None  # else a pipe
        if split and _splits(count, line):
            return _read_split(parser, handle, head, line, count)
        capacity = count.lines - has_header if count else parser.step
        a = np.empty((max(2, capacity), width), order="F")  # 2 rows: see _resize_rows
        start, rescaled = parser.fill(a, handle, head, 0, line)
    if start < len(a):  # fewer records than lines: blank lines, or quoted cells spanning lines
        _resize_rows(a, start, start)
    return a, rescaled


@dataclass(frozen=True)
class _BlockParser:
    """The block loop of ``ingest`` for one file: the one parser, run over
    the whole file in process, and over each range of a two-process read."""

    path: Path
    delimiter: str
    order: "tuple[int, ...]"  # the file's columns in response-last order
    clip: str
    bound: RowBound

    @property
    def step(self) -> int:
        """Rows per block."""
        return max(1, _INGEST_CELLS // len(self.order))

    def fill(self, a: np.ndarray, lines, head: "list[list[str]]", start: int, line: int) -> "tuple[int, int]":
        """Parse the CSV ``lines`` into the rows of ``a`` from ``start`` on,
        led by ``head`` (the first data row, already read as a record, or
        none). ``start`` rows and ``line`` lines of the file come before them,
        so messages name rows and lines in the file. Returns the row after
        the last one written and the number of rows rescaled. More rows than
        ``a`` holds grow it (``_resize_rows``), which only an array that owns
        its data allows."""
        path, width, step, rescaled = self.path, len(self.order), self.step, 0
        while True:
            taken, rows = _take_lines(lines, step - len(head))
            values = _load_lines(taken, rows, width, self.delimiter)
            if values is None:  # csv.reader reads the block from its first line on
                block, read = _records(itertools.chain(taken, lines), self.delimiter, step - len(head), line, path)
                values = _parse_block(head + block, width, start, path)
                line += read
            else:
                line += len(taken)
                if head:
                    values = np.concatenate([_parse_block(head, width, start, path), values])
            head, taken, block = [], None, None  # the text goes before the next block's is read
            if not len(values):
                return start, rescaled
            if not np.all(np.isfinite(values)):
                i, j = np.argwhere(~np.isfinite(values))[0]
                raise ParameterError(f"{path}: non-finite value at row {start + i + 1}, column {j + 1}")
            if start + len(values) > len(a):  # more records than counted: a pipe, or a file that grew
                _resize_rows(a, start, max(2 * len(a), start + len(values)))
            part = a[start : start + len(values)]
            for j, column in enumerate(self.order):
                part[:, j] = values[:, column]
            start += len(values)
            values = None  # nor is the parsed block held while the next is read
            if self.clip == "scale":
                norms = row_norms(part)
                over = norms > self.bound.B * (1.0 + _NORM_SLACK)
                huge = over & (norms > np.sqrt(np.finfo(float).max))  # squares overflow
                part[huge] /= np.abs(part[huge]).max(axis=1)[:, None]  # so B / norm is not 0
                norms[huge] = row_norms(part[huge])
                rescaled += int(over.sum())
                part[over] *= (self.bound.B / norms[over])[:, None]
            del part  # a is resized only while no view of it exists


def _splits(count: "_Count | None", line: int) -> bool:
    """Whether the file counted as ``count``, of which the header and first
    row took ``line`` lines, is read in two processes (``_read_split``).

    It must be a regular file of ``_SPLIT_BYTES`` or more, with a line break
    past its middle, a first range holding data lines, and no quote character
    (a quoted cell may span lines, so a line start need not start a record).
    This process must be allowed two CPUs or more and run a single OS thread:
    a fork copies only the thread calling it, so a process that runs others
    (a multi-threaded BLAS among them) is not forked.
    """
    if count is None or count.size < _SPLIT_BYTES or count.quoted or count.split is None or count.before <= line:
        return False
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no /proc: the threads cannot be counted
        return False


def _read_split(
    parser: _BlockParser, handle, head: "list[list[str]]", line: int, count: "_Count",
) -> "tuple[np.ndarray, int] | None":
    """``A`` and the rescaled count, read by this process and a forked
    worker, or None when the file must be read again in process.

    The file is split at ``count.split``, a line start past its middle. The
    worker parses the second range with ``parser.fill``, and this process
    the first, from ``handle``, where ``line`` lines have been read and
    ``head`` is the first data row. Both write into one column-major ``A`` in
    an anonymous shared map made before the fork, so ``A`` is held once and
    nothing is sent back but the worker's exit status and two integers after
    ``A`` in the map: its end row and rescaled count. The file has no quote
    character, so each line holds at most one record, and the worker writes
    its rows from ``first``, the most the first range can hold; blank lines
    there leave a gap, closed by moving the worker's rows down.

    A row's values do not depend on the block it falls in, so ``A`` has the
    bytes of the read in process. A message can: the block astride the split
    is read as two. So on an error in the first range, a worker that does
    not exit 0 (it exits 1 on any error, and on more rows than ``A`` holds),
    a fork that fails or a file whose size changed since the count, None is
    returned, and ``ingest`` reads the file in process, which reports the
    error of the first malformed block. The worker ends in ``os._exit``
    whatever happens: it never returns into the caller's frames or flushes
    stdio. This process reaps it in every case, killing it first when it
    leaves early.
    """
    width = len(parser.order)
    first = 1 + count.before - line  # the head, and one row per line before the split
    rows = 1 + count.lines - line
    cells = rows * width
    shared = mmap.mmap(-1, 8 * (cells + 2))
    a = np.frombuffer(shared, float, cells).reshape((rows, width), order="F")
    tally = np.frombuffer(shared, np.int64, 2, offset=8 * cells)
    try:
        pid = os.fork()
    except OSError:  # no process to be had
        return None
    if pid == 0:  # the worker
        code = 1
        try:
            with open(parser.path, "rb") as raw:
                raw.seek(count.split)
                with io.TextIOWrapper(raw, encoding="utf-8", newline="") as lines:
                    tally[:] = parser.fill(a, lines, [], first, count.before)
            code = 0
        finally:
            os._exit(code)
    try:
        end, rescaled = parser.fill(a, itertools.islice(handle, count.before - line), head, 0, line)
        status = os.waitpid(pid, 0)[1]
        pid = None
    except (ParameterError, UnicodeDecodeError):
        return None
    finally:
        if pid is not None:  # leaving early: the worker's range is not wanted
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) or parser.path.stat().st_size != count.size:
        return None
    stop, more = (int(v) for v in tally)
    n = end + stop - first
    if n < rows:  # pack the columns at n rows, the worker's moved down to the parent's
        flat = a.reshape(-1, order="F")
        for j in range(width):
            flat[j * n : j * n + end] = flat[j * rows : j * rows + end]
            flat[j * n + end : (j + 1) * n] = flat[j * rows + first : j * rows + stop]
        a = flat[: n * width].reshape((n, width), order="F")
    return a, rescaled + more


def _resize_rows(a: np.ndarray, filled: int, rows: int) -> None:
    """Resize the column-major ``a`` in place to ``rows`` rows, keeping its
    first ``filled``. Its buffer is reallocated (``ndarray.resize``, which
    for a large array seldom copies), so it is never held twice, and each
    column's rows are moved to where the new shape puts them: down before a
    shrink, up after a growth, in an order that overwrites no column not yet
    moved. ``a`` must own its data, no view of it may exist, and it must
    have 2 rows or more: numpy keeps column-major strides on a resize only
    for an array that is not also row-major, as one of a single row is."""
    old, width = a.shape
    if rows < old:
        flat = a.reshape(-1, order="F")
        for j in range(1, width):
            flat[j * rows : j * rows + filled] = flat[j * old : j * old + filled]
        del flat
    a.resize((rows, width), refcheck=False)
    if rows > old:
        flat = a.reshape(-1, order="F")
        for j in range(width - 1, 0, -1):
            flat[j * rows : j * rows + filled] = flat[j * old : j * old + filled]


@dataclass(frozen=True)
class _Count:
    """What one pass over a file's bytes (``_count_lines``) finds."""

    lines: int  # each ended by \n, \r, \r\n or the end of the file
    size: int  # bytes read
    quoted: bool  # whether it holds a quote character
    split: "int | None"  # the offset after the first \n at or past the middle, if there is one
    before: int  # lines ended before split


def _count_lines(path: Path) -> _Count:
    """The number of lines of the file at ``path``, each ended by ``\\n``,
    ``\\r``, ``\\r\\n`` or the end of the file, and what a two-process read
    needs (see ``_Count``). A CSV record takes one line or more, so the line
    count bounds the number of records. The bytes are read ``_COUNT_BYTES``
    at a time into one buffer, and ``\\r`` is counted only in a read that
    holds one."""
    buf = bytearray(_COUNT_BYTES)
    view = np.frombuffer(buf, np.uint8)
    lines, size, last, quoted, split, before = 0, 0, None, False, None, 0
    with path.open("rb", buffering=0) as raw:
        middle = os.fstat(raw.fileno()).st_size // 2
        while got := raw.readinto(buf):
            if last == ord("\r") and buf[0] == ord("\n"):  # a \r\n split between two reads
                lines -= 1
            if split is None and size + got > middle and (i := buf.find(b"\n", max(0, middle - size), got)) >= 0:
                split, before = size + i + 1, lines + _line_ends(buf, view, i + 1)
            lines += _line_ends(buf, view, got)
            quoted = quoted or buf.find(b'"', 0, got) >= 0
            last = buf[got - 1]
            size += got
    return _Count(lines + (last is not None and last not in b"\r\n"), size, quoted, split, before)


def _line_ends(buf: bytearray, view: np.ndarray, end: int) -> int:
    """The lines ended in ``buf[:end]``, which ``view`` shows as bytes: one
    at each ``\\n``, and at each ``\\r`` not followed by ``\\n`` there."""
    chunk = view[:end]
    ends = np.count_nonzero(chunk == ord("\n"))
    if buf.find(b"\r", 0, end) >= 0:  # \r\n ends one line, a lone \r another
        cr = chunk == ord("\r")
        ends += np.count_nonzero(cr) - np.count_nonzero(cr[:-1] & (chunk[1:] == ord("\n")))
    return int(ends)


def _records(lines, delimiter: str, count: int, line: int, path: Path) -> "tuple[list[list[str]], int]":
    """The next ``count`` non-blank CSV records of ``lines`` (fewer at the end
    of the file) and the number of lines they took; ``line`` lines of the file
    come before ``lines``, so a ``csv.Error`` names its line in the file."""
    reader = csv.reader(lines, delimiter=delimiter)
    try:
        return list(itertools.islice(filter(None, reader), count)), reader.line_num
    except csv.Error as exc:
        raise ParameterError(f"{path}: line {line + reader.line_num}: {exc}") from None


def _take_lines(handle, count: int) -> "tuple[list[str], int]":
    """The next lines of ``handle`` holding ``count`` non-blank ones (fewer at
    the end of the file), and how many they hold. A blank line is one that
    ``csv.reader`` reads as ``[]``, and the last line taken is not blank
    (unless the file ends), so ``csv.reader`` reading ``count`` rows from the
    first line reads every line taken, and blocks start at the same rows on
    either path."""
    lines, rows = [], 0
    while rows < count and (more := list(itertools.islice(handle, count - rows))):
        lines += more
        rows += len(more) - more.count("\n") - more.count("\r\n") - more.count("\r")
    return lines, rows


def _load_lines(lines: "list[str]", rows: int, width: int, delimiter: str) -> "np.ndarray | None":
    """The ``rows`` non-blank ``lines`` parsed by numpy's C reader, or None
    where ``csv.reader`` and ``float`` might read them otherwise.

    The C reader splits cells and quotes as ``csv.reader`` does and parses
    them with the same string-to-double routine as ``float``. It is not used
    (None) when it refuses a cell (``float`` also takes ``1_000`` and
    non-ASCII digits); when it does not give ``rows`` rows of ``width`` cells
    (a quoted field spanning lines, a ragged row); when a line could hold a
    field longer than ``csv.field_size_limit()``; when the block holds an odd
    number of quote characters (a quoted field runs on past the block); or
    when it holds one of the ASCII separators ``\\x1c``-``\\x1f``, which the C
    reader strips from around a number as whitespace and ``float`` refuses.
    """
    if not rows:
        return np.empty((0, width))
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    text = "".join(lines)
    if text.count('"') % 2 or any(c in text for c in "\x1c\x1d\x1e\x1f"):
        return None
    del text  # not held with the C reader's values
    try:
        values = np.loadtxt(lines, delimiter=delimiter, comments=None, quotechar='"', ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (rows, width) else None


def _parse_block(block: "list[list[str]]", width: int, start: int, path: Path) -> np.ndarray:
    """The CSV records of ``block`` as floats, each cell parsed with Python's
    ``float``; ``start`` rows of the file come before the block. A ragged row
    or a cell ``float`` refuses is named, counting rows from 1 across the file.
    """
    values = np.empty((len(block), width))
    for i, row in enumerate(block, start + 1):
        if len(row) != width:
            raise ParameterError(f"{path}: row {i} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            try:
                values[i - start - 1, j] = float(cell)
            except ValueError:
                raise ParameterError(
                    f"{path}: non-numeric cell at row {i}, column {j + 1}: {cell!r}"
                ) from None
    return values


def _resolve_response(column, header, width, path) -> int:
    try:
        idx = int(column)
    except ValueError:
        name = column.strip()
        if header is None:
            raise ParameterError(
                f"{path}: response column {column!r} given by name but file has no header"
            ) from None
        count = header.count(name)
        if count == 0:
            raise ParameterError(f"{path}: no column named {column!r} in header") from None
        if count > 1:
            raise ParameterError(f"{path}: column {column!r} appears {count} times in header") from None
        return header.index(name)
    if not -width <= idx < width:
        raise ParameterError(f"{path}: response column index {idx} out of range")
    return idx % width
