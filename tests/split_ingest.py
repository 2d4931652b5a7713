"""Checks of the two-process CSV read that need a fresh interpreter.

``ingest`` forks only from a process that runs a single OS thread, so these
run in a child interpreter with one BLAS thread, started by
``tests/test_dataset.py``:

    OPENBLAS_NUM_THREADS=1 python -W error tests/split_ingest.py cases REQUEST.json
    OPENBLAS_NUM_THREADS=1 python -W error tests/split_ingest.py peak DATA.csv

``cases`` reads a JSON request: ``settings`` (constants of
``dpsketch.dataset`` to set first) and ``cases``, each a ``path`` and the
keyword arguments of ``ingest`` (``bound`` a number). It ingests each file
twice, as ``ingest`` decides and with the two-process read turned off, and
prints per case the ``split`` attempts (true where the two-process result was
kept, false where the file was read again in process) and both outcomes: a
digest of the bytes of ``A`` with its shape, layout flags and rescaled count,
or the error text.

``peak`` ingests one CSV with a ``[X | y]`` of norm at most 1 and prints the
peak resident memory that the parent and the worker added: the parent's
(``VmHWM``) over its resident set before the call, and the worker's
(``ru_maxrss`` of the children) over that of a child forked just before,
which exits at once, less the worker's rows of ``A``: those pages of the
shared map are counted in the parent as well.

Both end by printing whether a child process was left unreaped (``left``).
"""

import hashlib
import json
import os
import resource
import sys
from pathlib import Path

from dpsketch import RowBound, dataset, ingest
from dpsketch.errors import DpSketchError

_read_split = dataset._read_split
attempts = []


def spy(*args):
    result = _read_split(*args)
    attempts.append(result is not None)
    return result


def outcome(path, kwargs):
    kwargs = dict(kwargs)
    bound = RowBound(kwargs.pop("bound"))
    try:
        res = ingest(path, bound, **kwargs)
    except DpSketchError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    a = res.data.A
    return {
        "A": hashlib.sha256(a.tobytes()).hexdigest(),
        "shape": list(a.shape),
        "f_contiguous": a.flags.f_contiguous,
        "writeable": a.flags.writeable,
        "rescaled": res.rescaled_rows,
    }


def cases(request):
    request = json.loads(Path(request).read_text())
    for name, value in request["settings"].items():
        setattr(dataset, name, value)
    splits = dataset._splits
    report = []
    for case in request["cases"]:
        attempts.clear()
        both = outcome(case["path"], case["kwargs"])
        split = list(attempts)
        dataset._splits = lambda *args: False
        alone = outcome(case["path"], case["kwargs"])
        dataset._splits = splits
        report.append({"split": split, "outcome": both, "in_process": alone})
    return {"cases": report}


def status(field):
    """A memory figure of this process from /proc/self/status, in bytes.
    ``VmHWM`` is the peak resident set of this interpreter alone, where
    ``ru_maxrss`` would keep that of the process it was started from."""
    with open("/proc/self/status") as lines:
        return next(int(line.split()[1]) * 1024 for line in lines if line.startswith(field + ":"))


def peak(path):
    path = Path(path)
    count = dataset._count_lines(path)
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    idle = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    before = status("VmRSS")
    data = ingest(path, RowBound(1.0)).data
    parent = status("VmHWM") - before
    worker = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss - idle) * 1024
    shared = (count.lines - count.before) * data.A.nbytes // data.n
    return {"split": list(attempts), "A": data.A.nbytes, "parent": parent, "worker": worker - shared}


if __name__ == "__main__":
    dataset._read_split = spy
    mode, arg = sys.argv[1:]
    result = {"cases": cases, "peak": peak}[mode](arg)
    try:
        os.waitpid(-1, os.WNOHANG)
        result["left"] = True
    except ChildProcessError:
        result["left"] = False
    print(json.dumps(result))
