"""Release / solve / verify benchmark for dpsketch.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {csv-pipeline,release-inmem} \\
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the same checkout; without it the
script exits with code 2. Inputs are generated from ``--seed``.

With ``--trace 0`` the run sets up (generates its inputs and warms up)
several times, measures the peak memory of one release per method under
``tracemalloc`` in a separate untimed pass, then runs timed operations, cycle
after cycle, until ``--seconds`` have passed and every operation of a cycle
has run at least once. Each timing metric is the fastest of its samples,
and ``verify_s`` is the sum of the suites' fastest samples; the table beside
it prints the median, the highest percentile with at least ten samples
beyond it, and the sample count. With
``--trace 1`` it alternates an untraced and a traced cycle, in pairs, while
another pair is expected to end within ``--seconds`` (at least one pair),
and reports per-layer metrics from the spans.

Every operation passes a correctness gate. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Scratch files go to ``.perfbench_run/work`` and a full record
of each run (environment, input sizes, raw samples, spans) to
``.perfbench_run/results``, both under the checkout.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
WORKLOADS = ("csv-pipeline", "release-inmem")

# Input generation runs this many times per --trace 0 run; setup_s is the
# import time plus the median of these.
SETUP_REPEATS = 3

# name -> unit, in the order the table prints them. failed_share is printed
# but not emitted as a metric (it is 0 on a correct run; the JSON carries
# attempted and failed instead).
END_TO_END = {
    "setup_s": "s",
    "jl_release_s": "s",
    "cs2_release_s": "s",
    "l1_release_s": "s",
    "l1illus_release_s": "s",
    "jl_peak_mb": "MB",
    "cs2_peak_mb": "MB",
    "l1_peak_mb": "MB",
    "solve_l2_s": "s",
    "solve_l1_s": "s",
    "ratio_l1_s": "s",
    "verify_s": "s",
    "failed_share": "fraction",
}
PEAK_METHODS = ("jl", "cs2", "l1")
EXTRA_TIMINGS = ("solve_l2_jl_s", "solve_l1_illus_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def single_blas_thread() -> int:
    """Run BLAS on the calling thread only; must run before numpy loads.

    The closed loop has one caller. A second BLAS thread keeps a second CPU
    busy (OpenBLAS workers spin between calls), and on the reference host a
    busy second CPU slows the first by about 1.7x within seconds, so the
    timings would follow the spinning worker rather than the code.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return 1


def import_package() -> float:
    """Import dpsketch from this checkout's src/ and return the import time."""
    if not (SRC / "dpsketch" / "__init__.py").is_file():
        print(f"error: no dpsketch sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import dpsketch

    elapsed = time.perf_counter() - start
    if Path(dpsketch.__file__).resolve().parent != SRC / "dpsketch":
        print(f"error: dpsketch imported from {dpsketch.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return elapsed


def environment(blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "llc_mb": last_level_cache_mb(),
    }


def last_level_cache_mb() -> "float | None":
    """Size of cpu0's highest-level cache in MB (1e6 bytes), from sysfs."""
    units = {"K": 1024, "M": 1024**2}
    best = None
    with contextlib.suppress(OSError, ValueError, KeyError):
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
            mb = int(size[:-1]) * units[size[-1]] / 1e6
            if best is None or level > best[0]:
                best = (level, mb)
    return None if best is None else round(best[1], 2)


class Tally:
    """Timings per metric and every failed operation."""

    def __init__(self):
        self.samples: "dict[str, list[float]]" = {}
        self.attempted = 0
        self.failures: "list[str]" = []

    def add(self, metric: "str | None", seconds: float, error: "str | None") -> None:
        self.attempted += 1
        if metric is not None:
            self.samples.setdefault(metric, []).append(seconds)
        if error is not None:
            self.failures.append(f"{metric}: {error}")
            if len(self.failures) <= 5:
                print(f"FAILED {metric}: {error}", file=sys.stderr)


def run_op(op, tally: Tally, tracer=None, timed: bool = True):
    """Run one operation with its output captured, then its gate. Returns its time."""
    from workloads import GateError

    gc.collect()
    captured = io.StringIO()
    scope = tracer.operation(op.metric) if tracer is not None else contextlib.nullcontext()
    error = result = None
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        start = time.perf_counter()
        try:
            with scope:
                result = op.body()
        except Exception:  # a failing operation is counted, not fatal
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
    if error is None:
        try:
            op.check(result)
        except GateError as exc:
            error = str(exc)
        except Exception:  # a gate that cannot read the output fails it
            error = traceback.format_exc()
    if error is not None:
        error += "\n" + captured.getvalue()[-2000:]
    tally.add(op.metric if timed else None, elapsed, error)
    return elapsed


def run_cycle(workload, tally: Tally, tracer=None) -> float:
    return sum(run_op(op, tally, tracer) for op in workload.cycle())


def memory_pass(workload, tally: Tally) -> "dict[str, float]":
    """Release once per method; the PEAK_METHODS ones under tracemalloc.

    These releases also seed the byte-identity gate: every later release by
    the same method in this run must reproduce them exactly.
    """
    from workloads import METHODS

    peaks = {}
    for method in METHODS:
        op = workload.release_op(method, workload.seed_panel[method][0])
        if method not in PEAK_METHODS:
            run_op(op, tally, timed=False)
            continue
        gc.collect()
        tracemalloc.start()
        try:
            run_op(op, tally, timed=False)
            peaks[f"{method}_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    return peaks


def tail(values: "list[float]") -> "tuple[str, float] | None":
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return f"p{100 * (n - 10) // n}", sorted(values)[n - 11]


def summarize(samples: "list[float]") -> dict:
    """The metric value is the fastest sample.

    The reference host switches between speeds up to 2x apart, for seconds
    at a time, whatever the benchmark does. The median of such a mix jumps
    from one speed to the other as their shares in a run move around one
    half; the fastest sample stays on the fast speed as long as one sample
    of the run falls in it. A change to the code moves every speed.
    """
    t = tail(samples)
    return {
        "value": min(samples),
        "median": statistics.median(samples),
        "tail": None if t is None else {"percentile": t[0], "value": t[1]},
        "n": len(samples),
    }


def setup(name: str, seed: int, workdir: Path, repeats: int):
    from workloads import WORKLOADS as CLASSES

    times, workload = [], None
    for _ in range(repeats):
        workload = None
        gc.collect()
        start = time.perf_counter()
        workload = CLASSES[name](seed, workdir)
        with contextlib.redirect_stdout(io.StringIO()):
            workload.prepare()
        times.append(time.perf_counter() - start)
    return workload, times


def timed_run(args, workload, tally: Tally) -> "tuple[dict, dict]":
    """Operations, cycle after cycle, until time is up and each has run once."""
    from workloads import SUITE_METRIC

    peaks = memory_pass(workload, tally)
    needed = {op.metric for op in workload.cycle()}
    workload.restart_seeds()
    start, ops = time.perf_counter(), 0
    # workload.cycle never returns None, so this repeats cycles without end.
    for op in itertools.chain.from_iterable(iter(workload.cycle, None)):
        if time.perf_counter() - start >= args.seconds and needed <= tally.samples.keys():
            break
        run_op(op, tally)
        ops += 1
    summaries = {m: summarize(v) for m, v in tally.samples.items()}
    suites = [summaries[m] for m in SUITE_METRIC.values()]
    summaries["verify_s"] = {
        "value": sum(s["value"] for s in suites),
        "median": sum(s["median"] for s in suites),
        "tail": None,
        "n": min(s["n"] for s in suites),
    }
    return peaks, {"ops": ops, "summaries": summaries, "samples": tally.samples}


def traced_run(args, workload, tally: Tally) -> "tuple[dict, dict]":
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    untraced = 0.0
    start, cycles, pair_s = time.perf_counter(), 0, 0.0
    # Pairs run while another one is expected to end within --seconds.
    while cycles == 0 or time.perf_counter() - start + pair_s <= args.seconds:
        pair_start = time.perf_counter()
        # Both cycles of a pair do the same work, and so does every pair.
        workload.restart_seeds()
        untraced += run_cycle(workload, tally)
        workload.restart_seeds()
        tracer.install()
        try:
            run_cycle(workload, tally, tracer)
        finally:
            tracer.uninstall()
        cycles += 1
        pair_s = time.perf_counter() - pair_start
    layers = layer_metrics(tracer.spans, cycles, untraced)
    return layers, {"cycles": cycles, "spans": [asdict(s) for s in tracer.spans]}


def print_end_to_end(metrics: dict, summaries: dict) -> None:
    from workloads import SUITE_METRIC

    print(f"{'metric':26s} {'unit':9s} {'value (min)':>12s} {'median':>12s} {'tail':>18s} {'n':>5s}")
    for name in list(END_TO_END) + list(EXTRA_TIMINGS) + list(SUITE_METRIC.values()):
        unit = END_TO_END.get(name, "s")
        s = summaries.get(name)
        value = metrics[name] if name in metrics else s["value"]
        mid = "" if not s else f"{s['median']:.6g}"
        tail_text = "" if not s or not s["tail"] else f"{s['tail']['percentile']}={s['tail']['value']:.6g}"
        count = "" if not s else str(s["n"])
        print(f"{name:26s} {unit:9s} {value:12.6g} {mid:>12s} {tail_text:>18s} {count:>5s}")


def print_layers(layers: dict) -> None:
    print(f"{'layer metric':32s} {'unit':9s} {'value':>14s}")
    for name, (value, unit, present) in layers.items():
        print(f"{name:32s} {unit:9s} {value:14.6g}" + ("" if present else "  absent"))


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = single_blas_thread()
    import_s = import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    workdir = RUN_DIR / "work"
    results = RUN_DIR / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    record = {"args": vars(args), "env": environment(blas_threads), "import_s": import_s}
    try:
        repeats = SETUP_REPEATS if args.trace == 0 else 1
        workload, setup_times = setup(args.workload, args.seed, workdir, repeats)
        record.update(why=workload.why, setup_times=setup_times, sizes=workload.sizes())
        print(f"workload {args.workload} (seed {args.seed}): {workload.why}")
        print("environment:", json.dumps(record["env"]))
        print("input sizes (MB, against LLC):", json.dumps(record["sizes"]))
        if args.trace == 0:
            peaks, detail = timed_run(args, workload, tally)
            summaries = detail["summaries"]
            metrics = {m: summaries[m]["value"] for m in END_TO_END if m in summaries}
            metrics.update(peaks, setup_s=import_s + statistics.median(setup_times))
            metrics["failed_share"] = len(tally.failures) / max(tally.attempted, 1)
            missing = [m for m in END_TO_END if m not in metrics]
            if missing:
                raise RuntimeError(f"no samples for {missing}")
            print_end_to_end(metrics, summaries)
            emitted = {m: {"value": metrics[m], "unit": u} for m, u in END_TO_END.items()
                       if m != "failed_share"}
            consistent = True
        else:
            layers, detail = traced_run(args, workload, tally)
            print_layers(layers)
            self_sum = sum(v for k, (v, _, _) in layers.items() if k.endswith(".self_s"))
            cycle_s = layers["trace.cycle_s"][0]
            consistent = abs(self_sum - cycle_s) <= 1e-9 * max(cycle_s, 1.0)
            print(f"layer self times sum to {self_sum:.6g} s per cycle; "
                  f"traced operations take {cycle_s:.6g} s; tracing overhead "
                  f"{layers['trace.overhead_share'][0]:+.2%}")
            emitted = {m: {"value": v, "unit": u} for m, (v, u, _) in layers.items()}
            record["layers_present"] = {m: p for m, (_, _, p) in layers.items()}
        print(f"failed_share: {len(tally.failures)}/{tally.attempted}; "
              f"l1 solves stopped at the IRLS iteration cap: {workload.unconverged}")
        record["unconverged_l1_solves"] = workload.unconverged
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not tally.failures and consistent,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": emitted,
    }
    record.update(detail, failures=tally.failures, result=result)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
