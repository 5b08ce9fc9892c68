"""Per-report CLI benchmark for focalis.

    python3 perfbench/run.py --workload holonomy --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports focalis from ``src/``.
The seed writes the workload's input files into a scratch directory under
the checkout.  The benchmark then repeats the workload's cycle of reports
for about ``--seconds``: a closed loop with one client, one report at a
time.  Every report runs ``focalis.cli.main(argv)`` in a child forked from
this process, which has already imported focalis.  So no report inherits a
cache or other state from an earlier one, as with a real CLI invocation,
and the import cost is measured on its own as ``setup_s``.  Each report
is checked against a reference computed here (see workloads.py).

Times are corrected for the machine's drifting speed (see speed.py): each
report's times are scaled by a fixed loop timed just before and after it,
and the ``summary:`` line also gives the uncorrected figures.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs every third cycle untraced, for the tracing overhead, and traces the
others.  It prints the per-layer metrics and writes the spans to
``.perfbench_out/spans-<workload>.jsonl.gz``.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# One BLAS thread in this process, every report child and every set-up
# interpreter, set before numpy loads, so that BLAS threads on a two-core
# machine add no variance to the reports that call eigh or solve.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import gzip
import json
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy

import speed
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
REPORT_TIMEOUT_S = 120.0
SETUP_REPEATS = 11
SETUP_CODE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import speed; "
              "before = speed.calibrate(); t = time.perf_counter(); import focalis.cli; "
              "t = time.perf_counter() - t; print(t * speed.factor(before, speed.calibrate()))")


@dataclass
class Outcome:
    kind: str
    traced: bool
    wall_s: float          # fork to reap, as seen by this process, less the probes
    main_s: float          # inside the child, around main(argv)
    factor: float          # speed correction of this report (speed.factor)
    maxrss_kb: int
    bytes_written: int
    error: Optional[str]


def _read_payload(fd: int, pid: int) -> Optional[bytes]:
    """Read the child's result until EOF; kill it after REPORT_TIMEOUT_S."""
    chunks, deadline = [], time.monotonic() + REPORT_TIMEOUT_S
    while True:
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([fd], [], [], max(remaining, 0.0))
        if not ready:
            os.kill(pid, signal.SIGKILL)
            return None
        chunk = os.read(fd, 1 << 20)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _child(fd: int, argv: list, traced: bool):
    """Body of a report child: run main(argv), send the result, never return."""
    code, elapsed, spans, counters, probes = 99, 0.0, [], {}, [0.0, 0.0]
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        from focalis import cli
        tracer = None
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
        probes[0] = speed.calibrate()
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
        probes[1] = speed.calibrate()
        if tracer is not None:
            spans, counters = tracer.spans, dict(tracer.counters)
    except BaseException:
        traceback.print_exc()
    finally:
        data = json.dumps({"code": code, "elapsed": elapsed, "probes": probes,
                           "spans": spans, "counters": counters}).encode()
        while data:
            data = data[os.write(fd, data):]
        os._exit(0)


def run_report(report, out_path: str, traced: bool):
    """Run one report in a forked child and check it.

    Returns the Outcome, the child's result and, when traced, its raw bytes.
    """
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _child(write_fd, list(report.argv) + ["--out", out_path], traced)
    os.close(write_fd)
    try:
        payload = _read_payload(read_fd, pid)
    finally:
        os.close(read_fd)
        _, _, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    result = None if payload is None else json.loads(payload)
    error = f"killed after {REPORT_TIMEOUT_S:.0f} s" if result is None else None
    parsed, written = None, 0
    if os.path.exists(out_path):
        written = os.path.getsize(out_path)
        try:
            with open(out_path) as fh:
                parsed = json.load(fh)
        except ValueError as exc:
            error = error or f"unreadable report: {exc}"
        os.remove(out_path)
    if error is None:
        try:
            error = report.check(result["code"], parsed)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            error = f"malformed report: {exc!r}"
    if result is None:
        outcome = Outcome(report.kind, traced, wall, wall, 1.0, usage.ru_maxrss, written, error)
    else:
        outcome = Outcome(report.kind, traced, wall - sum(result["probes"]), result["elapsed"],
                          speed.factor(*result["probes"]), usage.ru_maxrss, written, error)
    return outcome, result, (payload if traced else None)


def run_cycles(workload, budget_s: float, workdir: str, stats=None,
               sink=None) -> List[Outcome]:
    """Whole cycles of the workload until about budget_s has passed.

    Runs stop at a cycle boundary so every run measures the same mix; the
    last cycle starts only if it would end closer to the budget than not.
    With ``stats``, every third cycle (from the second) runs untraced, for
    the tracing overhead, and the rest traced into ``stats`` and ``sink``;
    at least two cycles run then.
    """
    outcomes, cycle_times, started = [], [], time.perf_counter()
    cycle = 0
    while True:
        traced = stats is not None and cycle % 3 != 1
        cycle_start = time.perf_counter()
        for report in workload.reports:
            outcome, result, payload = run_report(
                report, os.path.join(workdir, "report.json"), traced)
            outcomes.append(outcome)
            if outcome.error:
                sys.stderr.write(f"perfbench: {report.kind} {' '.join(report.argv)}: "
                                 f"{outcome.error}\n")
            if payload is not None:
                stats.add(result["spans"], result["counters"], result["elapsed"])
                stats.counters["cli.bytes_written"] += outcome.bytes_written
                sink.append((report, payload))
        cycle_times.append(time.perf_counter() - cycle_start)
        cycle += 1
        spent = time.perf_counter() - started
        if (spent + statistics.fmean(cycle_times) / 2 >= budget_s
                and cycle >= (1 if stats is None else 2)):
            return outcomes


def reports_per_s(outcomes: List[Outcome], corrected: bool = True) -> float:
    """Reports completed per second of report time (fork to reap)."""
    return len(outcomes) / sum(o.wall_s * (o.factor if corrected else 1.0) for o in outcomes)


def percentile(values, q: float) -> float:
    """Linear-interpolated q-quantile, q in (0, 1)."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def setup_seconds() -> float:
    """Median in-interpreter time of `import focalis.cli` in fresh interpreters.

    The first interpreter compiles bytecode and warms the file cache and is
    not counted; every real CLI invocation after the first pays what the
    others measure.
    """
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC,
                              os.path.dirname(os.path.abspath(__file__))],
                             capture_output=True, text=True, check=True, timeout=60)
        if i:
            times.append(float(out.stdout))
    return statistics.median(times)


def _blas_threads() -> int:
    """Thread count reported by numpy's bundled OpenBLAS, or 0 if not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": _blas_threads()}


def src_lines() -> dict:
    counts = {}
    for path in glob.glob(os.path.join(SRC, "focalis", "*.py")):
        with open(path) as fh:
            counts[os.path.splitext(os.path.basename(path))[0]] = sum(1 for _ in fh)
    return counts


def summary(workload: str, outcomes: List[Outcome], p50: float, p90: float) -> dict:
    """failed_frac, the uncorrected figures, the median speed correction,
    per-kind corrected medians, and the kinds of the reports at p50 and p90."""
    kinds = {}
    for o in outcomes:
        kinds.setdefault(o.kind, []).append(o.main_s * o.factor * 1e3)

    def kind_at(value_ms):
        return min(outcomes, key=lambda o: abs(o.main_s * o.factor * 1e3 - value_ms)).kind

    raw = [o.main_s * 1e3 for o in outcomes]
    failed = sum(1 for o in outcomes if o.error)
    return {"workload": workload, "reports": len(outcomes),
            "failed_frac": failed / len(outcomes),
            "p50_kind": kind_at(p50), "p90_kind": kind_at(p90),
            "uncorrected": {"reports_per_s": reports_per_s(outcomes, corrected=False),
                            "report_p50_ms": percentile(raw, 0.5),
                            "report_p90_ms": percentile(raw, 0.9)},
            "median_factor": statistics.median(o.factor for o in outcomes),
            "kinds": {k: {"n": len(v), "median_ms": round(statistics.median(v), 3)}
                      for k, v in sorted(kinds.items())}}


def end_to_end(workload, workdir: str, seconds: float):
    outcomes = run_cycles(workload, seconds, workdir)
    latencies = [o.main_s * o.factor * 1e3 for o in outcomes]
    p50, p90 = percentile(latencies, 0.5), percentile(latencies, 0.9)
    print("summary:", json.dumps(summary(workload.name, outcomes, p50, p90)))
    values = {
        "reports_per_s": reports_per_s(outcomes),
        "report_p50_ms": p50,
        "report_p90_ms": p90,
        "peak_rss_mb": max(o.maxrss_kb for o in outcomes) / 1024.0,
        "setup_s": setup_seconds(),
    }
    return outcomes, values


def per_layer(workload, workdir: str, seconds: float, env: dict):
    stats, sink = tracing.LayerStats(), []
    outcomes = run_cycles(workload, seconds, workdir, stats=stats, sink=sink)
    traced = [o for o in outcomes if o.traced]
    untraced = [o for o in outcomes if not o.traced]
    os.makedirs(OUT_DIR, exist_ok=True)
    with gzip.open(os.path.join(OUT_DIR, f"spans-{workload.name}.jsonl.gz"), "wb",
                   compresslevel=1) as fh:
        for i, (report, payload) in enumerate(sink):
            head = json.dumps({"report": i, "kind": report.kind, "argv": list(report.argv)})
            fh.write(head[:-1].encode() + b', "result": ' + payload + b"}\n")
    traced_rps, untraced_rps = reports_per_s(traced), reports_per_s(untraced)
    lines = src_lines()
    extra = {
        "trace.reports_per_s": traced_rps,
        "trace.untraced_reports_per_s": untraced_rps,
        "trace.overhead_frac": untraced_rps / traced_rps - 1.0,
        "trace.own_s": (stats.report_s - stats.traced_self_s) / stats.reports,
        "src_lines.total": sum(lines.values()),
        "env.nproc": env["nproc"],
        "env.blas_threads": env["blas_threads"],
    }

    def value(name):
        if name in extra:
            return extra[name]
        if name.startswith("src_lines."):
            return lines.get(name[len("src_lines."):], 0)
        return stats.value(name)
    return outcomes, value


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "focalis", "cli.py")):
        sys.stderr.write(f"perfbench: no focalis sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    import focalis.cli  # noqa: F401  (report children fork from this import)

    env = environment()
    print("env:", json.dumps(env))
    os.makedirs(TMP_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=TMP_DIR)
    try:
        workload = workloads.BUILDERS[args.workload](args.seed, workdir)
        if args.trace:
            outcomes, value = per_layer(workload, workdir, args.seconds, env)
            metrics = {m["name"]: {"value": value(m["name"]), "unit": m["unit"]}
                       for m in spec["per_layer"]}
        else:
            outcomes, values = end_to_end(workload, workdir, args.seconds)
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(TMP_DIR)
        except OSError:
            pass        # another run still uses it
    failed = sum(1 for o in outcomes if o.error)
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
