"""cdrex benchmark: one workload per process, timed untraced or traced.

    python3 cdrexbench/run.py --workload train-cnn --seed 1 --seconds 25 --trace 0

Run from the root of a cdrex checkout; the package is imported from its
`src/` directory.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
untraced, the per-layer metrics traced).  The line before it is a JSON
record of the run's samples, percentiles and environment.  See README.md
in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".cdrexbench-out"

# The model's matrix products are small (at most 250 x 350 by 350 x 100),
# so one BLAS thread keeps timings free of thread hand-off noise.
BLAS_THREADS = 1
SETUP_REPEATS = 5
# A traced run makes a fixed number of (untraced, traced) call pairs, so its
# per-layer counts repeat exactly for one seed whatever the machine's speed.
TRACE_PAIRS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-cnn", "train-lstmchar", "eval-compare"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    if len(samples) < 11:
        return None
    rank = len(samples) - 10
    return {"percentile": 100.0 * rank / len(samples), "value": sorted(samples)[rank - 1]}


def summary(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "tail": tail(samples),
            "samples": len(samples), "values": samples}


def blas_threads() -> int | None:
    """Threads OpenBLAS reports, read from the library numpy loaded."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
    }


class Runner:
    """Calls the workload, checks each output, and counts failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, tracer=None) -> float:
        """One checked call, traced when a tracer is given; returns its
        wall time in seconds."""
        self.attempted += 1
        problems = None
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            output = self.workload.call()
        except Exception:  # noqa: BLE001 - a failed call is counted, the run goes on
            problems = [traceback.format_exc(limit=3)]
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        if problems is None:
            problems = self.workload.check(output)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            print(f"call {self.attempted} failed: {problems}", file=sys.stderr)
        return elapsed


def measure(runner: Runner, seconds: float) -> list[float]:
    """Closed loop: calls back to back until `seconds` have passed."""
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        samples.append(runner.call())
    return samples


def measure_traced(runner: Runner, tracer) -> tuple[list[float], list[float]]:
    """TRACE_PAIRS pairs of one untraced and one traced call; alternating
    keeps slow drift of the machine out of the tracing overhead."""
    untraced, traced = [], []
    for _ in range(TRACE_PAIRS):
        untraced.append(runner.call())
        traced.append(runner.call(tracer))
    return untraced, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cdrex" / "__init__.py").is_file():
        print(f"cdrexbench: no cdrex package under {SRC}; run from a cdrex checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import cdrex.cli  # noqa: F401 - imports every cdrex module the tracer wraps
    if Path(cdrex.cli.__file__).resolve().parent != SRC / "cdrex":
        print(f"cdrexbench: imported cdrex from {cdrex.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            # Free the previous set-up's objects before the clock starts.
            workload = None
            gc.collect()
            workload = workloads.make(args.workload, workdir)
            t0 = time.perf_counter()
            workload.setup(args.seed)
            setup_s.append(time.perf_counter() - t0)
        runner = Runner(workload)
        warmup_s = runner.call()
        detail = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                  "environment": environment(args.seed), "setup_s": summary(setup_s),
                  "warmup_s": warmup_s, "instances_per_call": workload.instances_per_call}
        if args.trace:
            import tracing

            tracer = tracing.Tracer(cdrex)
            untraced, traced = measure_traced(runner, tracer)
            base, with_trace = statistics.median(untraced), statistics.median(traced)
            metrics = {name: {"value": value, "unit": tracing.METRICS[name]} for name, value in
                       tracer.metrics(len(traced), with_trace - base, base).items()}
            spans_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans_path)
            detail.update({"untraced_call_s": summary(untraced), "traced_call_s": summary(traced),
                           "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
                           "run_id": tracer.run_id})
        else:
            calls = measure(runner, args.seconds)
            call_s = statistics.median(calls)
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "call_s": {"value": call_s, "unit": "s"},
                "inst_per_s": {"value": workload.instances_per_call / call_s, "unit": "instances/s"},
                "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
                "ok_ratio": {"value": (runner.attempted - runner.failed) / runner.attempted,
                             "unit": "ok/attempted"},
            }
            detail["call_s"] = summary(calls)
        detail["problems"] = runner.problems[:5]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
