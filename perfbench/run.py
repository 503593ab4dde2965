"""Benchmark of pellel's minimum-norm solves.

    python3 perfbench/run.py --workload disk2d_h128 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One client runs operations of the workload in a closed loop
for about ``--seconds`` seconds, checks every result, and prints a
summary followed, as the last line, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics (median operation time,
set-up time, peak resident memory).  ``--trace 1`` alternates untraced
and traced operations, ends with one operation under tracemalloc, and
reports the per-layer metrics of ``tracing.layer_metrics``.
``--workload all`` runs every workload in turn in this one process.
Each run writes its record (environment, per-operation times, metrics,
spans) to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from importlib import metadata
from pathlib import Path

from tracing import PER_LAYER_UNITS, Tracer, instrument, layer_metrics, no_span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# ascending peak memory, so that in --workload all the process high-water
# mark read after each workload is that workload's own peak
WORKLOADS = ("cli_session", "disk2d_h128", "ball4d_h8")
END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 4  # fresh interpreters timed besides this process's own set-up
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """At most nproc BLAS threads; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        n = min(int(value), nproc()) if value.isdigit() and int(value) > 0 else nproc()
        os.environ[var] = str(n)


def environment() -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def timed_setup(name: str, seed: int, workdir: Path, span, small: bool = False,
                reference=None):
    """Import the library, then build the workload's domain, grid, weight
    and inputs; returns the workload and the seconds it took."""
    t0 = time.perf_counter()
    import workloads  # imports numpy and pellel: part of set-up

    w = workloads.make(name, seed, workdir, small, reference)
    w.setup(span)
    return w, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    """Set-up time in a fresh interpreter (imports included)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--probe-setup"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_op(w, tracer=None):
    """One operation and its checks; returns (seconds, failure messages).
    An operation that raises counts as failed."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = w.op()
        else:
            with instrument(tracer), tracer.span("bench.op"):
                result = w.op()
    except Exception as exc:  # any error of the library is a failed operation
        return time.perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t0
    try:
        return dt, w.check(result)
    except Exception as exc:  # a result the checks cannot read is wrong
        return dt, [f"check raised {type(exc).__name__}: {exc}"]


class Loop:
    """Closed-loop bookkeeping: attempted and failed operations, and when
    to stop so that the run ends within its measuring window."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failed = 0

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            for msg in failures:
                print(f"operation {self.attempted} failed: {msg}", file=sys.stderr)

    def room_for(self, seconds: float) -> bool:
        return time.perf_counter() - self.t0 + seconds <= self.seconds


def measure(name: str, seed: int, seconds: float, workdir: Path, small: bool = False,
            reference=None, probes: int = SETUP_PROBES) -> dict:
    """End-to-end run with tracing off."""
    w, first_setup = timed_setup(name, seed, workdir, no_span, small, reference)
    try:
        setups = [first_setup] + [probe_setup(name, seed) for _ in range(probes)]
        loop = Loop(seconds)
        times = []
        while True:
            dt, failures = run_op(w)
            loop.record(failures)
            times.append(dt)
            if not loop.room_for(statistics.median(times)):
                break
    finally:
        w.close()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"op_s": statistics.median(times), "setup_s": statistics.median(setups),
               "peak_rss_mb": peak_mb}
    return {"attempted": loop.attempted, "failed": loop.failed, "metrics": metrics,
            "op_times": times, "setup_times": setups}


def trace(name: str, seed: int, seconds: float, workdir: Path, small: bool = False,
          reference=None) -> dict:
    """Per-layer run: untraced and traced operations alternate, then one
    operation runs under tracemalloc for the traced memory peak."""
    tracer = Tracer()
    with instrument(tracer):
        w, _ = timed_setup(name, seed, workdir, tracer.span, small, reference)
    try:
        loop = Loop(seconds)
        plain, traced = [], []
        while True:
            dt, failures = run_op(w)
            loop.record(failures)
            plain.append(dt)
            tracer.op = len(traced)
            dt, failures = run_op(w, tracer)
            loop.record(failures)
            traced.append(dt)
            next_pair = statistics.median(plain) + statistics.median(traced)
            # an operation under tracemalloc takes about 1.4 times as long
            if not loop.room_for(next_pair + 1.5 * statistics.median(plain)):
                break
        tracemalloc.start()
        try:
            mem_op_s, failures = run_op(w)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        loop.record(failures)
    finally:
        w.close()
    metrics = layer_metrics(tracer.spans)
    metrics["mem.traced_peak_mb"] = peak_mb
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return {"attempted": loop.attempted, "failed": loop.failed, "metrics": metrics,
            "op_times": plain, "traced_op_times": traced, "tracemalloc_op_time": mem_op_s,
            "spans": tracer.spans}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 small: bool = False, reference=None) -> dict:
    """One workload in this process; a ``reference`` tuple replaces the
    ratios recorded for the default seed."""
    workdir = OUT / f"work-{os.getpid()}-{name}"
    if traced:
        return trace(name, seed, seconds, workdir, small, reference)
    return measure(name, seed, seconds, workdir, small, reference,
                   probes=0 if small else SETUP_PROBES)


def units(traced: bool) -> dict:
    return PER_LAYER_UNITS if traced else END_TO_END_UNITS


def summary_line(name: str, seed: int, traced: bool, res: dict) -> str:
    m = res["metrics"]
    frac = res["failed"] / res["attempted"]
    head = f"{name} seed={seed}:"
    tail = f"fail_frac {frac:g} ({res['failed']} of {res['attempted']} operations failed)"
    if traced:
        return (f"{head} traced op {m['trace.op_s']:.4f} s over {len(res['traced_op_times'])} "
                f"operations, overhead {m['trace.overhead_frac']:+.3f}, {tail}")
    return (f"{head} op_s {m['op_s']:.4f} s (median of {len(res['op_times'])} operations), "
            f"setup_s {m['setup_s']:.4f} s (median of {len(res['setup_times'])} set-ups), "
            f"peak_rss_mb {m['peak_rss_mb']:.1f} MB, {tail}")


def write_record(name: str, seed: int, traced: bool, env: dict, res: dict) -> None:
    record = {"workload": name, "seed": seed, "trace": int(traced), "env": env,
              **{k: v for k, v in res.items() if k != "spans"}}
    if "spans" in res:
        record["span_fields"] = ["name", "start", "end", "parent", "op", "attrs"]
        record["spans"] = [[s.name, s.start, s.end, s.parent, s.op, s.attrs]
                           for s in res["spans"]]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="time one set-up and print the seconds (used internally)")
    args = parser.parse_args(argv)

    if not (SRC / "pellel" / "__init__.py").is_file():
        print(f"no pellel sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))

    if args.probe_setup:
        w, seconds = timed_setup(args.workload, args.seed,
                                 OUT / f"probe-{os.getpid()}", no_span)
        w.close()
        print(repr(seconds))
        return 0

    env = environment()
    print("env " + json.dumps(env), flush=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traced = bool(args.trace)
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, traced)
        write_record(name, args.seed, traced, env, res)
        print(summary_line(name, args.seed, traced, res), flush=True)
        results[name] = res

    def metric_block(res, prefix=""):
        return {prefix + k: {"value": v, "unit": units(traced)[k]}
                for k, v in res["metrics"].items()}

    if len(names) == 1:
        metrics = metric_block(results[names[0]])
    else:
        metrics = {}
        for name, res in results.items():
            metrics.update(metric_block(res, f"{name}."))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
