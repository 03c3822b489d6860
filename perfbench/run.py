"""gwtheta benchmark: one process, one worker, one BLAS thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

For the workload NAME (or, with ``all``, for each of the four in turn in
this process), builds the inputs from the seed, runs one untimed warm-up
round whose outputs are checked in full against ``reference`` and the
documented properties, then repeats whole rounds of the same operations,
each operation followed by one host-speed kernel (``hostspeed``), until S
seconds of operation and kernel time have been measured.  Every later round
must reproduce the warm-up outputs bit for bit.  The end-to-end times are
scaled to the reference host speed by the run's median kernel time.  Each
workload ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``); with ``all``, ``peak_rss_mb`` is the process
peak so far.  A record of each run, with the unscaled figures, is written to
``perfbench/records/``.

Run it from the root of a checkout: the library is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread: the load comes from this process alone (set before numpy
# is first imported)
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# host-speed kernels timed before the set-up and after each import and the
# builds, for the scaling of setup_s
SETUP_KERNELS = 4
# a run keeps adding whole rounds until it has this many operations, so that
# at least ten latencies lie beyond the 90th percentile
MIN_OPS = 100

UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_p90_s": "s",
         "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"series.recurrence_ops": "count.computed",
               "series.max_cutoff": "count",
               "simulator.replicates_per_self_s": "1/s",
               "trace.overhead_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here (no library source, bad arguments)."""


_IMPORT_TIMER = ("import time; t = time.perf_counter(); import gwtheta; "
                 "print(time.perf_counter() - t)")


def _import_library() -> dict:
    """Import gwtheta from the checkout's src/; return the import times of
    SETUP_REPEATS fresh interpreters, each paying the cold import a user
    pays (numpy included), and the host-speed kernel times taken between
    them."""
    src = ROOT / "src"
    if not (src / "gwtheta" / "__init__.py").is_file():
        raise BenchError(f"no library source at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import gwtheta
    import hostspeed
    if Path(gwtheta.__file__).resolve().parent != src / "gwtheta":
        raise BenchError(f"gwtheta imported from {gwtheta.__file__}")
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    kernel_s = [hostspeed.timed_kernel() for _ in range(SETUP_KERNELS)]
    for _ in range(SETUP_REPEATS):
        times.append(float(subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout))
        kernel_s += [hostspeed.timed_kernel() for _ in range(SETUP_KERNELS)]
    return {"s": times, "kernel_s": kernel_s}


def _run_round(ops, latencies=None, kernel_s=None):
    """Run every op once, each followed by one host-speed kernel when
    kernel_s is given; return (outputs, failed count).  An op that raises
    has failed; its output is the exception's type and message."""
    import hostspeed
    outputs, failed = [], 0
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as err:            # an op failure is data here
            out = err
        dt = time.perf_counter() - t0
        if latencies is not None:
            latencies.append(dt)
        if kernel_s is not None:
            kernel_s.append(hostspeed.timed_kernel())
        if isinstance(out, Exception):
            failed += 1
        outputs.append(out)
    return outputs, failed


def _fingerprint(out) -> str:
    import workloads
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    return workloads.digest(out)


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 imports: dict) -> dict:
    """Set up, warm up, check and measure one workload; return its result
    line (correct, attempted, failed, metrics) and write its record."""
    import numpy
    import hostspeed
    import workloads
    from layertrace import Tracer

    # set-up: import, model construction and input generation, each
    # repeated; the reported set-up time is the sum of their medians, scaled
    # by the host speed measured before and after the builds and imports
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workloads.build(name, seed)
        builds.append(time.perf_counter() - t0)
    setup_raw_s = statistics.median(imports["s"]) + statistics.median(builds)
    setup_kernel_s = statistics.median(
        imports["kernel_s"]
        + [hostspeed.timed_kernel() for _ in range(SETUP_KERNELS)])
    setup_s = setup_raw_s * hostspeed.REFERENCE_S / setup_kernel_s

    # warm-up round: full checks, and the outputs every later round repeats
    problems = []
    outputs, _ = _run_round(ops)
    expected = []
    for op, out in zip(ops, outputs):
        if not isinstance(out, Exception):
            problems += [f"{op.name}: {msg}" for msg in op.check(out)]
        expected.append(_fingerprint(out))

    kernel_s = []

    def timed_rounds(budget, latencies, min_ops=0):
        """Whole rounds until budget seconds of operation and kernel time
        and min_ops operations; latencies get every op's time."""
        attempted = failed = rounds = 0
        spent = 0.0
        while rounds == 0 or spent < budget or attempted < min_ops:
            start, k_start = len(latencies), len(kernel_s)
            outs, bad = _run_round(ops, latencies, kernel_s)
            spent += sum(latencies[start:]) + sum(kernel_s[k_start:])
            rounds += 1
            attempted += len(ops)
            failed += bad
            for op, out, want in zip(ops, outs, expected):
                if _fingerprint(out) != want:
                    problems.append(f"{op.name}: output differs from the "
                                    f"warm-up round in round {rounds}")
        return attempted, failed, rounds

    latencies = []
    raw = None
    if trace == 0:
        attempted, failed, rounds = timed_rounds(
            seconds, latencies, MIN_OPS)
        raw = {
            "ops_per_s": (attempted - failed) / sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "op_p90_s": statistics.quantiles(latencies, n=10,
                                             method="inclusive")[8],
            "setup_s": setup_raw_s,
        }
        # times scaled to the reference host speed by the run's median
        # kernel time; set-up by the kernel times taken around it
        scale = hostspeed.REFERENCE_S / statistics.median(kernel_s)
        metrics = {
            "ops_per_s": raw["ops_per_s"] / scale,
            "op_p50_s": raw["op_p50_s"] * scale,
            "op_p90_s": raw["op_p90_s"] * scale,
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = UNITS
        trace_detail = None
    else:
        # half the budget untraced, half traced, in the same process; the
        # layer times are raw seconds
        a0, f0, r0 = timed_rounds(seconds / 2.0, latencies)
        tracer = Tracer()
        tracer.install()
        traced = []
        try:
            a1, f1, r1 = timed_rounds(seconds / 2.0, traced)
        finally:
            tracer.uninstall()
        attempted, failed, rounds = a0 + a1, f0 + f1, r0 + r1
        metrics = tracer.per_round(r1)
        metrics["trace.overhead_s"] = sum(traced) / r1 - sum(latencies) / r0
        units = {key: LAYER_UNITS.get(
            key, "s" if key.endswith("_s") else "count") for key in metrics}
        trace_detail = {fn: {"calls": calls / r1, "total_s": total / r1}
                        for fn, (calls, total)
                        in sorted(tracer.functions.items())}

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "ops": [op.name for op in ops], "rounds": rounds,
        "latencies_s": latencies,
        "kernel_s": kernel_s, "kernel_reference_s": hostspeed.REFERENCE_S,
        "setup_builds_s": builds, "import_s": imports["s"],
        "setup_kernel_s": setup_kernel_s, "problems": problems,
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "blas_threads": BLAS_THREADS},
        "metrics": metrics, "unscaled_metrics": raw,
        "functions_per_round": trace_detail,
    }
    records = HERE / "records"
    records.mkdir(exist_ok=True)
    (records / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))

    for msg in problems:
        print(f"CHECK FAILED {name} {msg}", file=sys.stderr)
    for key, val in metrics.items():
        print(f"# {name} {key} = {val:.6g} {units[key]}")
    for key, val in (raw or {}).items():
        print(f"# {name} unscaled {key} = {val:.6g} {units[key]}")
    print(f"# {name} attempted = {attempted}, failed = {failed}, "
          f"rounds = {rounds}, host kernel median = "
          f"{statistics.median(kernel_s):.6g} s "
          f"(reference {hostspeed.REFERENCE_S} s)")
    return {"correct": not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": val, "unit": units[key]}
                        for key, val in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload "
                             "in turn in this process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    imports = _import_library()
    import workloads
    if args.workload == "all":
        names = workloads.WORKLOADS
    elif args.workload in workloads.WORKLOADS:
        names = (args.workload,)
    else:
        raise BenchError(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)} or all")
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace,
                              imports)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
