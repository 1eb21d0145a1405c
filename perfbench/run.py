#!/usr/bin/env python3
"""Benchmark of twogauge: four closed-loop workloads through the public API.

    python3 perfbench/run.py --workload surface --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the repository root; it imports twogauge from the `src/` beside
this directory. Workloads: surface, finite, census, checks (see README.md).
With --trace 0 the last line of standard output is one JSON object holding
the end-to-end metrics; with --trace 1 the run wraps the package's public
functions and reports per-layer metrics instead. `all` runs every workload in
its own process and prints a table.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS and OpenMP threads are pinned before numpy loads; the matrices here are
# 1x1 to 3x3, so extra threads only add contention on a shared machine.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = {"surface": "wl_surface", "finite": "wl_finite",
             "census": "wl_census", "checks": "wl_checks"}
SETUP_REPEATS = 5


class BenchError(Exception):
    """The benchmark cannot run here."""


def _import_program():
    if not (SRC / "twogauge" / "__init__.py").is_file():
        raise BenchError(f"no twogauge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import twogauge
    if Path(twogauge.__file__).resolve().parent != SRC / "twogauge":
        raise BenchError(f"twogauge imported from {twogauge.__file__}, not {SRC}")


def setup_seconds(workload, seed):
    """Median time of fresh processes that only set the workload up.

    Each probe's wall time is scaled to the reference speed by the
    calibrations timed before and after it (see harness.py).
    """
    from harness import calibrate, to_reference

    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    walls, times = [], []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        after = calibrate()
        times.append(to_reference(walls[-1], before, after))
        before = after
    return statistics.median(times), walls


def machine():
    import numpy
    import scipy
    return {"cpus": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS}


def run_workload(name, seed, seconds, trace):
    from harness import measure

    wl = importlib.import_module(WORKLOADS[name])
    setup = None if trace else setup_seconds(name, seed)
    inputs = wl.prepare(seed)
    ops = wl.operations(inputs)
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    m = measure(ops, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = m.problems + wl.verify(inputs, m.firsts)
    medians = m.medians()
    if trace:
        layer = tracer.metrics(m, wl.layer_counts(inputs, m.firsts, medians))
        if layer["trace.layer_self_sum_s"][0] > layer["trace.wall_s"][0]:
            problems.append("layer self times sum to more than the traced wall time")
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in layer.items()}
    else:
        metrics = {"setup_s": {"value": setup[0], "unit": "s"},
                   "round_s": {"value": m.round_s(), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    result = {"correct": not problems, "attempted": m.attempted,
              "failed": m.failed, "metrics": metrics}
    figures = {**wl.details(inputs, medians, m.firsts),
               "round_ref_s": m.round_s(), "round_wall_s": m.round_s(wall=True)}
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "rounds": m.rounds, "ops_per_round": len(ops), "machine": machine(),
            "op_median_s": medians, "op_times_s": m.times, "op_wall_s": m.wall,
            "setup_wall_s": setup and setup[1], "details": figures,
            "problems": problems, "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(info, indent=1, sort_keys=True, default=str) + "\n")
    for key, value in sorted(figures.items()):
        print(f"# {name} {key} = {value}")
    for problem in problems:
        print(f"# PROBLEM {problem}")
    print(f"# {name}: {m.rounds} rounds of {len(ops)} operations, "
          f"blas_threads={BLAS_THREADS}, cpus={os.cpu_count()}")
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(seed, seconds, trace):
    """Each workload in its own process; one table of every metric."""
    status = 0
    print(f"{'workload':9s} {'metric':34s} {'value':>14s} unit")
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:9s} failed to run: {proc.stderr.strip()[-500:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for key, metric in sorted(result["metrics"].items()):
            print(f"{name:9s} {key:34s} {metric['value']:14.6g} {metric['unit']}")
        print(f"{name:9s} {'attempted / failed':34s} {result['attempted']:>7d} / "
              f"{result['failed']:<5d} correct={result['correct']}")
        for line in lines[:-1]:
            if line.startswith("# PROBLEM"):
                print(f"{name:9s} {line[2:]}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
