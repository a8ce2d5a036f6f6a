"""One fresh benchmark process: set up the simulator, then run batches of one workload.

``run.py`` starts this script; it is not meant to be run by hand. With
``--setup-only`` it times set-up and exits. Otherwise it runs batch calls of
``run_experiment`` + ``emit_csv`` until ``--seconds`` have passed, checks each
batch's records.csv, and with ``--trace 1`` adds serial batches that alternate
untraced and traced. Its last stdout line is one JSON object.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up is timed from before the package import

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def import_package():
    """Import mmwtrack from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import mmwtrack

    if Path(mmwtrack.__file__).resolve().parent != SRC / "mmwtrack":
        raise SystemExit(f"mmwtrack imported from {mmwtrack.__file__}, not from {SRC}")
    return mmwtrack


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "cores": len(os.sched_getaffinity(0)),
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "blas": blas_name,
        "start_method": multiprocessing.get_start_method(),
    }


def usage():
    """CPU seconds, involuntary context switches and peak RSS (MB) of this
    process and its reaped children (the pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, own.ru_nivcsw + kids.ru_nivcsw, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


class Batches:
    """Runs batch calls and keeps their timings, digests and check results."""

    def __init__(self, mmwtrack, workload, seed, out_dir):
        self.mmwtrack = mmwtrack
        self.workload = workload
        self.config_text = workload.config_text(seed)
        self.cfg = mmwtrack.load_config(self.config_text)
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.digests = set()
        self.rows = None

    def run(self, workers: int, load_config: bool = False):
        """One batch; returns (wall, cpu, nivcsw), or None if it raised."""
        mmw = self.mmwtrack
        self.attempted += self.workload.records_per_batch
        try:
            cfg = mmw.load_config(self.config_text) if load_config else self.cfg
            cpu0, csw0, _ = usage()
            t0 = time.perf_counter()
            records = mmw.run_experiment(cfg, workers=workers)
            mmw.emit_csv(records, self.out_dir)
            wall = time.perf_counter() - t0
            cpu1, csw1, _ = usage()
        except Exception:  # noqa: BLE001 - a failing batch is reported, not fatal
            traceback.print_exc()
            self.failed += self.workload.records_per_batch
            return None
        path = os.path.join(self.out_dir, "records.csv")
        self.digests.add(checks.digest(path))
        rows = checks.read_rows(path)
        self.failed += checks.count_failed(
            rows, self.workload.records_per_batch, single_stream=self.workload.m == 1
        )
        self.rows = rows
        return wall, cpu1 - cpu0, csw1 - csw0

    def until(self, deadline: float, min_batches: int, workers: int) -> list:
        """Batches until the deadline; one starts only if half of it fits."""
        done = []
        while len(done) < min_batches or time.perf_counter() + done[-1][0] / 2 < deadline:
            result = self.run(workers)
            if result is None:
                break
            done.append(result)
        return done


def timed_metrics(batches: list, trials: int) -> dict:
    return {
        "trials_per_s": statistics.median(trials / wall for wall, _, _ in batches),
        "cpu_s_per_trial": statistics.median(cpu / trials for _, cpu, _ in batches),
    }


def pool_metrics(batches: list, trials: int, cores: int) -> dict:
    wall = sum(b[0] for b in batches)
    return {
        "harness.pool_cpu_util": sum(b[1] for b in batches) / (wall * cores),
        "harness.pool_nivcsw": sum(b[2] for b in batches) / (trials * len(batches)),
    }


def traced_pairs(runner: Batches, deadline: float) -> dict:
    """Serial batches alternating untraced and traced, until the deadline."""
    spans = tracer.Tracer()
    untraced, traced = [], []
    while not traced or time.perf_counter() < deadline:
        plain = runner.run(workers=1)
        restore, missing = tracer.install(spans)
        try:
            result = runner.run(workers=1, load_config=True)
        finally:
            tracer.uninstall(restore)
        if plain is None or result is None:
            break
        untraced.append(plain[0])
        traced.append(result[0])
    if not traced:
        return {}
    trials = runner.workload.trials * len(traced)
    layers = tracer.layer_metrics(spans, missing, trials, ser_expected=runner.workload.m == 1)
    layers["trace.coverage"] = tracer.covered_s(spans, missing) / sum(traced)
    layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return {"layers": layers, "missing_hooks": missing, "traced_batches": len(traced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for the batches' CSV files")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    mmwtrack = import_package()
    warm = mmwtrack.load_config(workload.config_text(args.seed, n_trials=1))
    mmwtrack.run_experiment(warm, workers=1)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = environment()
    runner = Batches(mmwtrack, workload, args.seed, args.out)
    begin = time.perf_counter()
    result = {"setup_s": setup_s, "env": env}
    if args.trace:
        timed = runner.until(begin + args.seconds / 2, 2, workload.workers)
        if timed:
            result.update(pool_metrics(timed, workload.trials, env["cores"]))
        result.update(traced_pairs(runner, begin + args.seconds))
    else:
        timed = runner.until(begin + args.seconds, 3, workload.workers)
        if timed:
            result.update(timed_metrics(timed, workload.trials))
        result["peak_rss_mb"] = usage()[2]
    result["batches"] = len(timed)
    if runner.rows is not None:
        result.update(checks.accuracy(runner.rows))
        result["emit_bytes"] = sum(
            os.path.getsize(os.path.join(args.out, name))
            for name in ("records.csv", "aggregates.csv")
        )
    result.update(
        attempted=runner.attempted, failed=runner.failed, digests=sorted(runner.digests)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
