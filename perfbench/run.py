"""Benchmark of the mmwtrack Monte Carlo simulator, one workload per invocation.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``. The
load is a closed loop with one client: a fresh process runs one batch call of
``run_experiment`` + ``emit_csv`` after another, each with the workload's fixed
trial count and ``master_seed = --seed``, for ``--seconds`` seconds. Set-up
time is taken from several fresh processes. With ``--trace 1`` the process
also runs serial batches that alternate untraced and traced, and reports
per-layer self times instead of the end-to-end metrics.

Every batch's records.csv is checked (see checks.py) and hashed; repeats must
give the same digest, and a traced serial batch must give the digest of the
untraced batches, also on the two-worker workload. The benchmark sets no BLAS
or OpenMP thread variable: record bytes depend on them, and so does the pool's
oversubscription, which the benchmark is meant to show.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the environment, the
digest and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6          # fresh set-up-only processes, besides the measuring one
PROBE_TIMEOUT_S = 150

END_TO_END = {
    "trials_per_s": "1/s",
    "cpu_s_per_trial": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "eta_mean": "1",
}
PER_LAYER = {
    "channel.sample_s": "s/trial",
    "channel.svd_s": "s/trial",
    "protocol.probe_s": "s/trial",
    "protocol.run_s": "s/trial",
    "tracking.warmstart_s": "s/trial",
    "tracking.steps_s": "s/trial",
    "tracking.samples": "count/trial",
    "tracking.step_us": "us",
    "evaluation.ser_s": "s/trial",
    "evaluation.ser_symbols": "count/trial",
    "evaluation.se_s": "s/trial",
    "evaluation.align_s": "s/trial",
    "harness.self_s": "s/trial",
    "harness.emit_s": "s/trial",
    "harness.emit_bytes": "B",
    "harness.config_s": "s",
    "harness.pool_cpu_util": "ratio",
    "harness.pool_nivcsw": "count/trial",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


def run_probe(args: list, timeout: float = PROBE_TIMEOUT_S) -> dict:
    """Run probe.py in its own process group; return its JSON result."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"probe {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (ROOT / "src" / "mmwtrack" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'mmwtrack'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    out_dir = ROOT / ".perfbench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            setups = [run_probe([*common, "--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]
        res = run_probe(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(out_dir)]
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if args.trace:
        metrics = dict(res.get("layers", {}))
        for name in ("harness.pool_cpu_util", "harness.pool_nivcsw"):
            metrics[name] = res.get(name)
        metrics["harness.emit_bytes"] = res.get("emit_bytes")
        units = PER_LAYER
    else:
        metrics = {name: res.get(name) for name in END_TO_END}
        metrics["setup_s"] = statistics.median([*setups, res["setup_s"]])
        units = END_TO_END

    attempted, failed = res["attempted"], res["failed"]
    eta, ser = res.get("eta_mean"), res.get("ser_mean")
    correct = (
        failed == 0
        and len(res["digests"]) == 1
        and eta is not None
        and 0.0 <= eta <= 1.0
        and (ser is None) == (workload.m > 1)
        and (ser is None or 0.0 <= ser <= 1.0)
        and all(metrics.get(name) is not None for name in END_TO_END if not args.trace)
    )

    env = res["env"]
    print(f"workload {args.workload}: seed {args.seed}, {workload.trials} trials per batch, "
          f"{workload.workers} worker(s), {res['batches']} timed batches"
          + (f", {res.get('traced_batches', 0)} traced" if args.trace else ""))
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"records.csv sha256: {', '.join(res['digests']) or 'none'}"
          + ("" if len(res["digests"]) == 1 else "  (DIFFERENT across batches)"))
    print(f"failed_frac: {failed / attempted:.6g} ratio ({failed} of {attempted} records)")
    if ser is not None:
        print(f"ser_mean: {ser:.6g} 1")
    for hook in res.get("missing_hooks", []):
        print(f"absent: hook {hook} no longer exists", file=sys.stderr)
    for name, unit in units.items():
        value = metrics.get(name)
        print(f"{name}: {'absent' if value is None else format(value, '.6g')} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": u} for name, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
