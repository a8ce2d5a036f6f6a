"""Command-line entry points: run Monte Carlo sweeps or just validate a config.

Exit codes: 0 on success, 2 on configuration errors, 1 on runtime errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import pathlib
import platform
import sys
import time

import numpy as np

from . import harness
from .harness import ConfigError, config_digest, emit_csv, load_config, plan_chunks, resolved_text
from .harness import run_experiment


THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _manifest(cfg, threads: int, wall_s: float) -> str:
    """What ran, as key = value lines: digest, seed, the chunk plan for --threads (workers, at most
    the usable CPUs, and trials per chunk), versions, thread settings, wall time."""
    chunks, workers = plan_chunks(cfg, threads)
    fields = {
        "config_digest": config_digest(cfg),
        "master_seed": cfg.master_seed,
        "workers": workers,
        "chunk_trials": len(chunks[0]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
        # run_experiment set the bundled OpenBLAS to one thread, and left any other BLAS alone
        "blas_threads_in_trials": 1 if harness._openblas() is not None else "unknown",
        "wall_s": format(wall_s, ".3f"),
    }
    return "".join(f"{key} = {value}\n" for key, value in fields.items())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmwtrack")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the configured Monte Carlo experiment")
    sim.add_argument("--config", required=True, help="path to the experiment config")
    sim.add_argument("--out", required=True, help="output directory for CSV files")
    sim.add_argument("--threads", type=int, default=1,
                     help="worker processes, the calling process among them; at most the usable CPUs")
    sim.add_argument("--seed", type=int, default=None, help="override the master seed")

    val = sub.add_parser("validate", help="parse and validate a config, then exit")
    val.add_argument("--config", required=True, help="path to the experiment config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(pathlib.Path(args.config))
        if args.command == "simulate" and args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        if args.command == "simulate" and args.seed is not None:
            cfg = dataclasses.replace(cfg, master_seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"config OK (digest {config_digest(cfg)})")
        return 0

    try:
        start = time.perf_counter()
        records = run_experiment(cfg, workers=args.threads)
        emit_csv(records, args.out)
        wall_s = time.perf_counter() - start
        for name, text in (
            ("config_resolved.txt", resolved_text(cfg)),
            ("manifest.txt", _manifest(cfg, args.threads, wall_s)),
        ):
            with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
                fh.write(text)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(records)} records to {args.out} (digest {config_digest(cfg)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
