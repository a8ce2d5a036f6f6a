"""Record bytes must not depend on the number of BLAS threads.

The paper geometry (n_bs = 100) is where multi-threaded BLAS kernels take
different code paths, so one trial of it runs through the CLI in two fresh
processes: one with the thread variables unset (the library's default) and
one pinned to a single thread.
"""

import os
import subprocess
import sys
from pathlib import Path

import mmwtrack

SRC = Path(mmwtrack.__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

PAPER_GEOMETRY_ONE_TRIAL = """
n_bs = 100
n_ms = 30
n_rf_bs = 20
n_rf_ms = 10
n_trials = 1
n_data_symbols = 200
variants = pastd-fd
"""


def simulate(config: Path, out: Path, threads: str | None) -> bytes:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if threads is not None:
        env.update(dict.fromkeys(THREAD_VARS, threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "mmwtrack.cli", "simulate", "--config", str(config), "--out", str(out)]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=300)
    return (out / "records.csv").read_bytes()


def test_records_identical_under_default_and_single_blas_thread(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text(PAPER_GEOMETRY_ONE_TRIAL)
    default = simulate(config, tmp_path / "default", None)
    single = simulate(config, tmp_path / "single", "1")
    assert default == single
