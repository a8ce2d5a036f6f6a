"""Record bytes must not depend on the number of BLAS threads.

The paper geometry (n_bs = 100) is where multi-threaded BLAS kernels take
different code paths, so one trial of it runs through the CLI in two fresh
processes. One keeps numpy's bundled OpenBLAS on the library's default thread
count: the thread variables are unset, and run_experiment, which would set
one thread, sees no bundled OpenBLAS. The other is a normal run pinned to a
single thread.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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

# argv: config, out. Its last line is the bundled OpenBLAS thread count before and
# after the run, which it makes only when that count is above one (0: another BLAS).
ON_DEFAULT_THREADS = """
import sys
from mmwtrack import cli, harness

lib = harness._openblas()
before = 0 if lib is None else lib.scipy_openblas_get_num_threads64_()
if before > 1:
    harness._openblas = lambda: None  # run_experiment leaves the count as it finds it
    if cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]]) != 0:
        raise SystemExit(1)
print(before, 0 if lib is None else lib.scipy_openblas_get_num_threads64_())
"""


def run(args: list, threads: str | None) -> str:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if threads is not None:
        env.update(dict.fromkeys(THREAD_VARS, threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True,
                          text=True, timeout=300)
    return done.stdout


def test_records_identical_under_default_and_single_blas_thread(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text(PAPER_GEOMETRY_ONE_TRIAL)
    default, single = tmp_path / "default", tmp_path / "single"
    report = run(["-c", ON_DEFAULT_THREADS, str(config), str(default)], None).splitlines()[-1]
    before, after = map(int, report.split())
    if before <= 1:
        pytest.skip("no bundled OpenBLAS running more than one thread by default")
    assert after == before  # the trial ran on the default count
    cli = ["-m", "mmwtrack.cli", "simulate", "--config", str(config), "--out", str(single)]
    run(cli, "1")
    assert (default / "records.csv").read_bytes() == (single / "records.csv").read_bytes()
