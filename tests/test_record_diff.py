"""tools/record_diff.py: the per-cell mean difference of two runs, paired over trials or Welch, flagged beyond 3 SE."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from mmwtrack import emit_csv, load_config, run_experiment

TOOL = Path(__file__).resolve().parent.parent / "tools" / "record_diff.py"

# 16 x 8 arrays, the reduced workload's geometry and SNR grid
REDUCED = """
n_bs = 16
n_ms = 8
n_rf_bs = 8
n_rf_ms = 4
snr_grid_db = -10,-5,0,5,10,15,20
n_trials = 40
"""


@pytest.fixture
def record_diff():
    path = list(sys.path)  # the tool puts src/ first on the path
    spec = importlib.util.spec_from_file_location("record_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.path[:] = path


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """{name: records.csv directory} of the reduced config and two variations of it."""
    out = {}
    for name, extra in (("base", "master_seed = 3"), ("ooja-moves", "master_seed = 3\nooja_delta = 1e8"),
                        ("seed-4", "master_seed = 4")):
        out[name] = tmp_path_factory.mktemp(name)
        emit_csv(run_experiment(load_config(REDUCED + extra)), out[name])
    return out


def test_the_same_run_twice_differs_by_nothing(record_diff, runs, capsys):
    rows = record_diff.read_records(runs["base"])
    paired, results = record_diff.compare(rows, record_diff.read_records(runs["base"] / "records.csv"))
    assert paired
    assert len(results) == 5 * 7 * 4  # every (variant, SNR, metric) cell: ser is scored at m = 1
    assert all(diff == 0.0 and se == 0.0 and not flagged for *_, diff, se, flagged in results)
    assert record_diff.main([str(runs["base"]), str(runs["base"])]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "paired over trials: 140 cells tested, 0 beyond 3 SE"


def test_a_moving_ooja_is_flagged_in_the_ooja_rows_only(record_diff, runs, capsys):
    rows = [record_diff.read_records(runs[name]) for name in ("base", "ooja-moves")]
    paired, results = record_diff.compare(*rows)
    assert paired  # ooja_delta moves no draw, so the seeds match
    flagged = {variant for variant, *_, flagged in results if flagged}
    assert flagged and all(v.startswith("ooja-") for v in flagged)
    assert all(diff == 0.0 for variant, *_, diff, _, _ in results if not variant.startswith("ooja-"))
    assert record_diff.main([str(runs["base"]), str(runs["ooja-moves"])]) == 1
    assert "beyond 3 SE" in capsys.readouterr().out


def test_unmatched_seeds_take_the_welch_test(record_diff, runs):
    a, b = (record_diff.read_records(runs[name]) for name in ("base", "seed-4"))
    paired, results = record_diff.compare(a, b)
    assert not paired
    cells_a, cells_b = record_diff.cells(a), record_diff.cells(b)
    for variant, snr_db, metric, mean_a, mean_b, diff, se, _ in results:
        x, y = np.array(cells_a[variant, snr_db, metric]), np.array(cells_b[variant, snr_db, metric])
        assert se == pytest.approx(math.hypot(x.std(ddof=1), y.std(ddof=1)) / math.sqrt(40), rel=1e-12)
        assert diff == pytest.approx(y.mean() - x.mean(), rel=1e-12, abs=1e-15)
