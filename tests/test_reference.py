"""Every record of run_experiment matches a plain-loop reference (tests/reference.py).

The runs are 3 trials at each benchmark workload's geometry: the paper's
100 x 30, the reduced 16 x 8, and the paper's at multiplexing order 2, each
with both trackers in both modes and the oracle. At the default ooja_delta
the OOJA step moves its basis only at rounding level (the samples' power is
about 1e-11), so one more run raises it to 1e8, where OOJA tracks.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import mmwtrack
import reference

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("workload, extra", [
    ("paper", ""), ("reduced-2w", ""), ("mimo2", ""), ("reduced-2w", "ooja_delta = 1e8\n"),
], ids=["paper", "reduced", "mimo2", "reduced-ooja-moves"])
def test_records_match_the_reference(monkeypatch, workload, extra):
    text = load_workloads(monkeypatch)[workload].config_text(seed=5, n_trials=3) + extra
    cfg = mmwtrack.load_config(text)
    assert {"pastd-fd", "ooja-fd", "pastd-hy", "ooja-hy", "oracle"} <= set(cfg.variants)
    records = mmwtrack.run_experiment(cfg)
    assert len(records) == 3 * len(cfg.variants) * len(cfg.snr_grid_db)
    expected = {t: reference.trial_records(cfg, t) for t in range(3)}
    for r in records:
        eta_u, eta_v, se_bits, ser, seed = expected[r.trial_index][(r.variant, r.snr_db)]
        where = (r.trial_index, r.variant, r.snr_db)
        assert r.seed_used == seed, where
        assert abs(r.eta_u - eta_u) <= 1e-9 and abs(r.eta_v - eta_v) <= 1e-9, where
        assert abs(r.spectral_eff_bits - se_bits) <= 1e-9, where
        if ser is None:
            assert r.ser is None, where
        else:
            assert abs(r.ser - ser) <= 1e-10 * ser, where
