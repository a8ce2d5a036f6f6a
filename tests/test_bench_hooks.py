"""The benchmark's per-layer hooks must keep resolving to functions the package calls.

perfbench/tracer.py times each layer by wrapping the module attributes listed
in its HOOKS. A refactor that renames such an attribute, or stops calling it
through the module, turns that layer's metric into null without failing
anything in the benchmark. This test reads HOOKS (it changes nothing under
perfbench/) and checks that one small run calls every hook.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import mmwtrack

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

CONFIG = """
n_bs = 16
n_ms = 8
n_clusters = 2
rays_per_cluster = 3
n_rf_bs = 8
n_rf_ms = 4
snr_grid_db = 10
n_trials = 1
multiplexing_order = 1
n_data_symbols = 100
variants = pastd-fd,ooja-hy,oracle
"""


def load_hooks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracer.py imports workloads.py
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    fresh = "workloads" not in sys.modules
    try:
        spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
    finally:
        if fresh:
            sys.modules.pop("workloads", None)
    return tracer.HOOKS


def test_every_benchmark_hook_is_called(monkeypatch, tmp_path):
    hooks = load_hooks(monkeypatch)
    calls = dict.fromkeys(hooks, 0)
    for hook in hooks:
        module_name, attr = hook.split(":")
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        assert callable(fn), f"benchmark hook {hook} no longer resolves"

        def counted(*args, _fn=fn, _hook=hook, **kwargs):
            calls[_hook] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    cfg = mmwtrack.load_config(CONFIG)
    mmwtrack.emit_csv(mmwtrack.run_experiment(cfg), tmp_path)
    assert [hook for hook, n in calls.items() if n == 0] == []
