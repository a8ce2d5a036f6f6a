"""Tests of the benchmark's own logic: span accounting, hooks and record checks.

    python3 -m pytest -q perfbench
"""

import json
import math
import sys
import time
import types
from pathlib import Path

import checks
import run
import tracer
from workloads import SNR_GRID_DB, VARIANTS, WORKLOADS


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_subtracts_direct_children():
    spans = tracer.Tracer()
    leaf = spans.wrap("leaf", lambda: _busy(0.02))

    def middle():
        leaf()
        leaf()
        _busy(0.01)

    middle = spans.wrap("middle", middle)

    def outer():
        middle()
        _busy(0.01)

    outer = spans.wrap("outer", outer)
    outer()

    calls, total, own = spans.stats["leaf"]
    assert calls == 2 and math.isclose(total, own)
    _, mid_total, mid_self = spans.stats["middle"]
    assert math.isclose(mid_self, mid_total - total, rel_tol=1e-9)
    _, out_total, out_self = spans.stats["outer"]
    assert math.isclose(out_self, out_total - mid_total, rel_tol=1e-9)
    assert 0.008 < mid_self < 0.03 and 0.008 < out_self < 0.03
    # Self times of all spans add up to the outermost span's duration.
    assert math.isclose(sum(s[2] for s in spans.stats.values()), out_total, rel_tol=1e-9)


def test_span_closes_when_the_call_raises():
    spans = tracer.Tracer()

    def fail():
        raise ValueError("boom")

    fail = spans.wrap("fail", fail)
    outer = spans.wrap("outer", lambda: _swallow(fail))
    outer()
    assert spans.stats["fail"][0] == 1 and spans.stats["outer"][0] == 1
    assert spans._open == []


def _swallow(fn):
    try:
        fn()
    except ValueError:
        pass


def test_missing_hook_is_absent_not_zero(monkeypatch):
    fake = types.ModuleType("fake_layers")
    fake.present = lambda: None
    monkeypatch.setitem(sys.modules, "fake_layers", fake)
    spans = tracer.Tracer()
    restore, missing = tracer.install(spans, ("fake_layers:present", "fake_layers:gone"))
    assert missing == ["fake_layers:gone"]
    fake.present()
    tracer.uninstall(restore)
    assert spans.calls("fake_layers:present") == 1
    assert not hasattr(fake.present, "__wrapped__")

    missing = ["mmwtrack.harness:dpsk_ser_trial", "mmwtrack.protocol:tracker_run"]
    layers = tracer.layer_metrics(spans, missing, trials=1, ser_expected=True)
    assert layers["evaluation.ser_s"] is None
    assert layers["evaluation.ser_symbols"] is None
    assert layers["tracking.steps_s"] is None and layers["tracking.step_us"] is None
    # A hook that exists but never ran on a workload that should call it is absent too.
    assert layers["channel.sample_s"] is None


def test_missing_inner_hook_taints_enclosing_span_and_coverage():
    spans = tracer.Tracer()
    for hook in tracer.HOOKS:
        spans.wrap(hook, lambda: None)()
        spans.stats[hook][2] = 1.0
    full = tracer.covered_s(spans, [])
    assert full == len(tracer.HOOKS) - len(tracer.NOT_COVERAGE)

    hook = "mmwtrack.protocol:init_from_samples"
    del spans.stats[hook]
    layers = tracer.layer_metrics(spans, [hook], trials=1, ser_expected=True)
    assert layers["tracking.warmstart_s"] is None
    assert layers["protocol.probe_s"] is None  # the phases' self time now holds the warm start
    assert layers["tracking.steps_s"] == 1.0
    assert tracer.covered_s(spans, [hook]) == full - 1 - 2


def test_layer_never_called_by_the_workload_reads_zero():
    spans = tracer.Tracer()
    for hook in tracer.HOOKS:
        if hook != tracer.SER_SPAN:
            spans.wrap(hook, lambda: None)()
    spans.wrap(tracer.SER_SPAN, lambda: None)
    layers = tracer.layer_metrics(spans, [], trials=1, ser_expected=False)
    assert layers["evaluation.ser_s"] == 0.0 and layers["evaluation.ser_symbols"] == 0
    assert all(v is not None for v in layers.values())


def _rows(n_trials=2, ser="0.25", m=1):
    rows = []
    for variant in VARIANTS:
        for snr in SNR_GRID_DB:
            for t in range(n_trials):
                rows.append({
                    "trial": str(t), "variant": variant, "snr_db": str(float(snr)),
                    "eta_u": "0.9", "eta_v": "0.8",
                    "se_bits": "5.0" if variant == "oracle" else "4.0",
                    "ser": ser if m == 1 else "", "seed": "7",
                })
    return rows


def test_record_checker_accepts_good_records():
    rows = _rows()
    assert checks.count_failed(rows, len(rows), single_stream=True) == 0
    rows = _rows(m=2)
    assert checks.count_failed(rows, len(rows), single_stream=False) == 0


def test_record_checker_flags_nan_and_se_above_oracle():
    rows = _rows()
    rows[0]["eta_u"] = "nan"
    rows[1]["se_bits"] = "5.000001"    # above the oracle's 5.0 for that trial and SNR
    rows[2]["se_bits"] = "5.0000000001"  # within the 1e-9 slack
    rows[3]["se_bits"] = "nan"
    assert checks.count_failed(rows, len(rows), single_stream=True) == 3


def test_record_checker_flags_ranges_and_count():
    rows = _rows()
    rows[0]["eta_v"] = "1.5"
    rows[1]["ser"] = ""       # missing SER at m = 1
    rows[2]["ser"] = "inf"
    assert checks.count_failed(rows, len(rows), single_stream=True) == 3
    assert checks.count_failed(_rows(), len(rows) + 1, single_stream=True) == len(rows) + 1
    rows = _rows(m=2)
    rows[0]["ser"] = "0.1"    # SER must be empty when m > 1
    assert checks.count_failed(rows, len(rows), single_stream=False) == 1


def test_accuracy_uses_tracked_variants_only():
    rows = _rows()
    for r in rows:
        if r["variant"] == "oracle":
            r["eta_u"] = r["eta_v"] = "1.0"
            r["ser"] = "0.0"
    acc = checks.accuracy(rows)
    assert math.isclose(acc["eta_mean"], 0.85) and math.isclose(acc["ser_mean"], 0.25)
    assert checks.accuracy(_rows(m=2))["ser_mean"] is None


def test_workloads_config_and_record_count():
    paper = WORKLOADS["paper"]
    text = paper.config_text(seed=3)
    assert "master_seed = 3\n" in text and f"n_trials = {paper.trials}\n" in text
    assert "oracle" in text
    assert paper.records_per_batch == paper.trials * 5 * 7


def test_metric_lists_match_benchmark_json():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
