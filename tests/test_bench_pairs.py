"""tools/bench_pairs.py: reading run.py's output, summarizing alternating pairs, and stopping its runs."""

import contextlib
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stdout(trials_per_s, cpu_s, eta=0.5):
    """The lines run.py prints for one untraced run, trimmed to what the tool reads."""
    metrics = {"trials_per_s": {"value": trials_per_s, "unit": "1/s"},
               "cpu_s_per_trial": {"value": cpu_s, "unit": "s"},
               "eta_mean": {"value": eta, "unit": "1"}}
    return "\n".join([
        "workload paper: seed 101, 12 trials per batch, 1 worker(s), 40 timed batches",
        'env: {"cores": 2, "numpy": "2.4.6"}',
        "records.csv sha256: 0123456789abcdef",
        f"trials_per_s: {trials_per_s:.6g} 1/s",
        json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}),
    ])


def run(bench_pairs, side, pair, trials_per_s, cpu_s, trace=0):
    env, result = bench_pairs.parse_run(stdout(trials_per_s, cpu_s))
    return {"side": side, "workload": "paper", "pair": pair, "trace": trace, "env": env, "result": result}


def test_parse_run_reads_the_env_line_and_the_final_json(bench_pairs):
    env, result = bench_pairs.parse_run(stdout(100.0, 0.01))
    assert env == {"cores": 2, "numpy": "2.4.6"}
    assert result["correct"] and result["metrics"]["trials_per_s"]["value"] == 100.0
    with pytest.raises(ValueError):
        bench_pairs.parse_run("env: {}\ntrials_per_s: 1 1/s\n")


def test_summary_gives_medians_quartiles_and_pairs_won(bench_pairs):
    parent = [100.0, 110.0, 105.0, 90.0]
    change = [120.0, 108.0, 130.0, 125.0]  # slower than the parent in pair 2 only
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        runs += [run(bench_pairs, "parent", pair, p, 1.0 / p), run(bench_pairs, "change", pair, c, 1.0 / c)]
    runs.append(run(bench_pairs, "change", None, 1.0, 1.0, trace=1))  # traced runs stay out
    runs.append({"side": "change", "workload": "paper", "pair": 5, "trace": 0, "returncode": 1})  # no result
    summary = bench_pairs.summarize(runs, {"trials_per_s": "higher", "cpu_s_per_trial": "lower"})
    tps = summary["paper"]["trials_per_s"]
    assert tps["pairs"] == 4 and tps["parent_median"] == 102.5 and tps["change_median"] == 122.5
    assert tps["parent_quartiles"] == [97.5, 106.25]  # numpy.percentile's linear interpolation
    assert tps["change_better_pairs"] == 3
    assert tps["ratio_of_medians"] == pytest.approx(122.5 / 102.5)
    assert tps["gap_exceeds_parent_iqr"]
    cpu = summary["paper"]["cpu_s_per_trial"]
    assert cpu["change_better_pairs"] == 3  # lower is better, so the same pairs win
    eta = summary["paper"]["eta_mean"]
    assert "change_better_pairs" not in eta and not eta["gap_exceeds_parent_iqr"]


def test_one_run_per_side_has_degenerate_quartiles(bench_pairs):
    runs = [run(bench_pairs, "parent", 1, 100.0, 0.01), run(bench_pairs, "change", 1, 90.0, 0.02)]
    tps = bench_pairs.summarize(runs, {"trials_per_s": "higher"})["paper"]["trials_per_s"]
    assert tps["parent_quartiles"] == [100.0, 100.0] and tps["change_better_pairs"] == 0


@pytest.mark.parametrize("failing_run", [None, 3], ids=["all-ran", "one-printed-no-result"])
def test_main_writes_every_run_and_exits_1_on_a_missing_result(bench_pairs, monkeypatch, tmp_path, failing_run):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "trials_per_s", "better": "higher"}]}))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    calls = []

    def run_once(root, workload, seed, seconds, trace):
        calls.append(root)
        if len(calls) == failing_run:
            return {"returncode": 1, "stderr_tail": "Traceback: boom"}
        env, result = bench_pairs.parse_run(stdout(100.0 + len(calls), 0.01))
        return {"returncode": 0, "env": env, "result": result}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path / "parent"), "--label", "t", "--workload", "paper", "--pairs", "2"]
    assert bench_pairs.main(argv) == (0 if failing_run is None else 1)
    bench = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert len(calls) == len(bench["runs"]) == 4  # the failed run is written too, with its stderr
    assert ["result" in r for r in bench["runs"]] == [i + 1 != failing_run for i in range(4)]
    assert bench["summary"]["paper"]["trials_per_s"]["pairs"] == (2 if failing_run is None else 1)


STAND_IN_RUN = '''
import os, subprocess, sys, time
# as run.py starts probe.py: in a session of its own
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"], start_new_session=True)
with open("pids.tmp", "w") as fh:
    fh.write(f"{os.getpgrp()} {os.getpid()} {child.pid}")
os.rename("pids.tmp", "pids.txt")
time.sleep(60)
'''


def alive(pid) -> bool:
    """Whether pid runs: a zombie, which waits only for its reaping, does not."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    with open(f"/proc/{pid}/stat") as fh:
        return fh.read().rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads process states under /proc")
def test_sigterm_kills_the_running_benchmark_and_its_children(tmp_path):
    # the tool in a root of its own, whose parent side runs a stand-in run.py that sleeps beside a child
    (tmp_path / "tools").mkdir()
    shutil.copy(TOOL, tmp_path / "tools" / "bench_pairs.py")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text(STAND_IN_RUN)
    tool = subprocess.Popen([sys.executable, str(tmp_path / "tools" / "bench_pairs.py"), "--parent", str(parent),
                             "--label", "t", "--workload", "paper", "--pairs", "1", "--seconds", "1"],
                            stderr=subprocess.DEVNULL)
    pids = parent / "pids.txt"
    try:
        deadline = time.monotonic() + 30
        while not pids.exists() and time.monotonic() < deadline and tool.poll() is None:
            time.sleep(0.05)
        assert pids.exists(), "the stand-in run never started"
        members = [int(pid) for pid in pids.read_text().split()[1:]]  # the stand-in and its child
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=30) == 128 + signal.SIGTERM
        deadline = time.monotonic() + 10
        while any(alive(pid) for pid in members) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(alive(pid) for pid in members)
        assert not (tmp_path / "BENCH_t.json").exists()  # no run finished
    finally:
        tool.kill()
        tool.wait()
        if pids.exists():
            group, _, child = map(int, pids.read_text().split())
            for pgid in (group, child):
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(pgid, signal.SIGKILL)
