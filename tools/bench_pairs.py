"""Run perfbench/run.py in alternating pairs on this checkout and on a parent checkout.

Each pair runs the same workload and seed once on each side, one after the
other; odd pairs run the parent first and even pairs this checkout first, so
that a drift in host load falls on both sides alike. Every run's ``env:`` line,
final JSON, side and order go to ``BENCH_<label>.json`` at the root of this
checkout, with a summary per workload and metric: each side's median and
quartiles and the pairs in which this checkout did better, by the direction
``BENCHMARK.json`` gives the metric. ``--trace`` adds one ``--trace 1`` run per
side and workload after the pairs, kept apart from the summary. The tool exits 1,
after writing the file, when any of its runs printed no result.

    python tools/bench_pairs.py --parent ../parent --label gram --workload paper \\
        --pairs 10 --seconds 35 --seed 101
    python tools/bench_pairs.py --parent ../parent --label gram --workload mimo2 \\
        --pairs 4 --seconds 35 --seed 201 --append

Each side runs its own ``perfbench/run.py`` from its own root, which this tool
only reads. Every run is a child process in its own session; on a timeout, an
interrupt or a SIGTERM its whole process group, and the group of each process
it started, are killed before the tool exits (with status 143 on a SIGTERM).
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_PAD_S = 600  # a run also times set-up probes before its --seconds


def parse_run(stdout: str) -> tuple:
    """(env, result) of one run.py stdout: the ``env:`` JSON and the last line's JSON object."""
    env, result = None, None
    for line in stdout.splitlines():
        if line.startswith("env: "):
            env = json.loads(line[len("env: "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        raise ValueError("run.py printed no final JSON line")
    return env, result


def quartiles(values: list) -> list:
    """[q1, q3] by linear interpolation between order statistics (numpy.percentile's default)."""
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list, better: dict) -> dict:
    """Per workload and metric of the untraced runs with a result: medians, quartiles and pairs won.

    better maps a metric name to "higher" or "lower"; a metric it lacks gets no pair count.
    """
    summary = {}
    for run in runs:
        if run["trace"] or "result" not in run:  # a run that printed no result has no metrics
            continue
        by_metric = summary.setdefault(run["workload"], {})
        for name, metric in run["result"]["metrics"].items():
            if metric["value"] is not None:
                sides = by_metric.setdefault(name, {"parent": {}, "change": {}})
                sides[run["side"]][run["pair"]] = metric["value"]
    for workload, by_metric in summary.items():
        for name, sides in by_metric.items():
            parent, change = sides["parent"], sides["change"]
            entry = {}
            for side, values in (("parent", parent), ("change", change)):
                if values:
                    entry[f"{side}_median"] = statistics.median(values.values())
                    entry[f"{side}_quartiles"] = quartiles(sorted(values.values()))
            pairs = sorted(set(parent) & set(change))
            entry["pairs"] = len(pairs)
            if parent and change:
                entry["ratio_of_medians"] = entry["change_median"] / entry["parent_median"]
                q1, q3 = entry["parent_quartiles"]
                entry["gap_exceeds_parent_iqr"] = abs(entry["change_median"] - entry["parent_median"]) > q3 - q1
            if name in better and pairs:
                sign = 1.0 if better[name] == "higher" else -1.0
                entry["change_better_pairs"] = sum(sign * (change[p] - parent[p]) > 0 for p in pairs)
            by_metric[name] = entry
    return summary


def _descendants(pid: int) -> list:
    """Every descendant of pid, by the parent pids under /proc; none where /proc has no process entries."""
    children = {}
    for stat in glob.glob("/proc/[0-9]*/stat"):
        with contextlib.suppress(OSError):  # a process that exits while it is read
            with open(stat, encoding="utf-8") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            children.setdefault(ppid, []).append(int(stat.split("/")[2]))
    found, todo = [], [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        found += kids
        todo += kids
    return found


def _kill_run(pid: int) -> None:
    """SIGKILL a run's process group, led by pid, and every process group of its descendants: run.py
    starts each probe.py in a session of its own. The run's group is stopped first, so that no
    process starts between the look-up and the kill."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGSTOP)
    groups = {pid}
    for child in _descendants(pid):
        with contextlib.suppress(ProcessLookupError):
            groups.add(os.getpgid(child))
    for group in groups:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(group, signal.SIGKILL)


def _terminated(signum, frame):
    """SIGTERM as an exception, which run_once's cleanup sees; its default action would skip it."""
    raise SystemExit(128 + signum)


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py invocation in root; its env and result, or its return code and stderr tail."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    previous = signal.signal(signal.SIGTERM, _terminated)
    try:
        proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=seconds + RUN_TIMEOUT_PAD_S)
        except BaseException:  # a timeout, an interrupt or a SIGTERM: leave no process of the run behind
            _kill_run(proc.pid)
            proc.wait()
            raise
    finally:
        signal.signal(signal.SIGTERM, previous)
    record = {"returncode": proc.returncode}
    try:
        record["env"], record["result"] = parse_run(out)
    except ValueError:
        record["stderr_tail"] = err[-2000:]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="root of the parent checkout")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--seed", type=int, default=101, help="pair i runs at seed + i - 1")
    parser.add_argument("--trace", action="store_true", help="also one --trace 1 run per side")
    parser.add_argument("--append", action="store_true", help="add to an existing BENCH file")
    args = parser.parse_args(argv)

    path = ROOT / f"BENCH_{args.label}.json"
    bench = json.loads(path.read_text()) if args.append and path.exists() else {"runs": []}
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    first_pair = 1 + max((r["pair"] for r in bench["runs"] if r["workload"] == args.workload
                          and not r["trace"]), default=0)
    plan = []
    for pair in range(first_pair, first_pair + args.pairs):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        plan += [(side, pair, order[0], args.seed + pair - first_pair, 0) for side in order]
    if args.trace:
        plan += [(side, None, None, args.seed, 1) for side in sides]
    failed = 0
    for side, pair, first, seed, trace in plan:
        record = {"side": side, "workload": args.workload, "seed": seed, "pair": pair,
                  "first_in_pair": first, "seconds": args.seconds, "trace": trace}
        record.update(run_once(sides[side], args.workload, seed, args.seconds, trace))
        bench["runs"].append(record)
        failed += "result" not in record
        value = record.get("result", {}).get("metrics", {}).get("trials_per_s", {}).get("value")
        print(f"{args.workload} pair {pair} {side}: seed {seed}, trace {trace}, "
              f"exit {record['returncode']}, trials_per_s {value}", file=sys.stderr)
        bench["summary"] = summarize(bench["runs"], better)
        path.write_text(json.dumps(bench, indent=1) + "\n")  # after every run, so a cut run keeps the rest
    if failed:  # the summary skips such runs, so say so here
        print(f"{failed} of {len(plan)} runs printed no result; their stderr_tail is in {path.name}",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
