"""Print sha256[:16] of records.csv and aggregates.csv for the reference runs.

The runs are every benchmark workload at ``config_text(seed=3, n_trials=3)`` on
its own worker count, and the ``SMALL`` config of ``tests/test_harness.py``
on one worker. A change that must keep every record's bytes keeps this table.
Outputs go to a temporary directory that is removed afterwards.

With ``--against DIR``, each run is repeated in a subprocess on the ``src/``
of the checkout at DIR, and the table adds, per run, that checkout's digests,
the largest |delta| of each numeric column of records.csv and whether the rows'
(trial, variant, snr_db, seed) keys match in order. A second table gives each
``src/mmwtrack/*.py`` module's lines in both checkouts, as ``wc -l`` counts
them ("-" where a checkout lacks the module), and a last line both totals. A
change that keeps bytes shows equal digests, and one that moves numbers at
rounding level reports them from the first table. After printing the tables, the
tool exits 1 if any run's digests differ, as they do when its keys do not
match.

    python tools/record_hashes.py
    python tools/record_hashes.py --against ../parent-checkout
"""

from __future__ import annotations

import argparse
import ast
import csv
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import mmwtrack  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NUMERIC = ("eta_u", "eta_v", "se_bits", "ser")
KEYS = ("trial", "variant", "snr_db", "seed")

# argv: out directory, workers; the config text on stdin
RUN_ELSEWHERE = """
import sys
import mmwtrack
cfg = mmwtrack.load_config(sys.stdin.read())
mmwtrack.emit_csv(mmwtrack.run_experiment(cfg, workers=int(sys.argv[2])), sys.argv[1])
"""


def small_config() -> str:
    """The SMALL config text of tests/test_harness.py, read without importing the test module."""
    tree = ast.parse((ROOT / "tests" / "test_harness.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SMALL" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_harness.py defines no SMALL")


def digests(out: Path) -> str:
    """The records.csv / aggregates.csv digests of a run written to out, as one table cell."""
    return " / ".join(f"`{hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]}`"
                      for name in ("records.csv", "aggregates.csv"))


def run_here(config_text: str, workers: int, out: Path) -> None:
    cfg = mmwtrack.load_config(config_text)
    mmwtrack.emit_csv(mmwtrack.run_experiment(cfg, workers=workers), out)


def run_against(checkout: Path, config_text: str, workers: int, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    subprocess.run([sys.executable, "-c", RUN_ELSEWHERE, str(out), str(workers)], input=config_text,
                   text=True, env=env, check=True, cwd=checkout)


def src_lines(checkout: Path) -> dict:
    """{module file name: lines} of src/mmwtrack/*.py, as wc -l counts them."""
    return {path.name: path.read_bytes().count(b"\n") for path in (checkout / "src" / "mmwtrack").glob("*.py")}


def line_table(theirs: dict, ours: dict) -> str:
    """Each module's lines against and here, then the totals line."""
    rows = ["| module | against | here |", "| --- | --- | --- |"]
    rows += [f"| `{name}` | {theirs.get(name, '-')} | {ours.get(name, '-')} |" for name in sorted(theirs | ours)]
    return "\n".join(rows) + f"\n\nsrc/mmwtrack/*.py lines: {sum(theirs.values())} against, {sum(ours.values())} here"


def compare(ours: Path, theirs: Path) -> list:
    """Largest |delta| per numeric column, then whether the row keys match in order."""
    def rows(path):
        with open(path / "records.csv", encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))

    a, b = rows(ours), rows(theirs)
    keys_match = [tuple(r[k] for k in KEYS) for r in a] == [tuple(r[k] for k in KEYS) for r in b]
    cells = []
    for col in NUMERIC:
        worst = 0.0
        for ra, rb in zip(a, b):
            if (ra[col] == "") != (rb[col] == ""):
                worst = float("inf")
            elif ra[col] != "":
                worst = max(worst, abs(float(ra[col]) - float(rb[col])))
        cells.append(f"{worst:.2g}")
    return cells + ["yes" if keys_match else "NO"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="a checkout whose src/ to compare the records with")
    args = parser.parse_args(argv)
    runs = [(name, w.config_text(seed=3, n_trials=3), w.workers) for name, w in WORKLOADS.items()]
    runs.append(("SMALL", small_config(), 1))
    kept = True
    header = ["run", "records / aggregates"]
    if args.against:
        header += ["against: records / aggregates"] + [f"max abs delta {col}" for col in NUMERIC] + ["keys match"]
    print("| " + " | ".join(header) + " |\n|" + " --- |" * len(header))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text, workers in runs:
            ours, theirs = Path(tmp) / name, Path(tmp) / f"{name}-against"
            run_here(text, workers, ours)
            cells = [f"`{name}`", digests(ours)]
            if args.against:
                run_against(args.against.resolve(), text, workers, theirs)
                cells += [digests(theirs)] + compare(ours, theirs)
                kept = kept and digests(theirs) == digests(ours)  # rows whose keys differ differ too
            print("| " + " | ".join(cells) + " |")
    if args.against:
        print("\n" + line_table(src_lines(args.against.resolve()), src_lines(ROOT)))
    return 0 if kept else 1


if __name__ == "__main__":
    raise SystemExit(main())
