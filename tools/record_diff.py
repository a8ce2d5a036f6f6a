"""Compare two runs' records.csv cell by cell: which (variant, SNR, metric) means moved beyond their noise?

For each (variant, snr_db) and each of eta_u, eta_v, se_bits and ser, it prints the mean of run A, the mean
of run B, their difference B - A, the standard error of that difference and their ratio z, and flags every
cell with |z| > 3. When both files hold the same (trial, variant, snr_db, seed) rows, both runs saw the same
channels, probes and noise, so the test is paired over trials: the SE is the standard error of the
per-trial differences. Otherwise the runs are independent and the SE is Welch's, sqrt(SE_A^2 + SE_B^2). The
standard error of a mean is the package's one function for it, `mmwtrack.harness._standard_error`. A cell
that only one run holds, or that is empty in both (ser at multiplexing order > 1), is not tested. The last
line names the test and counts the cells tested and flagged; the tool exits 1 when any cell is flagged.

    python tools/record_diff.py parent-run/records.csv change-run/records.csv
    python tools/record_diff.py parent-run change-run   # a directory stands for its records.csv
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mmwtrack.harness import _standard_error  # noqa: E402

METRICS = ("eta_u", "eta_v", "se_bits", "ser")
KEYS = ("trial", "variant", "snr_db", "seed")
Z_FLAG = 3.0


def read_records(path) -> list:
    path = Path(path)
    with open(path / "records.csv" if path.is_dir() else path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def cells(rows: list) -> dict:
    """{(variant, snr_db, metric): values in trial order}, in the order the cells first appear."""
    out = {}
    for r in sorted(rows, key=lambda r: int(r["trial"])):
        for metric in METRICS:
            if r[metric] != "":
                out.setdefault((r["variant"], float(r["snr_db"]), metric), []).append(float(r[metric]))
    return out


def compare(rows_a: list, rows_b: list) -> tuple:
    """(paired, results): each cell both runs hold, as (variant, snr_db, metric, mean A, mean B, B - A, SE,
    flagged), paired when both runs hold the same (trial, variant, snr_db, seed) rows."""
    paired = sorted(tuple(r[k] for k in KEYS) for r in rows_a) == sorted(tuple(r[k] for k in KEYS) for r in rows_b)
    cells_b = cells(rows_b)
    results = []
    for cell, a in cells(rows_a).items():
        if cell not in cells_b:
            continue
        a, b = np.array(a), np.array(cells_b[cell])
        diff = float(b.mean() - a.mean())
        se = float(_standard_error(b - a) if paired else math.hypot(_standard_error(a), _standard_error(b)))
        results.append((*cell, float(a.mean()), float(b.mean()), diff, se, abs(diff) > Z_FLAG * se))
    return paired, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="run A's records.csv, or the directory that holds it")
    parser.add_argument("b", help="run B's records.csv, or the directory that holds it")
    args = parser.parse_args(argv)
    paired, results = compare(read_records(args.a), read_records(args.b))
    print("| variant | snr_db | metric | mean A | mean B | B - A | SE | z | |\n|" + " --- |" * 9)
    for variant, snr_db, metric, mean_a, mean_b, diff, se, flagged in results:
        z = diff / se if se != 0 else 0.0 if diff == 0 else math.copysign(math.inf, diff)
        print(f"| {variant} | {snr_db:g} | {metric} | {mean_a:.6g} | {mean_b:.6g} | {diff:.3g} | {se:.3g} | {z:.3g} | "
              f"{'**beyond 3 SE**' if flagged else ''} |")
    n_flagged = sum(r[-1] for r in results)
    test = "paired over trials" if paired else "Welch (unpaired: the seeds differ)"
    print(f"\n{test}: {len(results)} cells tested, {n_flagged} beyond {Z_FLAG:g} SE")
    return 1 if n_flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
