"""Print sha256[:16] of records.csv and aggregates.csv for the reference runs.

The runs are every benchmark workload at ``config_text(seed=3, n_trials=3)`` on
its own worker count, and the ``SMALL`` config of ``tests/test_harness.py``
on one worker. A change that must keep every record's bytes keeps this table.
Outputs go to a temporary directory that is removed afterwards.

    python tools/record_hashes.py
"""

from __future__ import annotations

import ast
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import mmwtrack  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def small_config() -> str:
    """The SMALL config text of tests/test_harness.py, read without importing the test module."""
    tree = ast.parse((ROOT / "tests" / "test_harness.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SMALL" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_harness.py defines no SMALL")


def digests(config_text: str, workers: int, out: Path) -> tuple:
    cfg = mmwtrack.load_config(config_text)
    mmwtrack.emit_csv(mmwtrack.run_experiment(cfg, workers=workers), out)
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
                 for name in ("records.csv", "aggregates.csv"))


def main() -> int:
    runs = [(name, w.config_text(seed=3, n_trials=3), w.workers) for name, w in WORKLOADS.items()]
    runs.append(("SMALL", small_config(), 1))
    print("| run | records / aggregates |\n| --- | --- |")
    with tempfile.TemporaryDirectory() as tmp:
        for name, text, workers in runs:
            records, aggregates = digests(text, workers, Path(tmp) / name)
            print(f"| `{name}` | `{records}` / `{aggregates}` |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
