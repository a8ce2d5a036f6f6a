"""tools/record_hashes.py: the exit status and the line counts of a comparison with another checkout."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "record_hashes.py"

RECORDS = "trial,variant,snr_db,eta_u,eta_v,se_bits,ser,seed\n0,oracle,0,1,1,2.5,0.125,11\n"
AGGREGATES = "variant,snr_db,n\noracle,0,1\n"


@pytest.fixture
def record_hashes():
    path = list(sys.path)  # the tool puts src/ and perfbench/ first on the path
    spec = importlib.util.spec_from_file_location("record_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.path[:] = path


@pytest.mark.parametrize("records, aggregates, code", [
    (RECORDS, AGGREGATES, 0),
    (RECORDS.replace("2.5", "2.5000000000000004"), AGGREGATES, 1),  # a number moved
    (RECORDS, AGGREGATES.replace(",1\n", ",2\n"), 1),  # aggregates.csv differs, records.csv does not
    (RECORDS.replace(",11\n", ",12\n"), AGGREGATES, 1),  # the keys do not match
], ids=["kept", "number-moved", "aggregates-differ", "keys-differ"])
def test_against_exits_1_when_a_run_differs(record_hashes, monkeypatch, tmp_path, capsys, records, aggregates, code):
    def write(out, records_text, aggregates_text):
        out.mkdir()
        (out / "records.csv").write_text(records_text)
        (out / "aggregates.csv").write_text(aggregates_text)

    # no workload runs: only the SMALL run, whose two sides write the tiny directories above
    monkeypatch.setattr(record_hashes, "WORKLOADS", {})
    monkeypatch.setattr(record_hashes, "run_here", lambda text, workers, out: write(out, RECORDS, AGGREGATES))
    monkeypatch.setattr(record_hashes, "run_against",
                        lambda checkout, text, workers, out: write(out, records, aggregates))
    assert record_hashes.main(["--against", str(tmp_path)]) == code
    table = capsys.readouterr().out  # printed in full before the exit status is returned
    assert "| `SMALL` |" in table and "src/mmwtrack/*.py lines: 0 against" in table


def test_against_prints_each_modules_lines_in_both_checkouts(record_hashes, tmp_path):
    package = tmp_path / "src" / "mmwtrack"
    package.mkdir(parents=True)
    (package / "harness.py").write_text("a\nb\nc\n")
    (package / "gone.py").write_text("x\n")
    ours = record_hashes.src_lines(record_hashes.ROOT)
    table = record_hashes.line_table(record_hashes.src_lines(tmp_path), ours).splitlines()
    assert table[:2] == ["| module | against | here |", "| --- | --- | --- |"]
    assert "| `gone.py` | 1 | - |" in table
    assert f"| `harness.py` | 3 | {ours['harness.py']} |" in table
    assert f"| `evaluation.py` | - | {ours['evaluation.py']} |" in table
    assert table[-1] == f"src/mmwtrack/*.py lines: 4 against, {sum(ours.values())} here"
