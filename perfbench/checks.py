"""Checks on the records.csv a batch wrote, and the summaries taken from it."""

from __future__ import annotations

import csv
import hashlib
import math

ORACLE = "oracle"
SE_SLACK = 1e-9


def digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_rows(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _unit_interval(x: float) -> bool:
    return 0.0 <= x <= 1.0  # False for NaN


def _row_ok(row, oracle_se, single_stream: bool) -> bool:
    try:
        eta_u = float(row["eta_u"])
        eta_v = float(row["eta_v"])
        se = float(row["se_bits"])
        oracle = oracle_se[(row["trial"], row["snr_db"])]
    except (KeyError, TypeError, ValueError):
        return False
    if not (_unit_interval(eta_u) and _unit_interval(eta_v) and math.isfinite(se)):
        return False
    if se > oracle + SE_SLACK:
        return False
    if not single_stream:
        return row["ser"] == ""
    try:
        return _unit_interval(float(row["ser"]))
    except ValueError:
        return False


def count_failed(rows, expected: int, single_stream: bool) -> int:
    """Number of the ``expected`` records that fail a check.

    A batch with the wrong record count fails as a whole. Otherwise a record
    fails when a value is not finite, an eta lies outside [0, 1], its spectral
    efficiency exceeds the oracle's for the same (trial, SNR) by more than
    1e-9, or its SER is not in [0, 1] (single stream) or not empty (m > 1).
    """
    if len(rows) != expected:
        return expected
    oracle_se = {}
    for row in rows:
        if row.get("variant") == ORACLE:
            try:
                se = float(row["se_bits"])
            except (KeyError, TypeError, ValueError):
                continue
            if math.isfinite(se):
                oracle_se[(row["trial"], row["snr_db"])] = se
    return sum(not _row_ok(row, oracle_se, single_stream) for row in rows)


def accuracy(rows) -> dict:
    """Mean (eta_u + eta_v) / 2 and mean SER over the tracked-variant records."""
    tracked = [r for r in rows if r["variant"] != ORACLE]
    eta = [(float(r["eta_u"]) + float(r["eta_v"])) / 2.0 for r in tracked]
    ser = [float(r["ser"]) for r in tracked if r["ser"] != ""]
    return {
        "eta_mean": sum(eta) / len(eta),
        "ser_mean": sum(ser) / len(ser) if ser else None,
    }
