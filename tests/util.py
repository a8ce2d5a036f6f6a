"""Shared helpers and independent oracles for the test suite."""

import math

import numpy as np

from mmwtrack import protocol


def rand_unitary(n: int, m: int, rng) -> np.ndarray:
    """Random n x m matrix with orthonormal columns (Haar-ish via QR)."""
    g = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def cov_sqrt(cov: np.ndarray) -> np.ndarray:
    """Hermitian square root, for drawing samples with an exact covariance."""
    evals, evecs = np.linalg.eigh(cov)
    return evecs @ np.diag(np.sqrt(np.maximum(evals, 0.0))) @ evecs.conj().T


def draw_samples(cov_root: np.ndarray, count: int, rng) -> list:
    n = cov_root.shape[0]
    g = (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))) / math.sqrt(2.0)
    return list(g @ cov_root.T)


def synth_covariance(n: int, rng, eigvals=(10.0, 5.0, 2.0), noise=0.01):
    """Synthetic covariance U diag(eigvals) U^H + noise*I and its eigenbasis."""
    u = rand_unitary(n, len(eigvals), rng)
    cov = (u * np.asarray(eigvals)) @ u.conj().T + noise * np.eye(n)
    return cov, u


def scalar_dpsk_ser(gamma_s: float, k_mod: int, n_sym: int, rng) -> float:
    """Brute-force differential K-PSK over a unit scalar channel at SNR gamma_s.

    Independent of the library detector: decisions come from rounding the
    angle of consecutive-output products.
    """
    data = rng.integers(0, k_mod, n_sym)
    phases = np.concatenate(([0], np.cumsum(data))) % k_mod
    b = np.exp(2j * math.pi * phases / k_mod)
    noise = (rng.standard_normal(n_sym + 1) + 1j * rng.standard_normal(n_sym + 1)) / math.sqrt(2.0)
    y = math.sqrt(gamma_s) * b + noise
    prod = y[1:] * np.conj(y[:-1])
    detected = np.round(np.angle(prod) * k_mod / (2.0 * math.pi)).astype(int) % k_mod
    return float(np.mean(detected != data))


def capture_streams(monkeypatch) -> list:
    """Record each probing phase's warm-start rows followed by its tracked rows.

    A stacked phase gives one (S, P, n) array, a single stream one (P, n) array.
    """
    streams = []
    init, run = protocol.init_from_samples, protocol.tracker_run

    def init_spy(samples, m):
        streams.append(np.array(samples))
        return init(samples, m)

    def run_spy(tracker, stream):  # stream is (T, ..., n): one row per step
        streams[-1] = np.concatenate([streams[-1], np.moveaxis(stream, 0, -2)], axis=-2)
        return run(tracker, stream)

    monkeypatch.setattr(protocol, "init_from_samples", init_spy)
    monkeypatch.setattr(protocol, "tracker_run", run_spy)
    return streams


# pytest is told this module is not a test collection target
__test__ = False
