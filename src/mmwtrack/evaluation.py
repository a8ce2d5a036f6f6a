"""Link-quality metrics: subspace alignment, spectral efficiency, DPSK SER."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .protocol import EstimatedBeamformers


@dataclass(frozen=True)
class MetricConfig:
    psk_order: int = 16
    n_data_symbols: int = 10_000
    p_t_bs: float = 1.0

    def __post_init__(self):
        if self.psk_order < 2 or self.psk_order & (self.psk_order - 1):
            raise ValueError(f"psk_order must be a power of 2 >= 2, got {self.psk_order}")
        if self.n_data_symbols < 1:
            raise ValueError("n_data_symbols must be positive")
        if self.p_t_bs <= 0:
            raise ValueError("p_t_bs must be > 0")


def normalized_correlation(x, y) -> float:
    """|x^H y| / (||x|| ||y||): phase-blind alignment of two vectors."""
    x = np.asarray(x).ravel()
    y = np.asarray(y).ravel()
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("normalized_correlation undefined for zero vectors")
    return min(float(abs(np.vdot(x, y)) / (nx * ny)), 1.0)


def spectral_efficiency(h, d_ms, d_bs, p_t_bs: float, sigma2_n: float) -> float:
    """Achievable rate in bits/s/Hz through the given combiner/precoder pair.

    log2 det[I + P (sigma2 D_ms^H D_ms)^{-1} D_ms^H H D_bs D_bs^H H^H D_ms]
    """
    if p_t_bs <= 0 or sigma2_n <= 0:
        raise ValueError("p_t_bs and sigma2_n must be > 0")
    d_ms = np.asarray(d_ms, dtype=complex)
    d_bs = np.asarray(d_bs, dtype=complex)
    gram = d_ms.conj().T @ d_ms
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise ValueError("d_ms must have full column rank") from None
    a = d_ms.conj().T @ np.asarray(h) @ d_bs
    m = gram.shape[0]
    inner = np.eye(m) + (p_t_bs / sigma2_n) * np.linalg.solve(gram, a @ a.conj().T)
    _, logdet = np.linalg.slogdet(inner)
    return max(float(logdet) / math.log(2.0), 0.0)


def dpsk_ser_trial(
    chan: ChannelRealization,
    beams: EstimatedBeamformers,
    cfg: MetricConfig,
    sigma2_n: float,
    rng: np.random.Generator,
) -> float:
    """Symbol error rate of differential K-PSK through the beamformed link.

    Single-stream only. The base station sends a reference symbol followed by
    differentially encoded data on its estimated transmit beam; the mobile
    combines with d_ms and detects each phase increment by rounding the angle of
    the product of consecutive outputs. Per symbol, the combined noise
    d_ms^H n / ||d_ms|| is one CN(0, sigma2) draw and the gain |d_ms^H H d_bs| / ||d_ms||.
    """
    if beams.d_ms.shape[1] != 1 or beams.d_bs.shape[1] != 1:
        raise ValueError("differential SER supports multiplexing order 1 only")
    k_mod = cfg.psk_order
    n_sym = cfg.n_data_symbols
    d_ms = beams.d_ms[:, 0]
    norm = np.linalg.norm(d_ms)
    if norm == 0.0:
        raise ValueError("differential SER undefined for a zero combiner")
    gain = abs(np.vdot(d_ms, chan.h @ beams.d_bs[:, 0])) / norm

    data = rng.integers(0, k_mod, size=n_sym)
    # b(0) = 1, b(n) = b(n-1) * exp(j 2 pi k_n / K)
    phases = np.concatenate(([0], np.cumsum(data))) % k_mod
    b = np.exp(2j * math.pi * phases / k_mod)
    noise = rng.standard_normal(n_sym + 1) + 1j * rng.standard_normal(n_sym + 1)
    y = math.sqrt(cfg.p_t_bs) * gain * b + math.sqrt(sigma2_n / 2.0) * noise

    increments = np.angle(y[1:] * np.conj(y[:-1])) * (k_mod / (2.0 * math.pi))
    detected = np.round(increments).astype(int) % k_mod
    return float(np.mean(detected != data))
