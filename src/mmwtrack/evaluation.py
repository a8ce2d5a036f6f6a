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
    p_t_bs: float | tuple = 1.0  # a tuple: one per stream of a stack

    def __post_init__(self):
        if self.psk_order < 2 or self.psk_order & (self.psk_order - 1):
            raise ValueError(f"psk_order must be a power of 2 >= 2, got {self.psk_order}")
        if self.n_data_symbols < 1:
            raise ValueError("n_data_symbols must be positive")
        if not np.all(np.asarray(self.p_t_bs) > 0):
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


def spectral_efficiency_bound(sigma, p_t_bs: float, sigma2_n: float) -> float:
    """The oracle's rate sum_i log2(1 + P sigma_i^2 / sigma2) over the given singular values."""
    return float(np.sum(np.log2(1.0 + p_t_bs * np.square(sigma) / sigma2_n)))


def dpsk_noise(rngs, n_data_symbols: int) -> np.ndarray:
    """Each generator's unit-variance DPSK noise: n + 1 real parts, then n + 1 imaginary parts."""
    w = np.empty((len(rngs), 2, n_data_symbols + 1))
    for i, gen in enumerate(rngs):
        gen.standard_normal(out=w[i])
    return w


def dpsk_ser_trial(
    chan: ChannelRealization,
    beams: EstimatedBeamformers,
    cfg: MetricConfig,
    sigma2_n: float,
    rng,
):
    """Symbol error rate of differential K-PSK through the beamformed link.

    Single-stream only. Per symbol, the combined noise d_ms^H n / ||d_ms|| is one
    CN(0, sigma2) draw w_n and the gain is g = |d_ms^H H d_bs| / ||d_ms||. Rotating
    each output by the conjugate of its symbol leaves circular noise as it is, so
    the detector sees y_n = sqrt(P) g + w_n whatever was sent: only w_n is drawn,
    real parts then imaginary parts, and symbol n is in error when
    |arg(y_n conj(y_{n-1}))| > pi/K. S generators, each with its own cfg.p_t_bs and
    optionally its own beams (a leading stream axis), score S streams at once; so
    does an (S, 2, n + 1) array of drawn unit-variance noise, which is only read.
    """
    if beams.d_ms.shape[-1] != 1 or beams.d_bs.shape[-1] != 1:
        raise ValueError("differential SER supports multiplexing order 1 only")
    single = isinstance(rng, np.random.Generator)
    d_ms = beams.d_ms[..., 0]
    norm = np.linalg.norm(d_ms, axis=-1)
    if np.any(norm == 0.0):
        raise ValueError("differential SER undefined for a zero combiner")
    gain = np.abs(np.vecdot(d_ms, beams.d_bs[..., 0] @ chan.h.T)) / norm

    w = rng
    if not isinstance(rng, np.ndarray):
        w = dpsk_noise([rng] if single else rng, cfg.n_data_symbols)
    if w.shape[-1] != cfg.n_data_symbols + 1:
        raise ValueError(f"noise has {w.shape[-1]} samples, expected {cfg.n_data_symbols + 1}")
    scale = math.sqrt(sigma2_n / 2.0)
    amp = np.sqrt(np.broadcast_to(cfg.p_t_bs, len(w))) * gain
    y = (w[:, 0] * scale + amp[:, None]) + 1j * (w[:, 1] * scale)
    z = y[:, 1:] * np.conj(y[:, :-1])
    ser = np.mean(np.abs(np.angle(z)) > math.pi / cfg.psk_order, axis=-1)
    return float(ser[0]) if single else ser
