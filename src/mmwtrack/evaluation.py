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
    p_t_bs: float | tuple = 1.0  # an array or a tuple: one per stream of a stack

    def __post_init__(self):
        if self.psk_order < 2 or self.psk_order & (self.psk_order - 1):
            raise ValueError(f"psk_order must be a power of 2 >= 2, got {self.psk_order}")
        if self.n_data_symbols < 1:
            raise ValueError("n_data_symbols must be positive")
        p_t_bs = np.asarray(self.p_t_bs)
        if not np.all(np.isfinite(p_t_bs) & (p_t_bs > 0)):
            raise ValueError("p_t_bs must be finite and > 0")


def normalized_correlation(x, y):
    """|x^H y| / (||x|| ||y||) over the last axis: phase-blind alignment, one per pair."""
    nx = np.linalg.norm(x, axis=-1)
    ny = np.linalg.norm(y, axis=-1)
    if np.any(nx == 0.0) or np.any(ny == 0.0):
        raise ValueError("normalized_correlation undefined for zero vectors")
    eta = np.minimum(np.abs(np.vecdot(x, y)) / (nx * ny), 1.0)
    return float(eta) if eta.ndim == 0 else eta


def spectral_efficiency(h, d_ms, d_bs, p_t_bs, sigma2_n: float):
    """Achievable rate in bits/s/Hz through the given combiner/precoder pair.

    log2 det[I + P (sigma2 D_ms^H D_ms)^{-1} D_ms^H H D_bs D_bs^H H^H D_ms]
    One rate per stream of a stack of beams or of S powers P; a float for one stream.
    """
    if not np.all(np.asarray(p_t_bs) > 0) or sigma2_n <= 0:
        raise ValueError("p_t_bs and sigma2_n must be > 0")
    d_ms = np.asarray(d_ms, dtype=complex)
    d_bs = np.asarray(d_bs, dtype=complex)
    gram = d_ms.conj().mT @ d_ms
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise ValueError("d_ms must have full column rank") from None
    a = d_ms.conj().mT @ np.asarray(h) @ d_bs
    x = (np.asarray(p_t_bs) / sigma2_n)[..., None, None] * np.linalg.solve(gram, a @ a.conj().mT)
    _, logdet = np.linalg.slogdet(np.eye(x.shape[-1]) + x)
    se = np.maximum(logdet / math.log(2.0), 0.0)
    return float(se) if se.ndim == 0 else se


def spectral_efficiency_bound(sigma, p_t_bs, sigma2_n: float):
    """The oracle's rate sum_i log2(1 + P sigma_i^2 / sigma2) per power P, P's axes before sigma's."""
    bound = np.sum(np.log2(1.0 + np.asarray(p_t_bs)[..., None] * np.square(sigma) / sigma2_n), axis=-1)
    return float(bound) if bound.ndim == 0 else bound


def dpsk_noise(rngs, n_data_symbols: int, sigma2_n: float) -> tuple:
    """Each generator's DPSK noise, n + 1 real parts then n + 1 imaginary parts, prepared once for every variant
    of a trial at sigma2_n: (a_n, b_n, b_n b_{n-1}), the parts times sqrt(sigma2_n / 2), a row per generator."""
    w = np.empty((len(rngs), 2, n_data_symbols + 1))
    for i, gen in enumerate(rngs):
        gen.standard_normal(out=w[i])
    w *= math.sqrt(sigma2_n / 2.0)
    return w[:, 0], w[:, 1], w[:, 1, 1:] * w[:, 1, :-1]


def dpsk_ser_trial(
    chan: ChannelRealization,
    beams: EstimatedBeamformers,
    cfg: MetricConfig,
    sigma2_n: float,
    rng,
):
    """Symbol error rate of differential K-PSK through the beamformed link.

    Multiplexing order 1 only. Per symbol, the combined noise d_ms^H n / ||d_ms|| is one
    CN(0, sigma2) draw w_n and the gain is g = |d_ms^H H d_bs| / ||d_ms||. Rotating
    each output by the conjugate of its symbol leaves circular noise as it is, so
    the detector sees y_n = sqrt(P) g + w_n whatever was sent: only w_n is drawn,
    real parts then imaginary parts, and symbol n is in error when
    |arg(y_n conj(y_{n-1}))| > pi/K. rng is one Generator, which draws one
    stream's noise now and gives a float, or the triple that dpsk_noise drew for
    S streams at this sigma2_n, which is only read and gives S values: one per
    stream, each with its own cfg.p_t_bs and optionally its own beams (a leading
    stream axis).
    """
    if beams.d_ms.shape[-1] != 1 or beams.d_bs.shape[-1] != 1:
        raise ValueError("differential SER supports multiplexing order 1 only")
    d_ms = beams.d_ms[..., 0]
    norm = np.linalg.norm(d_ms, axis=-1)
    if np.any(norm == 0.0):
        raise ValueError("differential SER undefined for a zero combiner")
    gain = np.abs(np.vecdot(d_ms, beams.d_bs[..., 0] @ chan.h.T)) / norm

    single = isinstance(rng, np.random.Generator)
    if single and (gain.ndim > 0 or np.ndim(cfg.p_t_bs) > 0):
        raise ValueError("one Generator scores one stream: draw a stack's noise with dpsk_noise")
    if not (single or isinstance(rng, tuple) and len(rng) == 3):
        raise ValueError(f"noise is a Generator or the triple dpsk_noise returns, not {type(rng).__name__}")
    re, im, im_im = dpsk_noise([rng], cfg.n_data_symbols, sigma2_n) if single else rng
    if re.shape[-1] != cfg.n_data_symbols + 1:
        raise ValueError(f"noise has {re.shape[-1]} samples, expected {cfg.n_data_symbols + 1}")
    a = re + (np.sqrt(np.broadcast_to(cfg.p_t_bs, len(re))) * gain)[:, None]  # Re y_n; Im y_n is im
    re_z = a[:, 1:] * a[:, :-1] + im_im  # z = y_n conj(y_{n-1}) in real arithmetic
    im_z = np.abs(im[:, 1:] * a[:, :-1] - a[:, 1:] * im[:, :-1])
    # |arg z| > pi/K as Re z < cot(pi/K) |Im z|: cot(pi/2) is tan(0) = 0 and cot(pi/4) rounds below 1, so a symbol
    # on the boundary, at Re z = 0 for K = 2 or at |Im z| = Re z for K = 4, is not in error, as np.angle decides
    ser = np.mean(re_z < math.tan(math.pi / 2 - math.pi / cfg.psk_order) * im_z, axis=-1)
    return float(ser[0]) if single else ser
