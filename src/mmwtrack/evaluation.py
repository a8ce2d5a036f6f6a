"""Link-quality metrics: subspace alignment, spectral efficiency, DPSK SER."""

from __future__ import annotations

import functools
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


@functools.cache
def _gauss_legendre(n: int) -> tuple:
    """The n-node Gauss-Legendre rule on [-1, 1] by Golub-Welsch: eigh of the Jacobi matrix, off-diagonal
    k / sqrt(4 k^2 - 1). Made at the first call: at import it ran before BLAS is pinned and raised peak RSS."""
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return nodes, 2.0 * vectors[0] ** 2


def dpsk_ser_trial(
    chan: ChannelRealization,
    beams: EstimatedBeamformers,
    cfg: MetricConfig,
    sigma2_n: float,
    rng=None,
):
    """Expected symbol error rate of differential K-PSK through the beamformed link, given the beams.

    Multiplexing order 1 only. Per symbol, the combined noise d_ms^H n / ||d_ms|| is CN(0, sigma2_n) and
    the gain is g = |d_ms^H H d_bs| / ||d_ms||, so the detector sees differential K-PSK in white noise at
    gamma = P g^2 / sigma2_n, and errs with probability (Pawula, Rice and Roberts, IEEE Trans. Commun. 1982)
        P_s = sin(pi/K) / pi int_0^{pi/2} exp(-gamma (1 - c cos t)) / (1 - c cos t) dt,  c = cos(pi/K).
    The integrand peaks at t = 0 with width w = min(1 / sqrt(gamma c), sqrt(2 (1 - c) / c)); the integral
    is 24-node Gauss-Legendre on each of [0, w], [w, 4w], [4w, 16w] and [16w, pi/2], clipped at pi/2.
    One value per stream of a stack (leading axes of the channel, the beams or cfg.p_t_bs), a float for
    one stream. Nothing is drawn: rng is accepted and left alone, and cfg.n_data_symbols is not read.
    """
    if beams.d_ms.shape[-1] != 1 or beams.d_bs.shape[-1] != 1:
        raise ValueError("differential SER supports multiplexing order 1 only")
    d_ms = beams.d_ms[..., 0]
    norm = np.linalg.norm(d_ms, axis=-1)
    if np.any(norm == 0.0):
        raise ValueError("differential SER undefined for a zero combiner")
    gain = np.abs(np.vecdot(d_ms, (chan.h @ beams.d_bs)[..., 0])) / norm
    with np.errstate(divide="ignore"):  # sigma2_n = 0: gamma is inf and no symbol errs
        gamma = np.asarray(cfg.p_t_bs) * gain**2 / sigma2_n
    c = math.cos(math.pi / cfg.psk_order)
    w = 1.0 / np.sqrt(c * np.maximum(gamma, 0.5 / (1.0 - c)))
    edges = np.minimum(w[..., None] * (0.0, 1.0, 4.0, 16.0, 16.0), math.pi / 2)
    edges[..., -1] = math.pi / 2
    half = np.diff(edges)[..., None] / 2.0  # each panel's half width, by the 24 nodes of its panel
    nodes, weights = _gauss_legendre(24)
    a = 1.0 - c * np.cos(edges[..., :-1, None] + half * (1.0 + nodes))
    integral = np.sum(half * weights * np.exp(-gamma[..., None, None] * a) / a, axis=(-2, -1))
    ser = math.sin(math.pi / cfg.psk_order) / math.pi * integral
    return float(ser) if ser.ndim == 0 else ser
