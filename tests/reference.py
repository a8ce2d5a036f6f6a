"""A reference trial in plain loops, written to be read rather than to be fast.

It recomputes the records of one trial of `run_experiment` one variant, one SNR
point and one sample at a time, from the same random draws: the channel from
the `(0, trial)` key, and per (SNR point, trial) the `(1, SNR index, trial)`
generator, which draws phase (a)'s probe block and phase (b)'s through the
engine's own `draw_probes`. Everything after the draws is written here from
the equations:

- received sample p: r_p = sqrt(p_t) L s_p + n_p, with L = H in phase (a) and
  L = H^H d_ms in phase (b), seen as D_rf^H r_p behind a hybrid receiver's
  analog combiner D_rf; n_p is the block's noise, which `draw_probes` stores
  as sqrt(sigma2 / 2) (n_re + j n_im);
- warm start: the m leading eigenvectors of the sample covariance of the first
  `warmup` samples by `np.linalg.eigh`, eigenvalues clamped at EIGVAL_FLOOR,
  each column rotated so that its first largest-magnitude entry is real
  positive, and the canonical basis for an all-zero block;
- PASTd: Yang, "Projection approximation subspace tracking", IEEE TSP 1995,
  the deflation recursion for one vector at a time;
- OOJA: Abed-Meraim, Attallah, Chkeif and Hua, "Orthogonal Oja algorithm",
  IEEE SPL 2000: the Oja step W + delta p y^H, orthonormalized as
  W' (W'^H W')^(-1/2), the inverse square root taken by `eigh`;
- scores: eta = |<x, y>| / (||x|| ||y||) against the exact singular vectors,
  the spectral efficiency as the log-det formula, and the DPSK SER as the
  exact error probability of differential K-PSK at the link's SNR (Pawula,
  Rice and Roberts, IEEE Trans. Commun. 1982), integrated by `mpmath.quad`.

It does not cover a warm start with fewer samples than m.
"""

import math

import mpmath
import numpy as np

from mmwtrack.channel import NOISE_VARIANCE, sample_channel
from mmwtrack.protocol import ProbeBlock, draw_probes
from mmwtrack.tracking import EIGVAL_FLOOR


def warm_start(rows, m):
    k, n = len(rows), len(rows[0])
    cov = np.zeros((n, n), dtype=complex)
    for r in rows:
        cov += np.outer(r, r.conj()) / k
    evals, evecs = np.linalg.eigh(cov)  # ascending
    lam = [max(evals[n - 1 - i], EIGVAL_FLOOR) for i in range(m)]
    if lam[0] <= EIGVAL_FLOOR:
        return np.eye(n, dtype=complex)[:, :m], lam
    w = np.empty((n, m), dtype=complex)
    for i in range(m):
        col = evecs[:, n - 1 - i]
        pivot = col[int(np.argmax(np.abs(col)))]
        w[:, i] = col * (pivot.conjugate() / abs(pivot))
    return w, lam


def pastd_step(w, lam, r, beta):
    x = r.copy()
    for i in range(w.shape[1]):
        y = np.vdot(w[:, i], x)
        lam[i] = beta * lam[i] + abs(y) ** 2
        e = x - w[:, i] * y
        w[:, i] = w[:, i] + e * (y.conjugate() / lam[i])
        x = x - w[:, i] * y


def ooja_step(w, r, delta):
    y = w.conj().T @ r
    p = r - w @ y
    w_new = w + delta * np.outer(p, y.conj())
    evals, evecs = np.linalg.eigh(w_new.conj().T @ w_new)
    return w_new @ (evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.conj().T)


def probe_and_track(link, block, p_t, d_rf, kind, cfg):
    """One phase: the received samples, the warm start, the tracker; unit-column beams."""
    rows = []
    for p in range(block.signs.shape[0]):
        r = math.sqrt(p_t) * (link @ block.signs[p]) + block.noise[p]
        rows.append(r if d_rf is None else d_rf.conj().T @ r)
    w, lam = warm_start(rows[: cfg.warmup], cfg.multiplexing_order)
    for r in rows[cfg.warmup:]:
        if kind == "pastd":
            pastd_step(w, lam, r, cfg.pastd_beta)
        else:
            w = ooja_step(w, r, cfg.ooja_delta)
    d = w if d_rf is None else d_rf @ w
    return d / np.linalg.norm(d, axis=0)


def eta(x, y):
    return min(abs(np.vdot(x, y)) / (np.linalg.norm(x) * np.linalg.norm(y)), 1.0)


def se_bits(h, d_ms, d_bs, p_t):
    a = d_ms.conj().T @ h @ d_bs
    x = p_t / NOISE_VARIANCE * np.linalg.inv(d_ms.conj().T @ d_ms) @ a @ a.conj().T
    return math.log2(np.linalg.det(np.eye(len(x)) + x).real)


def dpsk_ser(h, d_ms, d_bs, p_t, psk_order):
    """sin(pi/K) / pi int_0^{pi/2} exp(-gamma (1 - c cos t)) / (1 - c cos t) dt, c = cos(pi/K), at
    gamma = p_t g^2 / sigma2 with g = |d_ms^H H d_bs| / ||d_ms||. exp(-gamma (1 - c)) is taken out of the
    integrand, which then falls from 1 at t = 0 over a width 1 / sqrt(gamma c): mpmath.quad gets a
    breakpoint at each doubling of that width."""
    gain = abs(np.vdot(d_ms, h @ d_bs)) / np.linalg.norm(d_ms)
    gamma = mpmath.mpf(p_t * gain**2 / NOISE_VARIANCE)
    c = mpmath.cos(mpmath.pi / psk_order)
    width = 1 / mpmath.sqrt(gamma * c)
    points = [0] + [width * 2**j for j in range(8) if width * 2**j < mpmath.pi / 2] + [mpmath.pi / 2]
    integral = mpmath.quad(lambda t: mpmath.exp(-gamma * c * (1 - mpmath.cos(t))) / (1 - c * mpmath.cos(t)), points)
    return float(mpmath.sin(mpmath.pi / psk_order) / mpmath.pi * mpmath.exp(-gamma * (1 - c)) * integral)


def trial_records(cfg, t) -> dict:
    """{(variant, snr_db): (eta_u, eta_v, se_bits, ser, seed)} of trial t; ser None unless m = 1."""
    chan_rng = np.random.default_rng(np.random.SeedSequence(cfg.master_seed, spawn_key=(0, t)))
    h = sample_channel(cfg.channel, cfg.bs, cfg.ms, chan_rng).h
    n_ms, n_bs = h.shape
    m = cfg.multiplexing_order
    u, _, vh = np.linalg.svd(h)
    h2 = float(np.sum(np.abs(h) ** 2))
    records = {}
    for si, snr_db in enumerate(cfg.snr_grid_db):
        seq = np.random.SeedSequence(cfg.master_seed, spawn_key=(1, si, t))
        rng = np.random.default_rng(seq)
        drawn = draw_probes([rng], cfg.protocol, n_bs, n_ms, NOISE_VARIANCE)
        block_a, block_b = (ProbeBlock(*(a[0] for a in block)) for block in drawn)
        p_t = 10.0 ** (snr_db / 10.0) * n_ms * NOISE_VARIANCE / h2
        for name in cfg.variants:
            if name == "oracle":
                d_ms, d_bs = u[:, :m], vh[:m].conj().T
            else:
                kind, mode = name.split("-")
                rf_ms, rf_bs = (None, None) if mode == "fd" else (cfg.front_end.d_ms_rf, cfg.front_end.d_bs_rf)
                d_ms = probe_and_track(h, block_a, p_t, rf_ms, kind, cfg)
                d_bs = probe_and_track(h.conj().T @ d_ms, block_b, p_t, rf_bs, kind, cfg)
            ser = None if m != 1 else dpsk_ser(h, d_ms[:, 0], d_bs[:, 0], p_t, cfg.psk_order)
            records[(name, snr_db)] = (eta(u[:, 0], d_ms[:, 0]), eta(vh[0].conj(), d_bs[:, 0]),
                                       se_bits(h, d_ms, d_bs, p_t), ser, int(seq.generate_state(1)[0]))
    return records


# pytest is told this module is not a test collection target
__test__ = False
