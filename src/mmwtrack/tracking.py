"""Online dominant-subspace trackers for streams of complex vectors.

Two trackers are provided: a deflation-based RLS tracker that extracts
eigenvectors sequentially with a forgetting factor, and an Oja-style
stochastic update with an exact closed-form orthonormalization. Both can be
warm-started from a short batch via the eigenpairs of its K x K Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import _fix_phases

EIGVAL_FLOOR = 1e-12
PROJ_NORM_FLOOR = 1e-24


def init_from_samples(samples, m: int):
    """Warm-start basis from the K x K Gram matrix of a short batch (the method of snapshots).

    samples is a (K, n) block or a stack (..., K, n). Per block, returns (w, lam): the m dominant
    eigenvectors of (1/K) R R^H for the n x K block R = [r_1 ... r_K], as u = Rv / |Rv| from the
    eigenpairs (s^2, v) of R^H R, and lam = s^2 / K clamped below at a small floor. Where Rv is
    rounding noise, with the smallest kept s^2 at most sqrt(eps) s_1^2, and where m > K, the block
    takes the thin SVD of R, whose columns beyond K complete the basis with lam at the floor. An
    all-zero block falls back to the canonical basis.
    """
    r = np.asarray(samples, dtype=complex)
    if r.ndim < 2 or r.shape[-2] < 1:
        raise ValueError("need at least one sample")
    *lead, k, n = r.shape
    if not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}], got {m}")
    r = r.reshape(-1, k, n)
    rt = np.swapaxes(r, -1, -2)  # R per block
    u, s2 = np.empty((len(r), n, m), dtype=complex), np.zeros((len(r), m))
    by_svd = np.full(len(r), m > k)
    if m <= k:
        evals, v = np.linalg.eigh(np.conj(r) @ rt)  # of R^H R, ascending
        s2[...], v = evals[:, : -m - 1 : -1], v[..., : -m - 1 : -1]
        by_svd = ~(s2[:, -1] > math.sqrt(np.finfo(float).eps) * s2[:, 0])  # NaN too
        rv = rt[~by_svd] @ v[~by_svd]
        u[~by_svd] = rv / np.linalg.norm(rv, axis=-2, keepdims=True)
    if np.any(by_svd):
        u_svd, s, _ = np.linalg.svd(rt[by_svd], full_matrices=m > k)
        u[by_svd], s2[by_svd, : min(m, k)] = u_svd[..., :m], s[:, :m] ** 2
    lam = np.maximum(s2 / k, EIGVAL_FLOOR)
    w = _fix_phases(u)
    w[lam[:, 0] <= EIGVAL_FLOOR] = np.eye(n, dtype=complex)[:, :m]
    return w.reshape(*lead, n, m), lam.reshape(*lead, m)


@dataclass
class PastdTracker:
    """Deflation RLS tracker: per-vector eigenpair updates with forgetting.

    Columns of w are the current eigenvector estimates; lam holds the
    exponentially weighted eigenvalue estimates. Columns are not kept exactly
    unit norm step to step; basis() renormalizes on extraction. w of shape
    (S, n, m) with lam (S, m) tracks S streams at once, one sample each a step.
    """

    w: np.ndarray
    lam: np.ndarray
    beta: float = 0.95

    def __post_init__(self):
        self.w = np.array(self.w, dtype=complex)
        self.lam = np.array(self.lam, dtype=float)
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if np.any(self.lam <= 0.0):
            raise ValueError("lam entries must be strictly positive")
        if self.w.shape[:-2] + self.w.shape[-1:] != self.lam.shape:
            raise ValueError("w and lam disagree on subspace dimension")

    def step(self, r) -> "PastdTracker":
        x = np.array(r, dtype=complex)  # deflated in place
        if x.shape != self.w.shape[:-1]:
            raise ValueError(f"sample has shape {x.shape}, expected {self.w.shape[:-1]}")
        for m in range(self.w.shape[-1]):
            u = self.w[..., m]
            lam = self.lam[..., m, None]
            y = np.vecdot(u, x)[..., None]  # u^H x per stream
            lam *= self.beta
            lam += abs(y) ** 2
            u += (x - u * y) * (np.conj(y) / lam)
            x -= u * y  # deflate with the updated vector
        return self

    def basis(self) -> np.ndarray:
        return self.w / np.linalg.norm(self.w, axis=-2, keepdims=True)


@dataclass
class OojaTracker:
    """Oja update plus exact rank-1 orthonormalization of the basis.

    sign=+1 tracks the principal subspace, sign=-1 the minor subspace; the
    orthonormalizing correction is the same for both because the residual is
    orthogonal to the current basis.

    w of shape (..., n, m) tracks a stack of streams at once. w is a view into
    a buffer holding W^T and the current sample as one more row, per stream, so
    that one batched matrix-vector product gives W^H x and |x|^2 for every
    stream and another gives every update direction. One stream takes the
    scalars in between as Python floats, which cost less than numpy calls; a
    stack takes them as arrays, in the same order of operations.
    Update w in place; rebinding it detaches it from the buffer.
    """

    w: np.ndarray
    delta: float = 0.01
    sign: int = 1
    _work: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=complex)
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        *lead, n, m = w.shape
        buf = np.zeros((*lead, m + 1, n), dtype=complex)
        wt = buf[..., :m, :]
        wt[...] = np.swapaxes(w, -1, -2)
        self.w = np.swapaxes(wt, -1, -2)
        g = np.empty((*lead, m + 1), dtype=complex)  # [conj(v); |x|^2], v = W^H x
        a = np.empty((*lead, n), dtype=complex)  # update direction
        self._work = (
            buf,
            buf[..., m, :],  # sample slot
            wt,
            np.swapaxes(buf, -1, -2),
            np.empty_like(a),  # conj(x)
            g,
            np.empty_like(g),  # u: the update direction's coefficients on the buffer rows
            g[..., :m, None],
            a,
            a[..., None, :],
            np.empty_like(wt),  # rank-1 update of W^T
            # the same product; for one stream, np.dot costs less per call than a gufunc
            np.matvec if lead else np.dot,
        )

    def step(self, r) -> "OojaTracker":
        x = np.asarray(r, dtype=complex)
        buf, slot, wt, buf_t, xc, g, u, vc_col, a, a_row, outer, mv = self._work
        if x.shape != slot.shape:
            raise ValueError(f"sample has shape {x.shape}, expected {slot.shape}")
        slot[...] = x
        np.conjugate(slot, xc)
        mv(buf, xc, out=g)
        if g.ndim == 1:
            u[...] = self._coefficients(g.tolist())
        else:
            self._stack_coefficients(g, u)
        mv(buf_t, u, out=a)
        np.multiply(vc_col, a_row, out=outer)
        wt += outer
        return self

    def _coefficients(self, row) -> list:
        """u = [(tau - c) v; c] for one stream's row [conj(v); |x|^2]."""
        vc = row[:-1]
        nv2 = 0.0
        for z in vc:
            nv2 += z.real * z.real + z.imag * z.imag
        if nv2 < PROJ_NORM_FLOOR:
            # update degenerates to the identity map as v -> 0
            return [0j] * len(row)
        # |p|^2 for p = x - W v, by Pythagoras since W has orthonormal columns
        np2 = max(row[-1].real - nv2, 0.0)
        phi = 1.0 / math.sqrt(1.0 + self.delta**2 * np2 * nv2)
        c = self.sign * self.delta * phi
        tau = (phi - 1.0) / nv2
        # W (I + tau v v^H) + c p v^H = W + ((tau - c) W v + c x) v^H
        return [(tau - c) * z.conjugate() for z in vc] + [c]

    def _stack_coefficients(self, g, u) -> None:
        """_coefficients for every stream of a stack at once, into u; the same operations in order."""
        vc = g[..., :-1]
        sq = vc.real * vc.real + vc.imag * vc.imag
        nv2 = sq[..., 0]
        for k in range(1, sq.shape[-1]):
            nv2 = nv2 + sq[..., k]
        np2 = np.maximum(g[..., -1].real - nv2, 0.0)
        phi = 1.0 / np.sqrt(1.0 + self.delta**2 * np2 * nv2)
        c = self.sign * self.delta * phi
        degenerate = nv2 < PROJ_NORM_FLOOR  # the identity map there, as for one stream
        tau = (phi - 1.0) / np.where(degenerate, 1.0, nv2)
        np.multiply(np.where(degenerate, 0.0, tau - c)[..., None], np.conj(vc), out=u[..., :-1])
        u[..., -1] = np.where(degenerate, 0.0, c)

    def basis(self) -> np.ndarray:
        return self.w.copy()


def tracker_run(tracker, stream):
    """Fold the per-sample update over a stream, in order; (T, S, n) for a stack."""
    for r in stream:
        tracker.step(r)
    return tracker


def extract_basis(tracker) -> np.ndarray:
    """Current subspace estimate, with unit-norm columns."""
    return tracker.basis()
