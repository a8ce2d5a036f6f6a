"""Online dominant-subspace trackers for streams of complex vectors.

Two trackers are provided: a deflation-based RLS tracker that extracts
eigenvectors sequentially with a forgetting factor, and an Oja-style
stochastic update with an exact closed-form orthonormalization. Both can be
warm-started from a short batch via a thin SVD of the batch's sample block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import _fix_phases

EIGVAL_FLOOR = 1e-12
PROJ_NORM_FLOOR = 1e-24


def init_from_samples(samples, m: int):
    """Warm-start basis from a thin SVD of a short batch.

    Returns (w, lam): the m dominant left singular vectors of the n x K block
    R = [r_1 ... r_K], which are the eigenvectors of (1/K) R R^H, and their
    eigenvalues s^2 / K clamped below at a small floor. When m > K, the
    columns beyond the K samples complete the basis orthonormally, with lam
    at the floor. A degenerate (all-zero) batch falls back to the canonical
    basis.
    """
    r = np.asarray(samples, dtype=complex).T  # one sample per column
    if r.ndim != 2 or r.shape[1] < 1:
        raise ValueError("need at least one sample")
    n, k = r.shape
    if not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}], got {m}")
    u, s, _ = np.linalg.svd(r, full_matrices=m > k)
    lam = np.full(m, EIGVAL_FLOOR)
    lam[: min(m, k)] = np.maximum(s[:m] ** 2 / k, EIGVAL_FLOOR)
    if lam[0] <= EIGVAL_FLOOR:
        w = np.eye(n, dtype=complex)[:, :m]
    else:
        w = _fix_phases(u[:, :m])
    return w, lam


@dataclass
class PastdTracker:
    """Deflation RLS tracker: per-vector eigenpair updates with forgetting.

    Columns of w are the current eigenvector estimates; lam holds the
    exponentially weighted eigenvalue estimates. Columns are not kept exactly
    unit norm step to step; basis() renormalizes on extraction.
    """

    w: np.ndarray
    lam: np.ndarray
    beta: float = 0.95
    step_count: int = 0

    def __post_init__(self):
        self.w = np.array(self.w, dtype=complex)
        self.lam = np.array(self.lam, dtype=float)
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if np.any(self.lam <= 0.0):
            raise ValueError("lam entries must be strictly positive")
        if self.w.shape[1] != self.lam.shape[0]:
            raise ValueError("w and lam disagree on subspace dimension")

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def step(self, r) -> "PastdTracker":
        x = np.asarray(r, dtype=complex)
        if x.shape != (self.dim,):
            raise ValueError(f"sample has shape {x.shape}, expected ({self.dim},)")
        for m in range(self.w.shape[1]):
            u = self.w[:, m]
            y = np.vdot(u, x)
            self.lam[m] = self.beta * self.lam[m] + abs(y) ** 2
            u += (x - u * y) * (np.conj(y) / self.lam[m])
            x = x - u * y  # deflate with the updated vector
        self.step_count += 1
        return self

    def basis(self) -> np.ndarray:
        norms = np.linalg.norm(self.w, axis=0)
        return self.w / norms


@dataclass
class OojaTracker:
    """Oja update plus exact rank-1 orthonormalization of the basis.

    sign=+1 tracks the principal subspace, sign=-1 the minor subspace; the
    orthonormalizing correction is the same for both because the residual is
    orthogonal to the current basis.

    w is a view of the first m columns of a Fortran-ordered work buffer whose
    last column holds the current sample, so that one matrix-vector product
    gives both W^H x and |x|^2, and another gives the update direction. A
    step costs a fixed handful of numpy calls into preallocated arrays. Update
    w in place; rebinding it detaches it from the buffer.
    """

    w: np.ndarray
    delta: float = 0.01
    sign: int = 1
    step_count: int = 0
    _work: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=complex)
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        n, m = w.shape
        buf = np.zeros((n, m + 1), dtype=complex, order="F")
        buf[:, :m] = w
        self.w = buf[:, :m]
        g = np.empty(m + 1, dtype=complex)  # [conj(v); |x|^2], v = W^H x
        u = np.empty(m + 1, dtype=complex)  # update direction's coefficients on buf
        self._work = (
            buf,
            buf[:, m],  # sample slot
            buf.T[:m],  # W^T, C-contiguous, so the rank-1 update runs along rows
            np.empty(n, dtype=complex),  # conj(x)
            g,
            u,
            g[:m],
            u[:m],
            g[:m, None],
            np.empty(n, dtype=complex),  # update direction
            np.empty((m, n), dtype=complex),  # rank-1 update of W^T
        )

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def step(self, r) -> "OojaTracker":
        x = np.asarray(r, dtype=complex)
        buf, slot, wt, xc, g, u, vc, v, vc_col, a, outer = self._work
        m, n = wt.shape
        if x.shape != (n,):
            raise ValueError(f"sample has shape {x.shape}, expected ({n},)")
        slot[...] = x
        np.conjugate(x, xc)
        xc.dot(buf, g)
        np.conjugate(g, u)
        nv2 = float(vc.dot(v).real)
        if nv2 < PROJ_NORM_FLOOR:
            # update degenerates to the identity map as v -> 0
            self.step_count += 1
            return self
        # |p|^2 for p = x - W v, by Pythagoras since W has orthonormal columns
        np2 = max(g.item(m).real - nv2, 0.0)
        phi = 1.0 / math.sqrt(1.0 + self.delta**2 * np2 * nv2)
        c = self.sign * self.delta * phi
        tau = (phi - 1.0) / nv2
        # W (I + tau v v^H) + c p v^H = W + ((tau - c) W v + c x) v^H
        u *= complex(tau - c)
        u[m] = c
        buf.dot(u, a)
        np.multiply(vc_col, a, out=outer)
        wt += outer
        self.step_count += 1
        return self

    def basis(self) -> np.ndarray:
        return self.w.copy()


def tracker_run(tracker, stream):
    """Fold the per-sample update over a stream, in order."""
    for r in stream:
        tracker.step(r)
    return tracker


def extract_basis(tracker) -> np.ndarray:
    """Current subspace estimate, with unit-norm columns."""
    return tracker.basis()
