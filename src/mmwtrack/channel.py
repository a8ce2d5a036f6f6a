"""Clustered mmWave MIMO channel generation with an exact SVD oracle.

The channel is a sum of rank-1 ray contributions over scattering clusters,
for uniform linear arrays at both link ends; the optional LOS path is one
more ray.
Every realization carries its exact singular value decomposition so that
estimation algorithms can be scored against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The link budget is fixed: 72 dB + 29.2 log10(d) of path loss at d = 50 m, and
# -174 dBm/Hz of thermal noise over 500 MHz with a 3 dB noise figure. Each SNR
# point sets the transmit power from ||H||^2 and the noise power, so both
# constants cancel out of every probe, tracker step and metric; they act only
# through OOJA's step, which is not scaled to the sample power.
PATH_GAIN = 10.0 ** (-(72.0 + 10.0 * 2.92 * math.log10(50.0)) / 10.0)
NOISE_VARIANCE = 10.0 ** ((-174.0 - 30.0) / 10.0) * 500e6 * 10.0 ** (3.0 / 10.0)


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array: element count and spacing in wavelengths."""

    n_elements: int
    spacing: float = 0.5

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError(f"n_elements must be >= 1, got {self.n_elements}")
        if self.spacing <= 0:
            raise ValueError(f"spacing must be > 0, got {self.spacing}")


@dataclass(frozen=True)
class ChannelParams:
    """Scenario parameters for the clustered channel model."""

    n_clusters: int = 5
    rays_per_cluster: tuple = (10, 10, 10, 10, 10)
    los_probability: float = 0.0
    cluster_angle_spread_deg: float = 5.0

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if len(self.rays_per_cluster) != self.n_clusters:
            raise ValueError(
                f"rays_per_cluster has {len(self.rays_per_cluster)} entries "
                f"for {self.n_clusters} clusters"
            )
        if any(n < 1 for n in self.rays_per_cluster):
            raise ValueError("rays_per_cluster entries must be positive")
        if not 0.0 <= self.los_probability <= 1.0:
            raise ValueError(f"los_probability must be in [0, 1], got {self.los_probability}")
        if self.cluster_angle_spread_deg < 0:
            raise ValueError("cluster_angle_spread_deg must be >= 0")


@dataclass(frozen=True)
class RayParams:
    """One propagation path: complex gain, attenuation and endpoint angles."""

    gain: complex
    attenuation_linear: float
    aod_bs_rad: float
    aoa_ms_rad: float

    def __post_init__(self):
        if self.attenuation_linear < 0:
            raise ValueError("attenuation_linear must be >= 0")


@dataclass(frozen=True)
class ChannelRealization:
    """Channel matrix, its exact SVD and the ray geometry that produced it."""

    h: np.ndarray        # N_MS x N_BS
    u: np.ndarray        # N_MS x r, left singular vectors
    sigma: np.ndarray    # length r, descending
    v: np.ndarray        # N_BS x r, right singular vectors
    rays: tuple          # every path, the LOS path (when present) last


def steering_matrix(array: ArrayConfig, angles_rad) -> np.ndarray:
    """Unit-norm ULA response vectors as columns, one per angle of the sequence angles_rad."""
    for angle in angles_rad:
        if not -math.pi / 2 <= angle <= math.pi / 2:
            raise ValueError(f"angle_rad must lie in [-pi/2, pi/2], got {angle}")
    n = array.n_elements
    k = np.arange(n)[:, None]
    # math.sin per angle: np.sin may round apart from it, and these bits reach the records
    phase = np.array([-2.0 * math.pi * array.spacing * math.sin(a) for a in angles_rad])
    return np.exp(1j * phase * k) / math.sqrt(n)


def steering_vector(array: ArrayConfig, angle_rad: float) -> np.ndarray:
    """Unit-norm ULA response vector at the given azimuth angle."""
    return steering_matrix(array, (angle_rad,))[:, 0]


def _fix_phases(u: np.ndarray, v: np.ndarray | None = None):
    """Rotate each column of u so its largest-magnitude entry is real positive.

    u may be a stack (..., n, m). The first of tied largest entries is the
    pivot, and an all-zero column is left as it is. When v is given, its matching
    column is rotated by the same unit scalar, leaving u @ diag(s) @ v^H unchanged.
    """
    pivot = np.take_along_axis(u, np.argmax(np.abs(u), axis=-2)[..., None, :], axis=-2)[..., 0, :]
    pivot_mag = np.hypot(pivot.real, pivot.imag)  # the scalar abs; np.abs of arrays rounds apart
    rot = np.conj(pivot) / np.where(pivot_mag == 0.0, 1.0, pivot_mag)
    rot[pivot_mag == 0.0] = 1.0
    # in place column by column: numpy rounds a complex product on a strided
    # column apart from one on a contiguous array, and these bits reach the records
    u = u.copy()
    v = v.copy() if v is not None else None
    for col in range(u.shape[-1]):
        u[..., col] *= rot[..., col, None]
        if v is not None:
            v[..., col] *= rot[..., col, None]
    return u if v is None else (u, v)


def dominant_svd(h: np.ndarray, m: int):
    """The m dominant singular triplets of h, with a deterministic phase.

    Returns (u, sigma, v) with sigma descending; each left vector's largest
    entry is rotated to be real positive and the right vector follows.
    """
    h = np.asarray(h)
    if not 1 <= m <= min(h.shape):
        raise ValueError(f"m must be in [1, {min(h.shape)}], got {m}")
    u_full, s_full, vh_full = np.linalg.svd(h, full_matrices=False)
    u = u_full[:, :m]
    v = vh_full[:m].conj().T
    u, v = _fix_phases(u, v)
    return u, s_full[:m].copy(), v


def assemble_channel(bs: ArrayConfig, ms: ArrayConfig, rays, gamma: float) -> ChannelRealization:
    """Build a realization as the superposition gamma * sum of gain * sqrt(attenuation) * a_ms a_bs^H.

    Every path, the LOS path included, is one ray of the list.
    """
    a_ms = steering_matrix(ms, [r.aoa_ms_rad for r in rays])
    a_bs = steering_matrix(bs, [r.aod_bs_rad for r in rays])
    weights = np.array([r.gain * math.sqrt(r.attenuation_linear) for r in rays])
    h = gamma * (a_ms * weights) @ a_bs.conj().T  # all zeros for no rays
    u, sigma, v = dominant_svd(h, min(h.shape))
    return ChannelRealization(h=h, u=u, sigma=sigma, v=v, rays=tuple(rays))


def sample_channel(
    params: ChannelParams,
    bs: ArrayConfig,
    ms: ArrayConfig,
    rng: np.random.Generator,
) -> ChannelRealization:
    """Draw one clustered channel realization.

    Cluster central angles are uniform on [-pi/2, pi/2] at both ends; per-ray
    angles add a bounded uniform offset (clipped back into the visible range).
    Ray gains are standard circular complex Gaussians. The LOS path, present
    with probability los_probability, is one more ray, appended last, with a
    uniform phase and uniform angles; every ray carries the attenuation PATH_GAIN.
    """
    total_rays = sum(params.rays_per_cluster)
    gamma = math.sqrt(bs.n_elements * ms.n_elements / total_rays)
    spread = math.radians(params.cluster_angle_spread_deg)

    # rng.uniform(lo, hi) is lo + (hi - lo) rng.random(): the same doubles, from fewer and cheaper calls
    rays = []
    for n_ray in params.rays_per_cluster:
        center_bs, center_ms = (-math.pi / 2 + math.pi * u for u in rng.random(2).tolist())
        for _ in range(n_ray):
            off_bs, off_ms = (-spread + 2.0 * spread * u for u in rng.random(2).tolist())
            aod = min(max(center_bs + off_bs, -math.pi / 2), math.pi / 2)
            aoa = min(max(center_ms + off_ms, -math.pi / 2), math.pi / 2)
            g_re, g_im = rng.standard_normal(2).tolist()
            gain = (g_re + 1j * g_im) / math.sqrt(2.0)
            rays.append(RayParams(gain=gain, attenuation_linear=PATH_GAIN, aod_bs_rad=aod, aoa_ms_rad=aoa))

    # the four LOS draws are made in every trial, so RNG use does not depend on los_probability
    u_los, u_phase, u_aoa, u_aod = rng.random(4).tolist()
    if u_los < params.los_probability:  # amplitude sqrt(N_BS N_MS PATH_GAIN) once scaled by gamma
        los_gain = np.exp(1j * (2.0 * math.pi * u_phase)) * math.sqrt(total_rays)
        rays.append(RayParams(gain=los_gain, attenuation_linear=PATH_GAIN, aod_bs_rad=-math.pi / 2 + math.pi * u_aod,
                              aoa_ms_rad=-math.pi / 2 + math.pi * u_aoa))
    return assemble_channel(bs, ms, rays, gamma)
