"""Two-phase training protocol estimating the dominant channel singular vectors.

Phase (a): the base station probes with antipodal random vectors and the
mobile tracks the left singular subspace of the received stream. Phase (b):
the mobile transmits through its estimated precoder and the base station
tracks the right singular subspace. Both phases run either fully digital or
behind fixed analog steering-grid combiners (hybrid mode), in which case the
trackers operate entirely in the reduced RF-chain dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .channel import ArrayConfig, ChannelRealization, steering_matrix
from .tracking import OojaTracker, PastdTracker, extract_basis, init_from_samples, tracker_run

MODE_FD = "fd"
MODE_HY = "hy"

TRACKER_PASTD = "pastd"
TRACKER_OOJA = "ooja"


@dataclass(frozen=True)
class TrackerSpec:
    """Which tracker the protocol runs, with its hyperparameters."""

    kind: str = TRACKER_PASTD
    beta: float = 0.95
    delta: float = 0.01

    def __post_init__(self):
        if self.kind not in (TRACKER_PASTD, TRACKER_OOJA):
            raise ValueError(f"unknown tracker kind {self.kind!r}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")


@dataclass(frozen=True)
class ProtocolConfig:
    p_bs: int = 30
    p_ms: int = 30
    warmup: int = 10
    m: int = 1
    mode: str = MODE_FD
    n_rf_bs: int = 20
    n_rf_ms: int = 10
    tracker: TrackerSpec = field(default_factory=TrackerSpec)

    def __post_init__(self):
        if not 1 <= self.warmup < min(self.p_bs, self.p_ms):
            raise ValueError(
                f"warmup must satisfy 1 <= warmup < min(p_bs, p_ms) = {min(self.p_bs, self.p_ms)}, "
                f"got {self.warmup}"
            )
        if self.m < 1:
            raise ValueError("m must be positive")
        if self.mode not in (MODE_FD, MODE_HY):
            raise ValueError(f"mode must be 'fd' or 'hy', got {self.mode!r}")
        if self.mode == MODE_HY and self.m > min(self.n_rf_bs, self.n_rf_ms):
            raise ValueError("hybrid mode requires m <= min(n_rf_bs, n_rf_ms)")


@dataclass(frozen=True)
class HybridFrontEnd:
    """Fixed analog combiners: steering vectors on uniform angle grids."""

    d_bs_rf: np.ndarray   # N_BS x N_BS^RF
    d_ms_rf: np.ndarray   # N_MS x N_MS^RF


@dataclass(frozen=True)
class EstimatedBeamformers:
    """Final beamformers with unit-norm columns; in hybrid mode each is D_RF d_bb / ||D_RF d_bb||."""

    d_ms: np.ndarray
    d_bs: np.ndarray


def build_rf_grid(array: ArrayConfig, n_rf: int) -> np.ndarray:
    """Steering-vector columns on the uniform grid -pi/2 + pi*(i-1)/n_rf."""
    if not 1 <= n_rf <= array.n_elements:
        raise ValueError(f"n_rf must be in [1, {array.n_elements}], got {n_rf}")
    angles = -math.pi / 2 + math.pi * np.arange(n_rf) / n_rf
    return steering_matrix(array, angles)


def make_front_end(bs: ArrayConfig, ms: ArrayConfig, cfg: ProtocolConfig) -> HybridFrontEnd:
    return HybridFrontEnd(
        d_bs_rf=build_rf_grid(bs, cfg.n_rf_bs),
        d_ms_rf=build_rf_grid(ms, cfg.n_rf_ms),
    )


def _lift_and_normalize(d_rf, d_bb):
    """d_rf @ d_bb (d_bb itself if d_rf is None) with unit-norm columns."""
    full = np.asarray(d_bb, dtype=complex) if d_rf is None else d_rf @ d_bb
    norms = np.linalg.norm(full, axis=-2, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("zero beamformer column cannot be normalized")
    return full / norms


class ProbeBlock(NamedTuple):
    """One phase's draws for a stack of streams: +-1 signs (..., P, n_tx) and the receiver noise (..., P, n_rx)."""

    signs: np.ndarray
    noise: np.ndarray


def draw_probes(rngs, cfg: ProtocolConfig, n_bs: int, n_ms: int, sigma2_n: float) -> tuple:
    """Each generator's (phase a, phase b) blocks of p_bs x (n_bs, n_ms) then p_ms x (m, n_bs): +-1 signs, then
    real and imaginary unit noise, stored once as sqrt(sigma2_n / 2) (re + j im). The signs are int8, as a chunk
    of trials holds its blocks through every variant."""
    blocks, scale = [], math.sqrt(sigma2_n / 2.0)
    for n_probes, n_tx, n_rx in ((cfg.p_bs, n_bs, n_ms), (cfg.p_ms, cfg.m, n_bs)):
        signs = np.empty((len(rngs), n_probes, n_tx), dtype=np.int8)
        noise = np.empty((len(rngs), n_probes, n_rx), dtype=complex)
        unit = np.empty((2, n_probes, n_rx))
        for i, gen in enumerate(rngs):  # drawn in place: stacking drawn blocks costs as much again
            signs[i] = gen.integers(0, 2, size=(n_probes, n_tx))
            gen.standard_normal(out=unit)  # the real parts, then the imaginary parts
            np.multiply(unit[0], scale, out=noise[i].real)
            np.multiply(unit[1], scale, out=noise[i].imag)
        signs *= 2
        signs -= 1
        blocks.append(ProbeBlock(signs, noise))
    return tuple(blocks)


def _received(link, n_probes, block: ProbeBlock, power) -> np.ndarray:
    """The rows R = sqrt(rho) S link^T + N from probing link (n_rx x n_tx) with block's signs S and noise N at
    power rho. block is a drawn ProbeBlock of a stack of streams, only read; each stream has a link of its own
    or a broadcast one, and power is one scalar or one per stream."""
    power = np.asarray(power, dtype=float)
    if not np.all(np.isfinite(power) & (power > 0)):
        raise ValueError("power must be finite and > 0")
    if block.signs.shape[-2] != n_probes:
        raise ValueError(f"probe block has {block.signs.shape[-2]} probes, expected {n_probes}")
    # S is real, so S link^T is one real product on the interleaved real and imaginary parts of link^T
    link_t = np.ascontiguousarray(np.swapaxes(link, -1, -2)).view(np.float64)
    parts = np.matmul(block.signs, link_t)
    parts *= np.sqrt(power)[..., None, None]
    rows = parts.view(complex)
    rows += block.noise
    return rows


def _warm_start(r, d_rf, cfg: ProtocolConfig) -> tuple:
    """(rows, w0, lam0): r combined as r conj(d_rf) (r if d_rf is None) and its warm start."""
    r = r if d_rf is None else r @ d_rf.conj()
    return (r, *init_from_samples(r[..., : cfg.warmup, :], cfg.m))


def _track(r, w0, lam0, cfg: ProtocolConfig) -> np.ndarray:
    """Track the rows of r after cfg.warmup from (w0, lam0), which the trackers copy."""
    spec = cfg.tracker
    if spec.kind == TRACKER_PASTD:
        tracker = PastdTracker(w=w0, lam=lam0, beta=spec.beta)
    else:
        tracker = OojaTracker(w=w0, delta=spec.delta)
    tracker_run(tracker, np.moveaxis(r[..., cfg.warmup :, :], -2, 0))
    return extract_basis(tracker)


def _combiners(cfg: ProtocolConfig, front: HybridFrontEnd | None):
    """(MS, BS) analog combiners: (None, None) fully digital."""
    if cfg.mode == MODE_FD:
        return None, None
    if front is None:
        raise ValueError("hybrid mode requires a HybridFrontEnd")
    return front.d_ms_rf, front.d_bs_rf


def run_phase_a(chan: ChannelRealization, cfgs: tuple, front: HybridFrontEnd | None, block: ProbeBlock, power=1.0):
    """Downlink probing with phase (a)'s drawn block at power, a scalar or one per stream, for a tuple of
    configs that differ only in mode and tracker; returns each config's tracked left-subspace basis, with
    the block's leading (stream) axes, against which chan.h's broadcast. Full antenna dimension in FD
    mode, RF-chain dimension in hybrid mode. The rows are formed once and warm-started once per mode."""
    if any(replace(c, mode=cfgs[0].mode, tracker=cfgs[0].tracker) != cfgs[0] for c in cfgs[1:]):
        raise ValueError("configs probed together may differ only in mode and tracker")
    r = _received(chan.h, cfgs[0].p_bs, block, power)
    modes = {c.mode: c for c in cfgs}  # a warm start reads nothing else in which they differ
    starts = {mode: _warm_start(r, _combiners(c, front)[0], c) for mode, c in modes.items()}
    return tuple(_track(*starts[c.mode], c) for c in cfgs)


def run_phase_b(chan: ChannelRealization, d_ms: np.ndarray, cfg: ProtocolConfig, front: HybridFrontEnd | None,
                block: ProbeBlock, power=1.0) -> np.ndarray:
    """Uplink probing through the estimated precoder d_ms, a (..., n_ms, m) stack, with phase (b)'s
    drawn block; returns the tracked right basis. block, power and chan.h as in run_phase_a."""
    n_ms, n_bs = chan.h.shape[-2:]
    if d_ms.shape[-2:] != (n_ms, cfg.m):
        raise ValueError(f"d_ms has shape {d_ms.shape}, expected ({n_ms}, {cfg.m})")
    r = _received(chan.h.conj().mT @ d_ms, cfg.p_ms, block, power)
    return _track(*_warm_start(r, _combiners(cfg, front)[1], cfg), cfg)


def run_protocol(chan: ChannelRealization, cfg, front: HybridFrontEnd | None, sigma2_n: float, probes, power=1.0):
    """Run both phases and return unit-column beamformers; hybrid mode needs a front end.

    probes is one Generator, from which draw_probes draws one stream's blocks at noise power sigma2_n,
    or the (phase a, phase b) blocks that draw_probes drew for a stack of streams, which hold their
    noise, each stream at its own power: every beamformer gains the stack's leading axes, against
    which chan.h's broadcast. A tuple of configs that differ only in mode and tracker shares phase (a),
    as run_phase_a does, and gives a tuple of beamformers.
    """
    cfgs = cfg if isinstance(cfg, tuple) else (cfg,)
    if isinstance(probes, np.random.Generator):
        if chan.h.ndim > 2 or np.ndim(power) > 0:
            raise ValueError("one Generator probes one stream: draw a stack's blocks with draw_probes")
        n_ms, n_bs = chan.h.shape
        probes = [ProbeBlock(*(a[0] for a in b)) for b in draw_probes([probes], cfgs[0], n_bs, n_ms, sigma2_n)]
    beams = []
    for c, basis in zip(cfgs, run_phase_a(chan, cfgs, front, probes[0], power)):
        d_ms_rf, d_bs_rf = _combiners(c, front)
        d_ms = _lift_and_normalize(d_ms_rf, basis)
        d_bs = _lift_and_normalize(d_bs_rf, run_phase_b(chan, d_ms, c, front, probes[1], power))
        beams.append(EstimatedBeamformers(d_ms=d_ms, d_bs=d_bs))
    return tuple(beams) if isinstance(cfg, tuple) else beams[0]
