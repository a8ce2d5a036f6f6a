import math
from dataclasses import replace

import numpy as np
import pytest

from mmwtrack import protocol
from mmwtrack.protocol import ProbeBlock
from mmwtrack import (
    ArrayConfig,
    RayParams,
    TrackerSpec,
    ProtocolConfig,
    assemble_channel,
    build_rf_grid,
    make_front_end,
    normalized_correlation,
    run_phase_a,
    run_phase_b,
    run_protocol,
    steering_vector,
)
from util import capture_streams


def rank1_channel(n_ms=8, n_bs=16, aoa=0.3, aod=-0.5, gain=1.0 + 0.5j):
    ray = RayParams(gain=gain, attenuation_linear=1.0, aod_bs_rad=aod, aoa_ms_rad=aoa)
    return assemble_channel(ArrayConfig(n_bs), ArrayConfig(n_ms), (ray,), gamma=1.0)


def small_cfg(**kw):
    defaults = dict(p_bs=30, p_ms=30, warmup=10, m=1, n_rf_bs=8, n_rf_ms=4)
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def one_stream(cfg, seed, sigma2_n, n_bs=16, n_ms=8):
    """One stream's drawn (phase a, phase b) blocks at noise power sigma2_n, from default_rng(seed)."""
    drawn = protocol.draw_probes([np.random.default_rng(seed)], cfg, n_bs, n_ms, sigma2_n)
    return [ProbeBlock(*(a[0] for a in block)) for block in drawn]


class TestRfGrid:
    def test_single_column_at_edge(self):
        grid = build_rf_grid(ArrayConfig(4), 1)
        np.testing.assert_allclose(grid[:, 0], steering_vector(ArrayConfig(4), -math.pi / 2))

    def test_second_column_broadside(self):
        grid = build_rf_grid(ArrayConfig(4), 2)
        np.testing.assert_allclose(grid[:, 1], [0.5, 0.5, 0.5, 0.5], atol=1e-14)

    def test_large_grid_unit_columns(self):
        grid = build_rf_grid(ArrayConfig(100), 20)
        assert grid.shape == (100, 20)
        np.testing.assert_allclose(np.linalg.norm(grid, axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.diag(grid.conj().T @ grid).real, 1.0, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            build_rf_grid(ArrayConfig(4), 5)
        with pytest.raises(ValueError):
            build_rf_grid(ArrayConfig(4), 0)


class TestPhaseA:
    def test_noiseless_rank1_exact(self):
        chan = rank1_channel()
        cfg = small_cfg()
        (d_ms,) = run_phase_a(chan, (cfg,), None, one_stream(cfg, 0, 0.0)[0])
        assert normalized_correlation(d_ms[:, 0], chan.u[:, 0]) >= 0.999

    def test_zero_channel_fallback_frame(self):
        chan = assemble_channel(ArrayConfig(16), ArrayConfig(8), (), gamma=1.0)
        (d_ms,) = run_phase_a(chan, (small_cfg(m=2),), None, one_stream(small_cfg(m=2), 0, 0.0)[0])
        assert d_ms.shape == (8, 2)
        np.testing.assert_allclose(np.linalg.norm(d_ms, axis=0), 1.0, atol=1e-12)

    def test_hybrid_operates_in_rf_dimension(self):
        chan = rank1_channel()
        cfg = small_cfg(mode="hy")
        front = make_front_end(ArrayConfig(16), ArrayConfig(8), cfg)
        (d_bb,) = run_phase_a(chan, (cfg,), front, one_stream(cfg, 0, 0.0)[0])
        assert d_bb.shape == (cfg.n_rf_ms, 1)

    def test_hybrid_requires_front_end(self):
        with pytest.raises(ValueError):
            run_phase_a(rank1_channel(), (small_cfg(mode="hy"),), None, one_stream(small_cfg(), 0, 0.0)[0])
        with pytest.raises(ValueError, match="HybridFrontEnd"):
            run_protocol(rank1_channel(), small_cfg(mode="hy"), None, 0.0, np.random.default_rng(0))


class TestPhaseB:
    def test_noiseless_rank1_with_exact_precoder(self):
        chan = rank1_channel()
        d_bs = run_phase_b(chan, chan.u[:, :1], small_cfg(), None, one_stream(small_cfg(), 1, 0.0)[1])
        assert normalized_correlation(d_bs[:, 0], chan.v[:, 0]) >= 0.999

    def test_orthogonal_precoder_degenerates_cleanly(self):
        chan = rank1_channel()
        u = chan.u[:, 0]
        # any unit vector orthogonal to u kills the received signal entirely
        e = np.zeros(8, dtype=complex)
        e[0] = 1.0
        d_perp = e - u * np.vdot(u, e)
        d_perp = (d_perp / np.linalg.norm(d_perp))[:, None]
        d_bs = run_phase_b(chan, d_perp, small_cfg(), None, one_stream(small_cfg(), 1, 0.0)[1])
        assert d_bs.shape == (16, 1)
        assert np.all(np.isfinite(d_bs))

    def test_dimension_check(self):
        chan = rank1_channel()
        with pytest.raises(ValueError):
            run_phase_b(chan, np.ones((5, 1)), small_cfg(), None, one_stream(small_cfg(), 0, 0.0)[1])


class TestGridBeamspace:
    """The front end's grid combiners see an on-grid channel in one beamspace entry."""

    def test_rank1_on_grid_peaks_at_matching_beam(self):
        cfg = small_cfg(mode="hy")
        bs, ms = ArrayConfig(64), ArrayConfig(32)
        front = make_front_end(bs, ms, cfg)
        i_ms, i_bs = 2, 5
        theta_ms = -math.pi / 2 + math.pi * i_ms / cfg.n_rf_ms
        theta_bs = -math.pi / 2 + math.pi * i_bs / cfg.n_rf_bs
        h = np.outer(steering_vector(ms, theta_ms), steering_vector(bs, theta_bs).conj())
        h_eff = np.abs(front.d_ms_rf.conj().T @ h @ front.d_bs_rf)
        assert np.unravel_index(np.argmax(h_eff), h_eff.shape) == (i_ms, i_bs)


class TestHybridBeams:
    """A hybrid beam is the unit-norm lift D_RF d_bb / ||D_RF d_bb|| of its baseband beam."""

    def test_canonical_baseband_selects_grid_column(self):
        cfg = small_cfg(mode="hy")
        front = make_front_end(ArrayConfig(16), ArrayConfig(8), cfg)
        e2_ms = np.zeros((cfg.n_rf_ms, 1), dtype=complex)
        e2_ms[2, 0] = 1.0
        e3_bs = np.zeros((cfg.n_rf_bs, 1), dtype=complex)
        e3_bs[3, 0] = 1.0
        d_ms = protocol._lift_and_normalize(front.d_ms_rf, e2_ms)
        d_bs = protocol._lift_and_normalize(front.d_bs_rf, e3_bs)
        np.testing.assert_allclose(d_ms[:, 0], front.d_ms_rf[:, 2], atol=1e-14)
        np.testing.assert_allclose(d_bs[:, 0], front.d_bs_rf[:, 3], atol=1e-14)

    def test_zero_baseband_rejected(self):
        front = make_front_end(ArrayConfig(16), ArrayConfig(8), small_cfg(mode="hy"))
        with pytest.raises(ValueError, match="zero beamformer column"):
            protocol._lift_and_normalize(front.d_ms_rf, np.zeros((4, 1)))

    def test_factorization_invariant(self):
        cfg = small_cfg(mode="hy", m=2)
        front = make_front_end(ArrayConfig(16), ArrayConfig(8), cfg)
        beams = run_protocol(rank1_channel(), cfg, front, 0.1, np.random.default_rng(3))
        # each beam lies in the span of its full-column-rank D_RF: d = D_RF d_bb for d_bb = D_RF^+ d
        for d, d_rf in ((beams.d_ms, front.d_ms_rf), (beams.d_bs, front.d_bs_rf)):
            assert np.linalg.matrix_rank(d_rf) == d_rf.shape[1]
            assert np.linalg.norm(d - d_rf @ (np.linalg.pinv(d_rf) @ d)) < 1e-12
        np.testing.assert_allclose(np.linalg.norm(beams.d_ms, axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(beams.d_bs, axis=0), 1.0, atol=1e-12)


class TestRunProtocol:
    @pytest.mark.parametrize("mode", ["fd", "hy"])
    def test_same_seed_same_beamformers(self, mode):
        chan = rank1_channel()
        cfg = small_cfg(mode=mode)
        front = make_front_end(ArrayConfig(16), ArrayConfig(8), cfg) if mode == "hy" else None
        a = run_protocol(chan, cfg, front, 1e-3, np.random.default_rng(42))
        b = run_protocol(chan, cfg, front, 1e-3, np.random.default_rng(42))
        np.testing.assert_array_equal(a.d_ms, b.d_ms)
        np.testing.assert_array_equal(a.d_bs, b.d_bs)

    @pytest.mark.parametrize("kind", ["pastd", "ooja"])
    def test_noiseless_rank1_both_trackers(self, kind):
        chan = rank1_channel()
        cfg = small_cfg(tracker=TrackerSpec(kind=kind))
        beams = run_protocol(chan, cfg, None, 0.0, np.random.default_rng(5))
        assert normalized_correlation(beams.d_ms[:, 0], chan.u[:, 0]) >= 0.999
        assert normalized_correlation(beams.d_bs[:, 0], chan.v[:, 0]) >= 0.999

    def test_fd_rank_matched_noiseless_recovers_subspaces(self):
        # M equals the channel rank: noiseless samples span exactly that subspace
        rng = np.random.default_rng(6)
        rays = tuple(
            RayParams(
                gain=(rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2),
                attenuation_linear=1.0,
                aod_bs_rad=float(rng.uniform(-1.4, 1.4)),
                aoa_ms_rad=float(rng.uniform(-1.4, 1.4)),
            )
            for _ in range(2)
        )
        chan = assemble_channel(ArrayConfig(16), ArrayConfig(8), rays, gamma=1.0)
        cfg = small_cfg(m=2, p_bs=60, p_ms=60, warmup=20)
        beams = run_protocol(chan, cfg, None, 0.0, np.random.default_rng(7))
        q_u, _ = np.linalg.qr(beams.d_ms)
        q_v, _ = np.linalg.qr(beams.d_bs)
        assert np.linalg.norm(q_u.conj().T @ chan.u[:, :2]) / math.sqrt(2) >= 0.999
        assert np.linalg.norm(q_v.conj().T @ chan.v[:, :2]) / math.sqrt(2) >= 0.999

    def test_oracle_precoder_beats_tracked_precoder_on_eta_v(self):
        rng = np.random.default_rng(8)
        sigma2 = 0.05
        oracle_scores, tracked_scores = [], []
        for seed in range(40):
            chan = rank1_channel(gain=rng.standard_normal() + 1j * rng.standard_normal())
            cfg = small_cfg()
            (d_ms_est,) = run_phase_a(chan, (cfg,), None, one_stream(cfg, 100 + seed, sigma2)[0])
            d_ms_est /= np.linalg.norm(d_ms_est, axis=0)
            block_b = one_stream(cfg, 200 + seed, sigma2)[1]  # both precoders probe with the same draws
            d_bs_t = run_phase_b(chan, d_ms_est, cfg, None, block_b)
            d_bs_o = run_phase_b(chan, chan.u[:, :1], cfg, None, block_b)
            tracked_scores.append(normalized_correlation(d_bs_t[:, 0], chan.v[:, 0]))
            oracle_scores.append(normalized_correlation(d_bs_o[:, 0], chan.v[:, 0]))
        assert np.mean(oracle_scores) >= np.mean(tracked_scores)

    def test_global_phase_rotation_invariance_noiseless(self):
        chan = rank1_channel()
        rotated = assemble_channel(
            ArrayConfig(16),
            ArrayConfig(8),
            (RayParams(
                gain=chan.rays[0].gain * np.exp(1j * 0.77),
                attenuation_linear=1.0,
                aod_bs_rad=chan.rays[0].aod_bs_rad,
                aoa_ms_rad=chan.rays[0].aoa_ms_rad,
            ),),
            gamma=1.0,
        )
        cfg = small_cfg()
        a = run_protocol(chan, cfg, None, 0.0, np.random.default_rng(9))
        b = run_protocol(rotated, cfg, None, 0.0, np.random.default_rng(9))
        eta_a = normalized_correlation(a.d_ms[:, 0], chan.u[:, 0])
        eta_b = normalized_correlation(b.d_ms[:, 0], rotated.u[:, 0])
        assert eta_a == pytest.approx(eta_b, abs=1e-12)

    def test_hybrid_m_bound_enforced(self):
        with pytest.raises(ValueError):
            small_cfg(mode="hy", m=5, n_rf_ms=4)

    def test_warmup_bound_enforced(self):
        with pytest.raises(ValueError):
            small_cfg(warmup=30)

    @pytest.mark.parametrize("scale", [0.0, math.inf, (1.0, math.nan)])
    def test_power_scale_must_be_finite_and_positive(self, scale):
        blocks = protocol.draw_probes([np.random.default_rng(i) for i in range(2)], small_cfg(), 16, 8, 0.1)
        with pytest.raises(ValueError, match="power must be finite and > 0"):
            run_protocol(rank1_channel(), small_cfg(), None, 0.1, blocks, power=scale)

    def test_one_generator_rejects_stacked_powers(self):
        # one Generator draws one stream's blocks; a stack's blocks come from draw_probes
        with pytest.raises(ValueError, match="draw_probes"):
            run_protocol(rank1_channel(), small_cfg(), None, 0.3, np.random.default_rng(0), power=(0.5, 1.0, 2.0))

    def test_one_generator_rejects_stacked_precoders(self):
        # three channels give three precoders, three streams, and each needs its own probe blocks
        chan = rank1_channel()
        stack = replace(chan, h=np.stack([chan.h] * 3))
        with pytest.raises(ValueError, match="draw_probes"):
            run_protocol(stack, small_cfg(), None, 0.3, np.random.default_rng(0))


class TestProbingContract:
    """The tracked stream is R = sqrt(rho) S link^T + sqrt(sigma2/2) N, drawn as blocks."""

    RHO, SIGMA2, SEED = 2.0, 0.1, 11

    def expected_stream(self, link, n_probes, rng):
        s = rng.integers(0, 2, size=(n_probes, link.shape[1])) * 2.0 - 1.0
        re = rng.standard_normal((n_probes, link.shape[0]))
        im = rng.standard_normal((n_probes, link.shape[0]))
        return math.sqrt(self.RHO) * (s @ link.T) + math.sqrt(self.SIGMA2 / 2.0) * (re + 1j * im)

    def test_fd_streams_follow_the_documented_draw_order(self, monkeypatch):
        # one Generator draws phase (a)'s block, then phase (b)'s, and runs as those blocks drawn first
        chan = rank1_channel()
        cfg = small_cfg(p_ms=25)
        streams = capture_streams(monkeypatch)
        beams = run_protocol(chan, cfg, None, self.SIGMA2, np.random.default_rng(self.SEED), power=self.RHO)
        drawn = run_protocol(chan, cfg, None, self.SIGMA2, one_stream(cfg, self.SEED, self.SIGMA2), power=self.RHO)
        assert beams.d_ms.tobytes() == drawn.d_ms.tobytes() and beams.d_bs.tobytes() == drawn.d_bs.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(streams[:2], streams[2:], strict=True))
        rng = np.random.default_rng(self.SEED)
        phase_a = self.expected_stream(chan.h, 30, rng)
        phase_b = self.expected_stream(chan.h.conj().T @ beams.d_ms, 25, rng)
        np.testing.assert_allclose(streams[0], phase_a, rtol=1e-12)
        np.testing.assert_allclose(streams[1], phase_b, rtol=1e-12)

    def test_hybrid_stream_is_fd_stream_behind_the_combiner(self, monkeypatch):
        chan = rank1_channel()
        fd = small_cfg()
        hy = small_cfg(mode="hy")
        front = make_front_end(ArrayConfig(16), ArrayConfig(8), hy)
        block_a = one_stream(fd, self.SEED, self.SIGMA2)[0]
        streams = capture_streams(monkeypatch)
        run_phase_a(chan, (fd,), None, block_a, self.RHO)
        run_phase_a(chan, (hy,), front, block_a, self.RHO)
        assert streams[1].shape == (30, hy.n_rf_ms)
        np.testing.assert_allclose(streams[1], streams[0] @ front.d_ms_rf.conj(), rtol=1e-12)


class TestStackedStreams:
    """Blocks drawn from S generators run stacked at S powers; each stream equals its own run."""

    POWERS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

    @staticmethod
    def three_ray_channel():
        rng = np.random.default_rng(12)
        rays = tuple(
            RayParams(
                gain=(rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2),
                attenuation_linear=1.0,
                aod_bs_rad=float(rng.uniform(-1.4, 1.4)),
                aoa_ms_rad=float(rng.uniform(-1.4, 1.4)),
            )
            for _ in range(3)
        )
        return assemble_channel(ArrayConfig(16), ArrayConfig(8), rays, gamma=1.0)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("mode", ["fd", "hy"])
    @pytest.mark.parametrize("kind", ["pastd", "ooja"])
    def test_stack_equals_one_run_per_stream(self, kind, mode, m):
        chan = self.three_ray_channel()
        cfg = small_cfg(mode=mode, m=m, tracker=TrackerSpec(kind=kind, delta=0.3))
        front = make_front_end(ArrayConfig(16), ArrayConfig(8), cfg) if mode == "hy" else None
        seeds = range(20, 27)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        stacked = run_protocol(chan, cfg, front, 0.3, protocol.draw_probes(rngs, cfg, 16, 8, 0.3), self.POWERS)
        assert stacked.d_ms.shape == (7, 8, m) and stacked.d_bs.shape == (7, 16, m)
        for i, (seed, rho) in enumerate(zip(seeds, self.POWERS)):
            one = run_protocol(chan, cfg, front, 0.3, np.random.default_rng(seed), rho)
            np.testing.assert_allclose(stacked.d_ms[i], one.d_ms, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(stacked.d_bs[i], one.d_bs, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("mode", ["fd", "hy"])
    @pytest.mark.parametrize("kind", ["pastd", "ooja"])
    def test_drawn_blocks_equal_the_generators(self, kind, mode, m):
        # drawn blocks are the only stacked input form; running on them leaves them as drawn
        chan = self.three_ray_channel()
        cfg = small_cfg(mode=mode, m=m, tracker=TrackerSpec(kind=kind, delta=0.3), p_ms=25)
        front = make_front_end(ArrayConfig(16), ArrayConfig(8), cfg) if mode == "hy" else None
        seeds = range(40, 47)
        drawn = [np.random.default_rng(seed) for seed in seeds]
        blocks = protocol.draw_probes(drawn, cfg, 16, 8, 0.3)
        before = [a.copy() for block in blocks for a in block]
        from_blocks = run_protocol(chan, cfg, front, 0.3, blocks, self.POWERS)
        assert from_blocks.d_ms.shape == (7, 8, m) and from_blocks.d_bs.shape == (7, 16, m)
        after = [a for block in blocks for a in block]
        assert all(np.array_equal(x, y) for x, y in zip(before, after))  # the blocks are only read

    def test_block_with_the_wrong_probe_count_rejected(self):
        chan = rank1_channel()
        block, _ = protocol.draw_probes([np.random.default_rng(0)], small_cfg(p_bs=20), 16, 8, 0.1)
        with pytest.raises(ValueError, match="20 probes, expected 30"):
            run_phase_a(chan, (small_cfg(),), None, block)
