import math

import mpmath
import numpy as np
import pytest

from mmwtrack import (
    ArrayConfig,
    EstimatedBeamformers,
    MetricConfig,
    ProtocolConfig,
    RayParams,
    assemble_channel,
    dpsk_ser_trial,
    normalized_correlation,
    run_protocol,
    sample_channel,
    spectral_efficiency,
    ChannelParams,
)
from mmwtrack.channel import ChannelRealization
from mmwtrack.evaluation import spectral_efficiency_bound
from util import rand_unitary, scalar_dpsk_ser


def rank1_channel(gain=2.0 + 1.0j):
    ray = RayParams(gain=gain, attenuation_linear=1.0, aod_bs_rad=-0.4, aoa_ms_rad=0.6)
    return assemble_channel(ArrayConfig(16), ArrayConfig(8), (ray,), gamma=1.0)


class TestNormalizedCorrelation:
    def test_self(self):
        x = np.array([1.0 + 2j, -0.5, 3j])
        assert normalized_correlation(x, x) == pytest.approx(1.0)

    def test_global_phase_invariance(self):
        x = np.array([1.0 + 2j, -0.5, 3j])
        assert normalized_correlation(x, np.exp(1j * 1.3) * x) == pytest.approx(1.0)
        assert normalized_correlation(np.exp(-1j * 0.4) * x, x) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert normalized_correlation([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert normalized_correlation(x, y) == pytest.approx(normalized_correlation(y, x))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            normalized_correlation(np.zeros(3), np.ones(3))

    def test_stack_matches_one_call_per_pair(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((7, 30)) + 1j * rng.standard_normal((7, 30))
        y = rng.standard_normal((7, 30)) + 1j * rng.standard_normal((7, 30))
        singles = [normalized_correlation(a, b) for a, b in zip(x, y)]
        np.testing.assert_allclose(normalized_correlation(x, y), singles, rtol=0, atol=1e-15)
        # one reference vector against a stack, as the harness scores the oracle's u1
        np.testing.assert_allclose(normalized_correlation(x[0], y), [normalized_correlation(x[0], b) for b in y],
                                   rtol=0, atol=1e-15)
        y[3] = 0.0
        with pytest.raises(ValueError):
            normalized_correlation(x, y)

    @pytest.mark.parametrize("d, chance", [(30, 0.162), (100, 0.089)])
    def test_chance_level(self, d, chance):
        # E|<x, v>| over x uniform on the unit sphere of C^d, for a fixed unit v, is
        # Gamma(d) Gamma(3/2) / Gamma(d + 1/2): eta_u at d = n_ms = 30 and eta_v at d = n_bs = 100
        # for a beam that knows nothing of the channel
        exact = math.exp(math.lgamma(d) + math.lgamma(1.5) - math.lgamma(d + 0.5))
        assert round(exact, 3) == chance
        rng = np.random.default_rng(d)
        x = rng.standard_normal((20_000, d)) + 1j * rng.standard_normal((20_000, d))
        eta = normalized_correlation(x, np.eye(d)[0])
        assert abs(eta.mean() - exact) <= 3.0 * eta.std(ddof=1) / math.sqrt(eta.size)


class TestSpectralEfficiency:
    def test_zero_channel(self):
        d = np.eye(4, dtype=complex)[:, :2]
        assert spectral_efficiency(np.zeros((4, 6)), d, np.eye(6)[:, :2], 1.0, 0.1) == 0.0

    def test_rank1_collapses_to_scalar_formula(self):
        chan = rank1_channel()
        s1 = chan.sigma[0]
        p, s2 = 3.0, 0.2
        got = spectral_efficiency(chan.h, chan.u[:, :1], chan.v[:, :1], p, s2)
        assert got == pytest.approx(math.log2(1 + p * s1**2 / s2), rel=1e-12)

    def test_matches_brute_force_determinant(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        d_ms = rand_unitary(8, 3, rng)
        d_bs = rand_unitary(16, 3, rng)
        p, s2 = 2.5, 0.7
        # independent evaluation: explicit inverse and determinant
        gram = d_ms.conj().T @ d_ms
        a = d_ms.conj().T @ h @ d_bs
        inner = np.eye(3) + p * np.linalg.inv(s2 * gram) @ (a @ a.conj().T)
        expected = math.log2(abs(np.linalg.det(inner)))
        got = spectral_efficiency(h, d_ms, d_bs, p, s2)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_rank_deficient_dms_rejected(self):
        d_ms = np.ones((4, 2), dtype=complex)  # identical columns
        with pytest.raises(ValueError):
            spectral_efficiency(np.eye(4), d_ms, np.eye(4)[:, :2], 1.0, 0.1)

    def test_oracle_upper_bounds_any_beamformers(self):
        rng = np.random.default_rng(2)
        params = ChannelParams(n_clusters=2, rays_per_cluster=(3, 3))
        for m in (1, 3):
            for _ in range(10):
                chan = sample_channel(params, ArrayConfig(16), ArrayConfig(8), rng)
                se_oracle = spectral_efficiency(chan.h, chan.u[:, :m], chan.v[:, :m], 1e8, 1.0)
                d_ms = rand_unitary(8, m, rng)
                d_bs = rand_unitary(16, m, rng)
                se_other = spectral_efficiency(chan.h, d_ms, d_bs, 1e8, 1.0)
                assert se_other <= se_oracle + 1e-9

    @pytest.mark.parametrize("m", [1, 2])
    def test_closed_form_bound_is_the_oracle_rate(self, m):
        rng = np.random.default_rng(4)
        params = ChannelParams(n_clusters=2, rays_per_cluster=(3, 3))
        for p in (1e6, 1e8, 1e10):
            chan = sample_channel(params, ArrayConfig(16), ArrayConfig(8), rng)
            oracle = spectral_efficiency(chan.h, chan.u[:, :m], chan.v[:, :m], p, 1.0)
            assert spectral_efficiency_bound(chan.sigma[:m], p, 1.0) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2])
    def test_stack_matches_one_call_per_stream(self, m):
        rng = np.random.default_rng(9)
        chan = sample_channel(ChannelParams(n_clusters=2, rays_per_cluster=(3, 3)),
                              ArrayConfig(16), ArrayConfig(8), rng)
        powers = (1e6, 1e7, 1e8, 1e9, 1e10)
        d_ms = np.stack([rand_unitary(8, m, rng) for _ in powers])
        d_bs = np.stack([rand_unitary(16, m, rng) for _ in powers])
        stacked = spectral_efficiency(chan.h, d_ms, d_bs, powers, 1.0)
        singles = [spectral_efficiency(chan.h, a, b, p, 1.0) for a, b, p in zip(d_ms, d_bs, powers)]
        assert stacked.shape == (5,) and stacked.tolist() == singles
        # the oracle: one pair of beams broadcast over the powers
        oracle = spectral_efficiency(chan.h, chan.u[:, :m], chan.v[:, :m], powers, 1.0)
        assert oracle.tolist() == [
            spectral_efficiency(chan.h, chan.u[:, :m], chan.v[:, :m], p, 1.0) for p in powers
        ]
        bound = spectral_efficiency_bound(chan.sigma[:m], powers, 1.0)
        assert bound.tolist() == [spectral_efficiency_bound(chan.sigma[:m], p, 1.0) for p in powers]

    def test_rank_deficient_stream_in_a_stack_rejected(self):
        rng = np.random.default_rng(10)
        d_ms = np.stack([rand_unitary(4, 2, rng) for _ in range(3)])
        d_ms[1] = 1.0  # identical columns
        with pytest.raises(ValueError, match="full column rank"):
            spectral_efficiency(np.eye(4), d_ms, np.eye(4)[:, :2], (1.0, 2.0, 3.0), 0.1)

    def test_monotone_in_transmit_power(self):
        rng = np.random.default_rng(3)
        chan = sample_channel(ChannelParams(n_clusters=1, rays_per_cluster=(4,)),
                              ArrayConfig(16), ArrayConfig(8), rng)
        powers = [1e6, 1e7, 1e8, 1e9]
        values = [
            spectral_efficiency(chan.h, chan.u[:, :2], chan.v[:, :2], p, 1.0) for p in powers
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("p_t_bs", [-1.0, math.inf, (1.0, math.nan)])
def test_metric_power_must_be_finite_and_positive(p_t_bs):
    with pytest.raises(ValueError, match="p_t_bs must be finite and > 0"):
        MetricConfig(p_t_bs=p_t_bs)


def exact_dpsk_ser(psk_order, gamma):
    """Pawula, Rice and Roberts, IEEE Trans. Commun. 30(8), 1982: differential K-PSK at symbol SNR gamma errs
    with probability sin(pi/K) / pi int_0^{pi/2} exp(-gamma (1 - c cos t)) / (1 - c cos t) dt, c = cos(pi/K).
    By mpmath at 40 digits, on the library's panels, with exp(-gamma (1 - c)) taken out of the integrand so
    that quad's error is relative to the result."""
    with mpmath.workdps(40):
        c = mpmath.cos(mpmath.pi / psk_order)
        w = 1 / mpmath.sqrt(c * max(gamma, 1 / (2 * (1 - c))))
        points = [min(x * w, mpmath.pi / 2) for x in (0, 1, 4, 16)] + [mpmath.pi / 2]
        integral = mpmath.quad(lambda t: mpmath.exp(-gamma * c * (1 - mpmath.cos(t))) / (1 - c * mpmath.cos(t)), points)
        return float(mpmath.sin(mpmath.pi / psk_order) / mpmath.pi * mpmath.exp(-gamma * (1 - c)) * integral)


class TestDpskSer:
    def test_noiseless_oracle_is_error_free(self):
        chan = rank1_channel()
        beams = EstimatedBeamformers(d_ms=chan.u[:, :1], d_bs=chan.v[:, :1])
        cfg = MetricConfig(n_data_symbols=2000, p_t_bs=1.0)
        # zero noise variance: phase increments are preserved exactly
        assert dpsk_ser_trial(chan, beams, cfg, 0.0, np.random.default_rng(0)) == 0.0

    def test_orthogonal_combiner_is_random_guessing(self):
        chan = rank1_channel()
        u = chan.u[:, 0]
        e = np.zeros(8, dtype=complex)
        e[1] = 1.0
        d_perp = e - u * np.vdot(u, e)
        d_perp = (d_perp / np.linalg.norm(d_perp))[:, None]
        beams = EstimatedBeamformers(d_ms=d_perp, d_bs=chan.v[:, :1])
        cfg = MetricConfig(n_data_symbols=20_000, p_t_bs=1.0)
        ser = dpsk_ser_trial(chan, beams, cfg, 0.5, np.random.default_rng(1))
        assert ser == pytest.approx(1.0 - 1.0 / 16.0, abs=0.01)

    def test_global_phase_rotation_of_combiner_is_invisible(self):
        chan = rank1_channel()
        cfg = MetricConfig(n_data_symbols=5000, p_t_bs=2.0)
        base = EstimatedBeamformers(d_ms=chan.u[:, :1], d_bs=chan.v[:, :1])
        rot = EstimatedBeamformers(d_ms=np.exp(1j * 0.9) * chan.u[:, :1], d_bs=chan.v[:, :1])
        a = dpsk_ser_trial(chan, base, cfg, 0.05, np.random.default_rng(2))
        b = dpsk_ser_trial(chan, rot, cfg, 0.05, np.random.default_rng(2))
        assert b == pytest.approx(a, rel=1e-12, abs=0.0)  # the rotated combiner's entries are rounded

    def test_scaled_combiner_gives_the_same_ser(self):
        chan = rank1_channel()
        cfg = MetricConfig(n_data_symbols=5000, p_t_bs=2.0)
        base = EstimatedBeamformers(d_ms=chan.u[:, :1], d_bs=chan.v[:, :1])
        scaled = EstimatedBeamformers(d_ms=3.0 * chan.u[:, :1], d_bs=chan.v[:, :1])
        a = dpsk_ser_trial(chan, base, cfg, 0.2, np.random.default_rng(2))
        b = dpsk_ser_trial(chan, scaled, cfg, 0.2, np.random.default_rng(2))
        assert 0.0 < a < 1.0
        assert a == b

    def test_zero_combiner_rejected(self):
        chan = rank1_channel()
        beams = EstimatedBeamformers(d_ms=np.zeros((8, 1), dtype=complex), d_bs=chan.v[:, :1])
        with pytest.raises(ValueError):
            dpsk_ser_trial(chan, beams, MetricConfig(), 0.1, np.random.default_rng(0))

    def test_matches_scalar_oracle_at_same_effective_snr(self):
        chan = rank1_channel()
        s1 = chan.sigma[0]
        sigma2 = 0.3
        gamma_s = 150.0
        p = gamma_s * sigma2 / s1**2
        beams = EstimatedBeamformers(d_ms=chan.u[:, :1], d_bs=chan.v[:, :1])
        cfg = MetricConfig(n_data_symbols=100_000, p_t_bs=p)
        mimo = dpsk_ser_trial(chan, beams, cfg, sigma2, np.random.default_rng(3))
        scalar = scalar_dpsk_ser(gamma_s, 16, 100_000, np.random.default_rng(4))
        assert 0.5 <= mimo / scalar <= 2.0

    def test_multistream_rejected(self):
        chan = rank1_channel()
        beams = EstimatedBeamformers(d_ms=chan.u[:, :2], d_bs=chan.v[:, :2])
        with pytest.raises(ValueError):
            dpsk_ser_trial(chan, beams, MetricConfig(), 0.1, np.random.default_rng(0))
        stacked = EstimatedBeamformers(d_ms=np.stack([chan.u[:, :2]] * 3), d_bs=np.stack([chan.v[:, :2]] * 3))
        with pytest.raises(ValueError):
            dpsk_ser_trial(chan, stacked, MetricConfig(p_t_bs=(1.0, 2.0, 3.0)), 0.1)

    def test_zero_combiner_in_a_stack_rejected(self):
        chan = rank1_channel()
        d_ms = np.stack([chan.u[:, :1]] * 3)
        d_ms[1] = 0.0
        beams = EstimatedBeamformers(d_ms=d_ms, d_bs=np.stack([chan.v[:, :1]] * 3))
        with pytest.raises(ValueError, match="zero combiner"):
            dpsk_ser_trial(chan, beams, MetricConfig(p_t_bs=(1.0, 2.0, 3.0)), 0.1)

    def test_stack_matches_one_call_per_stream(self):
        chan = rank1_channel()
        rng = np.random.default_rng(5)
        powers = (0.05, 0.2, 1.0)
        cfg = MetricConfig(n_data_symbols=3000, p_t_bs=powers)
        tracked = EstimatedBeamformers(
            d_ms=np.stack([rand_unitary(8, 1, rng) for _ in powers]),
            d_bs=np.stack([rand_unitary(16, 1, rng) for _ in powers]),
        )
        oracle = EstimatedBeamformers(d_ms=chan.u[:, :1], d_bs=chan.v[:, :1])
        for beams, per_stream in (
            (tracked, [EstimatedBeamformers(tracked.d_ms[i], tracked.d_bs[i]) for i in range(3)]),
            (oracle, [oracle] * 3),  # one pair of beams broadcast over the stack
        ):
            stacked = dpsk_ser_trial(chan, beams, cfg, 0.3)
            singles = [
                dpsk_ser_trial(chan, b, MetricConfig(n_data_symbols=3000, p_t_bs=p), 0.3,
                               np.random.default_rng(100 + i))
                for i, (b, p) in enumerate(zip(per_stream, powers))
            ]
            assert stacked.shape == (3,)
            assert [float(x) for x in stacked] == singles
            assert len(set(singles)) == 3

    def test_noise_power_sets_the_snr(self):
        # the same beams at power P, scored at sigma2 and at 4 sigma2, err at gamma = P g^2 / sigma2 and at gamma / 4
        chan = rank1_channel()
        beams = EstimatedBeamformers(d_ms=chan.u[:, :1], d_bs=chan.v[:, :1])
        sigma2, gamma = 0.3, 40.0
        cfg = MetricConfig(p_t_bs=gamma * sigma2 / chan.sigma[0] ** 2)
        for scale in (1.0, 4.0):
            exact = exact_dpsk_ser(16, gamma / scale)
            assert abs(dpsk_ser_trial(chan, beams, cfg, scale * sigma2) - exact) <= 1e-10 * exact
        assert exact_dpsk_ser(16, gamma / 4.0) > 2.0 * exact_dpsk_ser(16, gamma)

    def test_draws_nothing_from_the_generator(self):
        chan = rank1_channel()
        beams = EstimatedBeamformers(d_ms=chan.u[:, :1], d_bs=chan.v[:, :1])
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        ser = dpsk_ser_trial(chan, beams, MetricConfig(p_t_bs=0.01), 0.3, rng)
        assert 0.0 < ser < 1.0
        assert rng.bit_generator.state == before

    def test_one_stream_matches_brute_force_with_data(self):
        # the library draws no data symbols; the brute force draws them and rounds angles
        chan = rank1_channel()
        sigma2, gamma_s, n_sym = 0.3, 100.0, 200_000
        beams = EstimatedBeamformers(d_ms=chan.u[:, :1], d_bs=chan.v[:, :1])
        cfg = MetricConfig(psk_order=16, n_data_symbols=n_sym, p_t_bs=gamma_s * sigma2 / chan.sigma[0] ** 2)
        got = dpsk_ser_trial(chan, beams, cfg, sigma2, np.random.default_rng(6))
        ref = scalar_dpsk_ser(gamma_s, 16, n_sym, np.random.default_rng(7))
        se = math.sqrt((got * (1 - got) + ref * (1 - ref)) / n_sym)
        assert 0.0 < ref < 1.0
        assert abs(got - ref) <= 4.0 * se

    # a 2 x 1 link with unit gain through the first combiner and none through the second, so gamma = P / sigma2
    LINK = ChannelRealization(h=np.array([[1.0], [0.0]], dtype=complex), u=np.eye(2)[:, :1], sigma=np.ones(1),
                              v=np.ones((1, 1)), rays=())

    @pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.1, 1.0, 5.0, 10.0, 15.0, 1e2, 1e3, 1e4, 1e6])
    @pytest.mark.parametrize("psk_order", [2, 4, 8, 16, 32, 64])
    def test_matches_the_exact_ser(self, psk_order, gamma):
        d_ms = np.eye(2)[:, :1] if gamma > 0.0 else np.eye(2)[:, 1:]  # gamma = 0: no gain at P = 1
        beams = EstimatedBeamformers(d_ms=d_ms.astype(complex), d_bs=np.ones((1, 1), dtype=complex))
        got = dpsk_ser_trial(self.LINK, beams, MetricConfig(psk_order=psk_order, p_t_bs=gamma or 1.0), 1.0)
        exact = exact_dpsk_ser(psk_order, gamma)
        assert abs(got - exact) <= 1e-10 * exact
        if gamma == 0.0:
            assert exact == pytest.approx(1.0 - 1.0 / psk_order, rel=1e-15)  # uniform phase: K - 1 wrong symbols of K


def test_metric_config_validation():
    with pytest.raises(ValueError):
        MetricConfig(psk_order=12)
    with pytest.raises(ValueError):
        MetricConfig(n_data_symbols=0)
    with pytest.raises(ValueError):
        MetricConfig(p_t_bs=0.0)
    with pytest.raises(ValueError):
        MetricConfig(p_t_bs=(1.0, 0.0, 2.0))
