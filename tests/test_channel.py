import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from mmwtrack import (
    ArrayConfig,
    ChannelParams,
    RayParams,
    assemble_channel,
    dominant_svd,
    sample_channel,
    steering_vector,
)
from mmwtrack.channel import NOISE_VARIANCE, PATH_GAIN, _fix_phases, steering_matrix


def one_ray_params(**kw):
    defaults = dict(
        n_clusters=1,
        rays_per_cluster=(1,),
        los_probability=0.0,
        cluster_angle_spread_deg=0.0,
    )
    defaults.update(kw)
    return ChannelParams(**defaults)


class TestSteeringVector:
    def test_broadside(self):
        np.testing.assert_allclose(steering_vector(ArrayConfig(4), 0.0), [0.5, 0.5, 0.5, 0.5])

    def test_single_element(self):
        np.testing.assert_allclose(steering_vector(ArrayConfig(1), 1.2), [1.0])

    def test_endfire(self):
        got = steering_vector(ArrayConfig(4), math.pi / 2)
        np.testing.assert_allclose(got, [0.5, -0.5, 0.5, -0.5], atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_unit_norm(self, n):
        for angle in np.linspace(-math.pi / 2, math.pi / 2, 11):
            assert abs(np.linalg.norm(steering_vector(ArrayConfig(n), angle)) - 1.0) < 1e-12

    def test_invalid_angle(self):
        with pytest.raises(ValueError):
            steering_vector(ArrayConfig(4), 2.0)
        with pytest.raises(ValueError):
            steering_matrix(ArrayConfig(4), (0.1, -2.0, 0.3))

    @pytest.mark.parametrize("n", [1, 8, 30, 100])
    def test_matrix_is_bitwise_the_per_angle_loop(self, n):
        array = ArrayConfig(n, 0.5)
        angles = [float(a) for a in np.random.default_rng(n).uniform(-math.pi / 2, math.pi / 2, 60)]
        angles += [-math.pi / 2, 0.0, math.pi / 2]
        k = np.arange(n)
        loop = np.stack(
            [np.exp(1j * (-2.0 * math.pi * 0.5 * math.sin(a)) * k) / math.sqrt(n) for a in angles], axis=1
        )
        assert steering_matrix(array, angles).tobytes() == loop.tobytes()


class TestPathLoss:
    def test_log_distance_against_mpmath(self):
        # 72 dB + 29.2 log10(d) at d = 50 m
        with mpmath.workdps(50):
            pl_db = mpmath.mpf(72) + 10 * mpmath.mpf("2.92") * mpmath.log10(50)
            expected = float(mpmath.power(10, -pl_db / 10))
        assert PATH_GAIN == pytest.approx(expected, rel=1e-14)


class TestSampleChannel:
    def test_single_ray_rank1(self):
        rng = np.random.default_rng(3)
        bs, ms = ArrayConfig(16), ArrayConfig(8)
        ch = sample_channel(one_ray_params(), bs, ms, rng)
        alpha = ch.rays[0].gain
        gain = np.linalg.norm(ch.h) / math.sqrt(PATH_GAIN)
        assert gain == pytest.approx(math.sqrt(16 * 8) * abs(alpha), rel=1e-12)
        assert ch.sigma[1] < 1e-12 * ch.sigma[0]
        a_ms = steering_vector(ms, ch.rays[0].aoa_ms_rad)
        a_bs = steering_vector(bs, ch.rays[0].aod_bs_rad)
        assert abs(np.vdot(ch.u[:, 0], a_ms)) >= 1 - 1e-10
        assert abs(np.vdot(ch.v[:, 0], a_bs)) >= 1 - 1e-10

    def test_los_only(self):
        bs, ms = ArrayConfig(16), ArrayConfig(8)
        attn = 0.37
        los = RayParams(gain=math.sqrt(128) * np.exp(1.1j), attenuation_linear=attn, aod_bs_rad=-0.2, aoa_ms_rad=0.4)
        ch = assemble_channel(bs, ms, rays=(los,), gamma=1.0)
        assert ch.sigma[0] == pytest.approx(math.sqrt(8 * 16 * attn), rel=1e-12)
        assert ch.sigma[1] < 1e-12 * ch.sigma[0]

    def test_gamma_normalization_monte_carlo(self):
        # sample mean of ||H||_F^2 / (N_bs * N_ms * PATH_GAIN)
        rng = np.random.default_rng(7)
        params = one_ray_params(
            n_clusters=2, rays_per_cluster=(3, 4), cluster_angle_spread_deg=5.0
        )
        bs, ms = ArrayConfig(8), ArrayConfig(8)
        acc = 0.0
        n_draws = 10_000
        for _ in range(n_draws):
            ch = sample_channel(params, bs, ms, rng)
            acc += np.linalg.norm(ch.h) ** 2
        assert 0.97 <= acc / n_draws / 64.0 / PATH_GAIN <= 1.03

    def test_seed_reproducible(self):
        params = one_ray_params(n_clusters=2, rays_per_cluster=(2, 3), los_probability=0.5)
        bs, ms = ArrayConfig(12), ArrayConfig(6)
        a = sample_channel(params, bs, ms, np.random.default_rng(11))
        b = sample_channel(params, bs, ms, np.random.default_rng(11))
        assert np.array_equal(a.h, b.h)
        assert a.rays == b.rays

    def test_los_is_one_more_ray(self):
        params = one_ray_params(n_clusters=2, rays_per_cluster=(2, 3), cluster_angle_spread_deg=5.0)
        bs, ms = ArrayConfig(12), ArrayConfig(6)
        nlos = sample_channel(params, bs, ms, np.random.default_rng(13))
        los = sample_channel(replace(params, los_probability=1.0), bs, ms, np.random.default_rng(13))
        # the LOS draws are made in every trial, so both draw the same scattered rays
        assert len(nlos.rays) == 5 and los.rays[:-1] == nlos.rays

        def outer(ray):
            return np.outer(steering_vector(ms, ray.aoa_ms_rad), steering_vector(bs, ray.aod_bs_rad).conj())

        # the two-term formula: gamma sum alpha sqrt(L) a_MS a_BS^H + sqrt(N_BS N_MS L) e^{j phi} a_MS a_BS^H
        gamma = math.sqrt(12 * 6 / 5)
        scattered = sum(gamma * r.gain * math.sqrt(r.attenuation_linear) * outer(r) for r in nlos.rays)
        ray = los.rays[-1]
        assert abs(ray.gain) == pytest.approx(math.sqrt(5), rel=1e-15)
        want = scattered + math.sqrt(12 * 6 * PATH_GAIN) * np.exp(1j * np.angle(ray.gain)) * outer(ray)
        assert np.linalg.norm(los.h - want) <= 1e-12 * np.linalg.norm(want)

    @staticmethod
    def scalar_draw_rays(params, rng):
        """The rays as one scalar rng.uniform or rng.standard_normal call per value drew them."""
        spread = math.radians(params.cluster_angle_spread_deg)
        rays = []
        for n_ray in params.rays_per_cluster:
            center_bs = rng.uniform(-math.pi / 2, math.pi / 2)
            center_ms = rng.uniform(-math.pi / 2, math.pi / 2)
            for _ in range(n_ray):
                aod = min(max(center_bs + rng.uniform(-spread, spread), -math.pi / 2), math.pi / 2)
                aoa = min(max(center_ms + rng.uniform(-spread, spread), -math.pi / 2), math.pi / 2)
                gain = (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2.0)
                rays.append(RayParams(gain=gain, attenuation_linear=PATH_GAIN, aod_bs_rad=aod, aoa_ms_rad=aoa))
        los_present = bool(rng.uniform() < params.los_probability)
        los_phase = float(rng.uniform(0.0, 2.0 * math.pi))
        los_aoa = float(rng.uniform(-math.pi / 2, math.pi / 2))
        los_aod = float(rng.uniform(-math.pi / 2, math.pi / 2))
        if los_present:
            los_gain = np.exp(1j * los_phase) * math.sqrt(sum(params.rays_per_cluster))
            rays.append(RayParams(gain=los_gain, attenuation_linear=PATH_GAIN, aod_bs_rad=los_aod, aoa_ms_rad=los_aoa))
        return tuple(rays)

    @pytest.mark.parametrize("params", [
        ChannelParams(),
        ChannelParams(los_probability=0.5, cluster_angle_spread_deg=40.0),
        ChannelParams(n_clusters=3, rays_per_cluster=(1, 1, 1), los_probability=1.0),
    ], ids=["paper", "los-half-40deg", "one-ray-clusters-los"])
    def test_rays_are_bitwise_the_scalar_draws(self, params):
        # sample_channel draws each value kind a pair or four at a time, and keeps every double
        los_seen = set()
        for seed in range(40):
            rays = sample_channel(params, ArrayConfig(16), ArrayConfig(8), np.random.default_rng(seed)).rays
            want = self.scalar_draw_rays(params, np.random.default_rng(seed))
            # repr tells every double apart, -0.0 from 0.0 too
            assert repr([(r.gain, r.aod_bs_rad, r.aoa_ms_rad) for r in rays]) == \
                repr([(r.gain, r.aod_bs_rad, r.aoa_ms_rad) for r in want]), seed
            assert all(type(x) is float for r in rays for x in (r.aod_bs_rad, r.aoa_ms_rad))
            los_seen.add(len(rays) > sum(params.rays_per_cluster))
        assert los_seen == {0.0: {False}, 0.5: {False, True}, 1.0: {True}}[params.los_probability]

    def test_svd_is_exact(self):
        rng = np.random.default_rng(5)
        ch = sample_channel(ChannelParams(), ArrayConfig(20), ArrayConfig(10), rng)
        recon = (ch.u * ch.sigma) @ ch.v.conj().T
        assert np.linalg.norm(ch.h - recon) <= 1e-8 * np.linalg.norm(ch.h)
        r = len(ch.sigma)
        assert np.linalg.norm(ch.u.conj().T @ ch.u - np.eye(r)) < 1e-10
        assert np.linalg.norm(ch.v.conj().T @ ch.v - np.eye(r)) < 1e-10
        assert np.all(np.diff(ch.sigma) <= 0) and np.all(ch.sigma >= 0)


class TestDominantSvd:
    def test_rank1(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        u, s, v = dominant_svd(np.outer(a, b.conj()), 1)
        assert s[0] == pytest.approx(1.0)
        assert abs(np.vdot(u[:, 0], a)) == pytest.approx(1.0)
        assert abs(np.vdot(v[:, 0], b)) == pytest.approx(1.0)

    def test_identity(self):
        _, s, _ = dominant_svd(np.eye(3), 3)
        np.testing.assert_allclose(s, [1.0, 1.0, 1.0])

    def test_matches_eig_of_gram(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        u, s, _ = dominant_svd(h, 2)
        evals, evecs = np.linalg.eigh(h @ h.conj().T)
        order = np.argsort(evals)[::-1]
        np.testing.assert_allclose(s**2, evals[order][:2], rtol=1e-10)
        for k in range(2):
            assert abs(np.vdot(u[:, k], evecs[:, order[k]])) == pytest.approx(1.0, abs=1e-10)

    def test_phase_convention(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        u, _, _ = dominant_svd(h, 3)
        for k in range(3):
            pivot = u[np.argmax(np.abs(u[:, k])), k]
            assert abs(pivot.imag) < 1e-12 and pivot.real > 0

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            dominant_svd(np.eye(3), 4)
        with pytest.raises(ValueError):
            dominant_svd(np.eye(3), 0)


def fix_phases_per_column(u, v):
    """The per-column reference: rotate by the conjugate phase of the first largest entry."""
    u, v = u.copy(), v.copy()
    for col in range(u.shape[1]):
        pivot = u[int(np.argmax(np.abs(u[:, col]))), col]
        if abs(pivot) == 0.0:
            continue
        rot = np.conj(pivot) / abs(pivot)
        u[:, col] *= rot
        v[:, col] *= rot
    return u, v


def test_fix_phases_on_a_stack_matches_the_per_column_loop():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((4, 6, 3)) + 1j * rng.standard_normal((4, 6, 3))
    v = rng.standard_normal((4, 9, 3)) + 1j * rng.standard_normal((4, 9, 3))
    u[1, :, 2] = 0.0  # a zero column stays as it is
    u[2, 4, 0] = u[2, 1, 0] = 3.0 * np.exp(0.7j)  # a tie: the first maximum is the pivot
    u[2, 1, 0] *= -1
    fixed_u, fixed_v = _fix_phases(u, v)
    for k in range(len(u)):
        ref_u, ref_v = fix_phases_per_column(u[k], v[k])
        np.testing.assert_array_equal(fixed_u[k], ref_u)
        np.testing.assert_array_equal(fixed_v[k], ref_v)
    np.testing.assert_array_equal(fixed_u[1, :, 2], 0.0)
    assert fixed_u[2, 1, 0] == pytest.approx(3.0) and fixed_u[2, 4, 0] == pytest.approx(-3.0)
    np.testing.assert_array_equal(_fix_phases(u[0]), fix_phases_per_column(u[0], v[0])[0])


def test_noise_variance_matches_link_budget():
    # -174 dBm/Hz over 500 MHz with a 3 dB noise figure
    expected = 10 ** ((-174 - 30) / 10) * 500e6 * 10 ** 0.3
    assert NOISE_VARIANCE == pytest.approx(expected, rel=1e-12)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        ArrayConfig(0)
    with pytest.raises(ValueError):
        ChannelParams(n_clusters=2, rays_per_cluster=(3,))
    with pytest.raises(ValueError):
        ChannelParams(los_probability=1.5)
    with pytest.raises(ValueError):
        RayParams(gain=1.0, attenuation_linear=-0.1, aod_bs_rad=0.0, aoa_ms_rad=0.0)
