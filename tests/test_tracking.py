import math
import time

import numpy as np
import pytest

from mmwtrack import OojaTracker, PastdTracker, extract_basis, init_from_samples, tracker_run
from mmwtrack.tracking import EIGVAL_FLOOR
from util import cov_sqrt, draw_samples, synth_covariance


def alignment(estimate: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-column |<estimate, truth>| with unit-normalized estimates."""
    est = estimate / np.linalg.norm(estimate, axis=0)
    return np.abs(np.sum(np.conj(est) * truth, axis=0))


def subspace_alignment(estimate: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-vector projection norm of each truth column onto span(estimate).

    The rotation-invariant alignment measure: a symmetric subspace tracker
    converges to an arbitrary orthonormal basis of the dominant subspace, so
    individual columns need not match individual eigenvectors.
    """
    q, _ = np.linalg.qr(estimate)
    return np.linalg.norm(q.conj().T @ truth, axis=0)


class TestInitFromSamples:
    def test_repeated_basis_vector(self):
        e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
        w, lam = init_from_samples([e1, e1, e1], 1)
        np.testing.assert_allclose(w[:, 0], e1)
        assert lam[0] == pytest.approx(1.0)

    def test_all_zero_fallback(self):
        z = np.zeros(4, dtype=complex)
        w, lam = init_from_samples([z, z], 1)
        np.testing.assert_allclose(w[:, 0], [1, 0, 0, 0])
        assert lam[0] == 1e-12

    def test_matches_exact_eigendecomposition(self):
        rng = np.random.default_rng(4)
        n = 12
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        samples = []
        for _ in range(200):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            noise = 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            samples.append(5.0 * c * u + noise)
        w, lam = init_from_samples(samples, 1)
        assert abs(np.vdot(w[:, 0], u)) >= 0.99
        # oracle: dense eigendecomposition of the same sample covariance
        r = np.stack(samples, axis=1)
        evals, evecs = np.linalg.eigh(r @ r.conj().T / r.shape[1])
        assert abs(np.vdot(w[:, 0], evecs[:, -1])) == pytest.approx(1.0, abs=1e-10)
        assert lam[0] == pytest.approx(evals[-1], rel=1e-10)

    def test_fewer_samples_than_m_completes_the_basis(self):
        rng = np.random.default_rng(11)
        n = 6
        r = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) * [3.0, 1.0]
        w, lam = init_from_samples(list(r.T), 4)
        assert w.shape == (n, 4)
        np.testing.assert_allclose(w.conj().T @ w, np.eye(4), atol=1e-12)
        # oracle: dense eigendecomposition of the same sample covariance
        evals, evecs = np.linalg.eigh(r @ r.conj().T / 2)
        assert evals[-1] > evals[-2] * 1.01
        for col in range(2):
            assert abs(np.vdot(w[:, col], evecs[:, -1 - col])) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(lam[:2], evals[::-1][:2], rtol=1e-10)
        assert np.all(lam[2:] == EIGVAL_FLOOR)

    def test_rank_deficient_blocks_keep_an_orthonormal_basis(self):
        # where a kept eigenvalue of R^H R is zero, Rv is rounding noise: such a block
        # needs the SVD, alone or stacked with a full-rank block, to stay orthonormal
        rng = np.random.default_rng(21)

        def cn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        rank1 = np.outer(cn(10), cn(30))
        one_sample = np.zeros((10, 30), dtype=complex)
        one_sample[3] = cn(30)  # R has one nonzero column
        full = cn(10, 30)
        w_mix, lam_mix = init_from_samples(np.stack([rank1, one_sample, full]), 2)
        cases = [(rank1, init_from_samples(rank1, 2)), (one_sample, init_from_samples(one_sample, 2)),
                 (rank1, (w_mix[0], lam_mix[0])), (one_sample, (w_mix[1], lam_mix[1]))]
        for block, (w, lam) in cases:
            np.testing.assert_allclose(w.conj().T @ w, np.eye(2), atol=1e-12)
            assert lam[1] == EIGVAL_FLOOR
            assert lam[0] == pytest.approx(np.linalg.norm(block) ** 2 / 10, rel=1e-12)
        np.testing.assert_allclose(w_mix[2].conj().T @ w_mix[2], np.eye(2), atol=1e-12)
        assert lam_mix[2][1] > EIGVAL_FLOOR

    def test_errors(self):
        with pytest.raises(ValueError):
            init_from_samples([], 1)
        with pytest.raises(ValueError):
            init_from_samples([np.zeros(3, dtype=complex)], 4)


class TestPastd:
    def test_sample_on_estimate_is_fixed_point(self):
        t = PastdTracker(w=np.array([[1.0], [0.0]]), lam=[1.0], beta=1.0)
        t.step(np.array([1.0, 0.0]))
        assert t.lam[0] == pytest.approx(2.0)
        np.testing.assert_allclose(t.w[:, 0], [1.0, 0.0])

    def test_orthogonal_sample_no_update(self):
        t = PastdTracker(w=np.array([[1.0], [0.0]]), lam=[1.0], beta=1.0)
        t.step(np.array([0.0, 1.0]))
        assert t.lam[0] == pytest.approx(1.0)
        np.testing.assert_allclose(t.w[:, 0], [1.0, 0.0])

    def test_converges_to_covariance_eigenvectors(self):
        scores = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            cov, u_true = synth_covariance(30, rng)
            samples = draw_samples(cov_sqrt(cov), 500, rng)
            w0, lam0 = init_from_samples(samples[:10], 3)
            t = tracker_run(PastdTracker(w=w0, lam=lam0, beta=0.95), samples[10:])
            scores.append(alignment(extract_basis(t), u_true).mean())
        assert np.mean(scores) >= 0.95

    def test_lambda_ordering_after_convergence(self):
        # deflation extracts eigenvalues 10 > 5 > 2 in descending order
        ordered = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            cov, _ = synth_covariance(30, rng)
            samples = draw_samples(cov_sqrt(cov), 500, rng)
            w0, lam0 = init_from_samples(samples[:10], 3)
            t = tracker_run(PastdTracker(w=w0, lam=lam0, beta=0.95), samples[10:])
            if t.lam[0] > t.lam[1] > t.lam[2]:
                ordered += 1
        assert ordered >= 9

    def test_beta_one_noiseless_rank1_convergence(self):
        rng = np.random.default_rng(9)
        n = 16
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        w0 = np.eye(n, dtype=complex)[:, :1]  # not orthogonal to u
        t = PastdTracker(w=w0, lam=[1.0], beta=1.0)
        for _ in range(200):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            c += 0.5 * np.sign(c.real) if c.real else 0.5
            t.step(c * u)
        assert alignment(extract_basis(t), u[:, None])[0] >= 0.999

    def test_beta_one_lambda_nondecreasing(self):
        rng = np.random.default_rng(12)
        samples = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(30)]
        w0, lam0 = init_from_samples(samples[:5], 2)
        t = PastdTracker(w=w0, lam=lam0, beta=1.0)
        for r in samples + samples:  # replayed twice
            prev = t.lam.copy()
            t.step(r)
            assert np.all(t.lam >= prev - 1e-15)


class TestOoja:
    def test_orthogonal_sample_no_update(self):
        t = OojaTracker(w=np.array([[1.0], [0.0]]), delta=0.3)
        t.step(np.array([0.0, 1.0]))
        np.testing.assert_allclose(t.w[:, 0], [1.0, 0.0])

    def test_in_subspace_sample_no_update(self):
        t = OojaTracker(w=np.array([[1.0], [0.0]]), delta=0.3)
        t.step(np.array([1.0, 0.0]))
        np.testing.assert_allclose(t.w[:, 0], [1.0, 0.0])

    def test_converges_with_orthonormality(self):
        scores = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            cov, u_true = synth_covariance(30, rng)
            samples = draw_samples(cov_sqrt(cov), 500, rng)
            w0, _ = init_from_samples(samples[:10], 3)
            t = OojaTracker(w=w0, delta=0.01, sign=1)
            for r in samples[10:]:
                t.step(r)
                assert np.linalg.norm(t.w.conj().T @ t.w - np.eye(3)) <= 1e-10
            scores.append(subspace_alignment(extract_basis(t), u_true).mean())
        assert np.mean(scores) >= 0.95

    def test_minor_subspace_with_negative_sign(self):
        rng = np.random.default_rng(21)
        n = 12
        cov, _ = synth_covariance(n, rng, eigvals=(10.0, 5.0), noise=0.01)
        _, evecs = np.linalg.eigh(cov)
        samples = draw_samples(cov_sqrt(cov), 3000, rng)
        w0 = np.eye(n, dtype=complex)[:, :2]
        t = tracker_run(OojaTracker(w=w0, delta=0.005, sign=-1), samples)
        w = extract_basis(t)
        dominant = evecs[:, -2:]  # eigh ascending: largest eigenvalues last
        minor = evecs[:, :-2]     # degenerate noise floor, dimension n - 2
        assert np.linalg.norm(dominant.conj().T @ w) / math.sqrt(2) <= 0.05
        assert np.linalg.norm(minor.conj().T @ w) / math.sqrt(2) >= 0.95
        # sign = +1 on the same stream locks onto the dominant pair instead
        t_pos = tracker_run(OojaTracker(w=w0, delta=0.005, sign=1), samples)
        assert np.linalg.norm(dominant.conj().T @ extract_basis(t_pos)) / math.sqrt(2) >= 0.95

    def test_long_run_orthonormality(self):
        rng = np.random.default_rng(30)
        t = OojaTracker(w=np.eye(40, dtype=complex)[:, :3], delta=0.01)
        for _ in range(10_000):
            t.step(rng.standard_normal(40) + 1j * rng.standard_normal(40))
        assert np.linalg.norm(t.w.conj().T @ t.w - np.eye(3)) <= 1e-8


class TestRunAndExtract:
    def test_empty_stream(self):
        w0 = np.eye(4, dtype=complex)[:, :2]
        t = tracker_run(OojaTracker(w=w0), [])
        np.testing.assert_array_equal(t.w, w0)

    def test_single_sample_equals_one_step(self):
        rng = np.random.default_rng(2)
        r = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w0 = np.eye(4, dtype=complex)[:, :2]
        a = tracker_run(PastdTracker(w=w0, lam=[1.0, 1.0]), [r])
        b = PastdTracker(w=w0, lam=[1.0, 1.0]).step(r)
        np.testing.assert_array_equal(a.w, b.w)

    def test_dimension_mismatch(self):
        t = PastdTracker(w=np.eye(4, dtype=complex)[:, :1], lam=[1.0])
        with pytest.raises(ValueError):
            tracker_run(t, [np.zeros(5, dtype=complex)])

    def test_extract_basis_unit_columns(self):
        rng = np.random.default_rng(8)
        w0, lam0 = init_from_samples(
            [rng.standard_normal(10) + 1j * rng.standard_normal(10) for _ in range(5)], 2
        )
        t = PastdTracker(w=w0, lam=lam0, beta=0.9)
        np.testing.assert_allclose(np.linalg.norm(extract_basis(t), axis=0), 1.0, atol=1e-12)
        for _ in range(50):
            t.step(rng.standard_normal(10) + 1j * rng.standard_normal(10))
        np.testing.assert_allclose(np.linalg.norm(extract_basis(t), axis=0), 1.0, atol=1e-12)


class TestStackedStreams:
    """A stack of S streams, one of them all zero, equals S runs of one stream."""

    @staticmethod
    def streams():
        rng = np.random.default_rng(17)
        cov, _ = synth_covariance(12, rng, eigvals=(4.0, 2.0), noise=0.1)
        stack = np.stack([draw_samples(cov_sqrt(cov), 30, rng) for _ in range(4)])
        stack[2] = 0.0  # the warm-start fallback and the OOJA guard must act on it alone
        return stack

    @pytest.mark.parametrize(
        "make",
        [
            lambda w0, lam0: PastdTracker(w=w0, lam=lam0, beta=0.9),
            lambda w0, lam0: OojaTracker(w=w0, delta=0.3),
        ],
        ids=["pastd", "ooja"],
    )
    def test_stack_equals_one_run_per_stream(self, make):
        stack = self.streams()
        w0, lam0 = init_from_samples(stack[:, :10], 2)
        stacked = tracker_run(make(w0, lam0), np.moveaxis(stack[:, 10:], 1, 0))
        for k, stream in enumerate(stack):
            w1, lam1 = init_from_samples(stream[:10], 2)
            np.testing.assert_array_equal(w0[k], w1)
            np.testing.assert_array_equal(lam0[k], lam1)
            one = tracker_run(make(w1, lam1), stream[10:])
            np.testing.assert_allclose(stacked.w[k], one.w, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(extract_basis(stacked)[k], extract_basis(one), rtol=1e-12)
        np.testing.assert_array_equal(stacked.w[2], np.eye(12)[:, :2])
        assert not np.allclose(stacked.w[0], w0[0], atol=1e-3)  # the other streams moved


    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_ooja_stack_step_is_the_one_stream_step_bit_for_bit(self, m):
        # a stack takes OOJA's coefficients as numpy arrays and one stream as Python floats,
        # in the same order of operations; the stack here has two leading axes
        stack = self.streams().reshape(2, 2, 30, 12)
        w0, _ = init_from_samples(stack[..., :10, :], m)
        stacked = tracker_run(OojaTracker(w=w0, delta=0.3), np.moveaxis(stack[..., 10:, :], -2, 0))
        for k in np.ndindex(2, 2):
            one = tracker_run(OojaTracker(w=w0[k], delta=0.3), stack[k][10:])
            np.testing.assert_array_equal(stacked.w[k], one.w)
        assert not np.allclose(stacked.w[0, 0], w0[0, 0], atol=1e-3)


def _time_steps(tracker, samples) -> float:
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        for r in samples:
            tracker.step(r)
        best = min(best, time.perf_counter() - start)
    return best


def test_step_cost_scales_linearly():
    rng = np.random.default_rng(0)
    times = {}
    for n in (2048, 4096):
        samples = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(100)]
        times[n] = _time_steps(OojaTracker(w=np.eye(n, dtype=complex)[:, :3], delta=0.001), samples)
    assert times[4096] / times[2048] <= 2.5
