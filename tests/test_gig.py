import warnings

import numpy as np
import pytest

import reference_kernels as ref

from dirquant.errors import DomainError
from dirquant.samplers import sample_gig_half


def bessel_half_mean(a, b):
    # E[X] = (a/b) * K_{3/2}(ab) / K_{1/2}(ab) = (a/b) * (1 + 1/(ab))
    return (a / b) * (1.0 + 1.0 / (a * b))


def bessel_half_second_moment(a, b):
    # E[X^2] = (a/b)^2 * K_{5/2}(ab) / K_{1/2}(ab) = (a/b)^2 (1 + 3/(ab) + 3/(ab)^2)
    return (a / b) ** 2 * (1.0 + 3.0 / (a * b) + 3.0 / (a * b) ** 2)


class TestMoments:
    def test_unit_parameters_mean(self):
        rng = np.random.default_rng(11)
        x = sample_gig_half(np.ones(1_000_000), 1.0, rng)
        assert x.mean() == pytest.approx(2.0, abs=0.01)

    def test_a2_b1_mean(self):
        rng = np.random.default_rng(12)
        x = sample_gig_half(np.full(1_000_000, 2.0), 1.0, rng)
        assert x.mean() == pytest.approx(3.0, abs=0.02)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_grid_first_and_second_moments(self, a, b):
        rng = np.random.default_rng(hash((a, b)) % 2**32)
        n = 200_000
        x = sample_gig_half(np.full(n, a), b, rng)
        m1, m2 = bessel_half_mean(a, b), bessel_half_second_moment(a, b)
        se1 = x.std(ddof=1) / np.sqrt(n)
        assert abs(x.mean() - m1) < 4.0 * se1
        se2 = (x**2).std(ddof=1) / np.sqrt(n)
        assert abs(np.mean(x**2) - m2) < 4.0 * se2

    def test_reciprocal_property(self):
        # 1/X is inverse Gaussian with mean b/a; at a = b = 1 that mean is 1
        rng = np.random.default_rng(13)
        n = 1_000_000
        x = sample_gig_half(np.ones(n), 1.0, rng)
        inv = 1.0 / x
        se = inv.std(ddof=1) / np.sqrt(n)
        assert abs(inv.mean() - 1.0) < 4.0 * se


class TestShapesAndEdges:
    def test_positive_support(self):
        rng = np.random.default_rng(14)
        x = sample_gig_half(np.full(100_000, 1e-3), 5.0, rng)
        assert np.all(x > 0)

    def test_scalar_call(self):
        rng = np.random.default_rng(15)
        x = sample_gig_half(1.0, 1.0, rng)
        assert isinstance(x, float) and x > 0

    def test_zero_a_is_gamma_limit(self):
        # a = 0 collapses to Gamma(1/2, rate b^2/2): mean 1/b^2, second moment 3/b^4
        rng = np.random.default_rng(16)
        b = 1.7
        x = sample_gig_half(np.zeros(400_000), b, rng)
        assert x.mean() == pytest.approx(1.0 / b**2, rel=0.02)
        assert np.mean(x**2) == pytest.approx(3.0 / b**4, rel=0.05)

    def test_negative_parameters_rejected(self):
        rng = np.random.default_rng(17)
        with pytest.raises(DomainError):
            sample_gig_half(-1.0, 1.0, rng)
        with pytest.raises(DomainError):
            sample_gig_half(1.0, -1.0, rng)

    def test_b_zero_rejected(self):
        rng = np.random.default_rng(18)
        with pytest.raises(DomainError):
            sample_gig_half(1.0, 0.0, rng)

    def test_reproducible(self):
        x1 = sample_gig_half(np.full(100, 1.2), 0.8, np.random.default_rng(19))
        x2 = sample_gig_half(np.full(100, 1.2), 0.8, np.random.default_rng(19))
        assert x1.tobytes() == x2.tobytes()

    def test_density_shape_against_histogram(self):
        # normalized target x^{-1/2} exp(-(a^2/x + b^2 x)/2) via trapezoid
        a, b = 1.3, 0.9
        rng = np.random.default_rng(20)
        x = sample_gig_half(np.full(500_000, a), b, rng)
        grid = np.linspace(1e-4, 40, 20_001)
        raw = grid**-0.5 * np.exp(-(a**2 / grid + b**2 * grid) / 2.0)
        dens = raw / np.trapezoid(raw, grid)
        hist, edges = np.histogram(x[x < 40], bins=200, range=(0, 40), density=True)
        centers = 0.5 * (edges[1:] + edges[:-1])
        expected = np.interp(centers, grid, dens)
        mask = expected > 0.01
        assert np.max(np.abs(hist[mask] - expected[mask])) < 0.03


class TestKernelLanes:
    """The kernel divides ratio by h in every lane and keeps the quotient
    only where the draw accepts.  A rejecting lane's quotient may overflow;
    the draw must keep the reference's bytes, and warn only where the
    reference's masked arithmetic would."""

    N = 20_000
    SEED = 22

    def _h_and_accept(self):
        # each lane's h at ab = 1 and its acceptance, from the normals and
        # uniforms sample_gig_half draws for SEED
        rng = np.random.default_rng(self.SEED)
        y = rng.standard_normal(self.N) ** 2
        u = rng.random(self.N)
        t = 4.0 * y
        h = t / (y + np.sqrt(y * y + t)) ** 2
        return h, u <= 1.0 / (1.0 + h)

    def test_overflowing_discarded_quotients(self):
        # rejecting lanes get ratio = a / b = 2^1022 at ab = 1, so ratio / h
        # overflows wherever h < 1/4; accepting lanes keep a = b = 1
        h, accept = self._h_and_accept()
        scale = np.where(accept, 1.0, 2.0**511)
        a, b = scale, 1.0 / scale
        overflowing = ~accept & (h < 0.25)
        assert overflowing.sum() > 50
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sample_gig_half(a, b, np.random.default_rng(self.SEED))
        with np.errstate(over="ignore"):
            want = ref.sample_gig_half(a, b, np.random.default_rng(self.SEED))
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(got[overflowing]).all()

    def test_zero_h_lanes_accept_and_warn(self):
        # ab = 2^-1080 underflows to 0 without reaching the gamma limit, so
        # h = 0 and every lane accepts ratio / 0 = inf, warning as the
        # reference does
        a = np.full(100, 2.0**-540)
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            got = sample_gig_half(a, a, np.random.default_rng(self.SEED))
        with np.errstate(divide="ignore", over="ignore"):
            want = ref.sample_gig_half(a, a, np.random.default_rng(self.SEED))
        assert got.tobytes() == want.tobytes()
        assert np.isposinf(got).all()

    def test_validation_skips_nan_like_the_comparisons(self):
        # a NaN neither passes nor fails a parameter check, as with (a < 0).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sample_gig_half(np.array([np.nan, 1.0]), np.array([1.0, np.nan]),
                                  np.random.default_rng(self.SEED))
        assert np.isnan(got).all()
        for a, b in (([np.nan, -1.0], 1.0), (1.0, [np.nan, 0.0]), (1.0, [np.nan, -0.0])):
            with pytest.raises(DomainError):
                sample_gig_half(np.array(a), np.array(b), np.random.default_rng(self.SEED))
        assert sample_gig_half(np.zeros(0), 1.0, np.random.default_rng(self.SEED)).shape == (0,)
