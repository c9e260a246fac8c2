import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirquant.errors import DomainError
from dirquant.priors import (
    normal_cdf,
    normal_quantile,
    normal_radius,
    ratio_normals_elliptical_approx,
    ratio_normals_is_bimodal,
    ratio_normals_location_scale,
    ratio_normals_pdf,
    reciprocal_gaussian_mode_ratio,
    reciprocal_gaussian_modes,
    reciprocal_gaussian_pdf,
    spherical_prior,
    uniform_ball_radius,
)

U45 = np.array([1.0, 1.0]) / np.sqrt(2.0)


class TestNormalQuantile:
    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(1e-9, 1.0 - 1e-9))
    def test_matches_reference_quantile(self, p):
        # stdlib NormalDist implements an independent high-accuracy algorithm
        assert abs(normal_quantile(p) - NormalDist().inv_cdf(p)) < 1e-8

    def test_cdf_roundtrip(self):
        for p in (0.01, 0.2, 0.5, 0.77, 0.999):
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            normal_quantile(0.0)

    @pytest.mark.parametrize("p, reference", [
        # 17-digit roots of Phi(x) = p for the double p, found at 50 digits
        (1e-6, -4.7534243088228990),
        (0.95, 1.6448536269514723),
        (0.999999, 4.7534243088170878),
    ])
    def test_matches_high_precision_references(self, p, reference):
        assert abs(normal_quantile(p) - reference) < 1e-14


class TestRadii:
    def test_normal_radius_values(self):
        # frozen from the reference quantile oracle
        assert normal_radius(0.05) == pytest.approx(1.6448536269514722, abs=1e-8)
        assert normal_radius(0.2) == pytest.approx(0.8416212335729143, abs=1e-8)

    def test_normal_radius_median_limit(self):
        assert normal_radius(0.4999999) < 3e-7

    def test_normal_radius_domain(self):
        with pytest.raises(DomainError):
            normal_radius(0.6)

    def test_ball_radius_residual(self):
        rng = np.random.default_rng(0)
        for tau in rng.uniform(0.001, 0.499, size=100):
            r = uniform_ball_radius(float(tau))
            resid = math.asin(r) + r * math.sqrt(1 - r * r) - math.pi * (0.5 - tau)
            assert abs(resid) < 1e-10

    def test_ball_radius_limits(self):
        assert uniform_ball_radius(0.499999) < 1e-3
        assert uniform_ball_radius(1e-6) > 0.995

    def test_ball_radius_quarter(self):
        r = uniform_ball_radius(0.25)
        assert math.asin(r) + r * math.sqrt(1 - r * r) == pytest.approx(math.pi / 4, abs=1e-12)


class TestSphericalPrior:
    def test_standard_normal_family(self):
        sp = spherical_prior(0.2, "standard-normal", k=2, p=0)
        assert np.allclose(sp.spec.mean, [0.0, -0.8416212335729143], atol=1e-8)
        assert np.allclose(np.diag(sp.spec.covariance), [1000.0, 1000.0])

    def test_default_weak_prior_covariance(self):
        sp = spherical_prior(0.2, "standard-normal", k=2, p=1,
                             alpha_variance=1000.0, beta_variance=1000.0)
        assert np.allclose(sp.spec.covariance, 1000.0 * np.eye(3))
        assert sp.spec.mean[0] == 0.0 and sp.spec.mean[1] == 0.0

    def test_upper_tail_sign_flip(self):
        sp = spherical_prior(0.8, "standard-normal", k=2, p=0)
        assert sp.spec.mean[-1] == pytest.approx(0.8416212335729143, abs=1e-8)

    def test_custom_radius(self):
        sp = spherical_prior(0.3, "custom-radius", k=3, p=0, radius=2.5)
        assert sp.spec.mean[-1] == -2.5
        assert sp.spec.mean.shape == (3,)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            spherical_prior(0.2, "pareto", k=2)


class TestReciprocalGaussian:
    MU, SD = 0.3, 0.7

    def test_integrates_to_one_by_substitution(self):
        # change of variables psi = 1/(phi - pole) turns each side of the pole
        # into half of the source normal density
        u1 = U45[0]
        a = self.MU * u1 * u1 - u1 * U45[1]
        b = abs(u1 * u1 * self.SD)
        pole = U45[1] / U45[0]
        total = 0.0
        for sign in (1.0, -1.0):
            psi = sign * np.exp(np.linspace(np.log(1e-8), np.log(1e6), 400_001))
            phi = pole + 1.0 / psi
            dens = reciprocal_gaussian_pdf(phi, self.MU, self.SD, U45)
            total += abs(np.trapezoid(dens / psi**2, psi))
        assert total == pytest.approx(1.0, abs=1e-5)

    def test_pushforward_of_normal_samples(self):
        rng = np.random.default_rng(1)
        beta = rng.normal(self.MU, self.SD, size=100_000)
        u1, u2 = U45
        u1p, u2p = -u2, u1  # ccw complement
        phi = (beta * u1p - u1) / (u2 - beta * u2p)
        lim = 50.0
        grid = np.linspace(-lim, lim, 1_000_001)
        dens = reciprocal_gaussian_pdf(grid, self.MU, self.SD, U45)
        cdf = np.cumsum(dens) * (grid[1] - grid[0])
        inside = np.sort(phi[np.abs(phi) < lim - 1])
        pos = np.searchsorted(grid, inside)
        ks = np.max(np.abs(cdf[pos] - (np.arange(inside.size) + 0.5) / phi.size))
        assert ks < 0.005

    def test_modes_are_critical_points(self):
        m1, m2 = reciprocal_gaussian_modes(self.MU, self.SD, U45)
        h = 1e-6
        for m in (m1, m2):
            deriv = (
                reciprocal_gaussian_pdf(m + h, self.MU, self.SD, U45)
                - reciprocal_gaussian_pdf(m - h, self.MU, self.SD, U45)
            ) / (2 * h)
            assert abs(deriv) < 1e-6

    def test_symmetric_case_ratio_one(self):
        # a = 0 makes the modes symmetric about the pole and equally tall
        mu = U45[1] / U45[0]  # forces a = 0
        m1, m2 = reciprocal_gaussian_modes(mu, self.SD, U45)
        pole = U45[1] / U45[0]
        assert m1 - pole == pytest.approx(-(m2 - pole), rel=1e-12)
        assert reciprocal_gaussian_mode_ratio(mu, self.SD, U45) == pytest.approx(1.0)
        f1 = reciprocal_gaussian_pdf(m1, mu, self.SD, U45)
        f2 = reciprocal_gaussian_pdf(m2, mu, self.SD, U45)
        assert f1 == pytest.approx(f2, rel=1e-9)

    def test_printed_ratio_vs_density_ratio(self):
        # the closed form as printed carries b^4 in the exponent denominator;
        # evaluating the density at the modes corresponds to 2 b^2 instead.
        # keep the printed form, document the discrepancy, verify both here.
        u1 = U45[0]
        a = self.MU * u1 * u1 - u1 * U45[1]
        b = abs(u1 * u1 * self.SD)
        m1, m2 = reciprocal_gaussian_modes(self.MU, self.SD, U45)
        numeric = float(
            reciprocal_gaussian_pdf(m1, self.MU, self.SD, U45)
            / reciprocal_gaussian_pdf(m2, self.MU, self.SD, U45)
        )
        printed = reciprocal_gaussian_mode_ratio(self.MU, self.SD, U45)
        root = math.sqrt(a * a + 8 * b * b)
        pref = (a * a + a * root + 4 * b * b) / (a * a - a * root + 4 * b * b)
        assert printed == pytest.approx(pref * math.exp(a * root / b**4), rel=1e-12)
        assert numeric == pytest.approx(pref * math.exp(a * root / (2 * b * b)), rel=1e-6)
        assert not math.isclose(printed, numeric, rel_tol=0.5)  # genuinely different here

    def test_pole_is_zero_without_warning(self):
        pole = U45[1] / U45[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dens = reciprocal_gaussian_pdf(np.array([pole - 0.5, pole, pole + 0.5]), self.MU, self.SD, U45)
            at_pole = reciprocal_gaussian_pdf(pole, self.MU, self.SD, U45)
        assert dens[1] == 0.0 and at_pole == 0.0
        assert dens[0] > 0.0 and dens[2] > 0.0

    def test_near_the_pole_is_zero_without_warning(self):
        # u2 = 0 puts the pole at 0, where t*t underflows and 1/(c t^2)
        # overflows while the exponential is already 0; the limit is 0
        u = np.array([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dens = reciprocal_gaussian_pdf(np.array([1e-160, 1e-200, -1e-170]), self.MU, self.SD, u)
            scalar = reciprocal_gaussian_pdf(1e-160, self.MU, self.SD, u)
        assert dens.tolist() == [0.0, 0.0, 0.0] and scalar == 0.0

    def test_values_off_the_pole_follow_the_closed_form(self):
        # the same float operations as the density's closed form, bit for bit
        u1, u2 = U45
        a = self.MU * u1 * u1 - u1 * u2
        b = abs(u1 * u1 * self.SD)
        pole = u2 / u1
        phi = pole + np.linspace(-6.0, 6.0, 2000)  # an even count misses the pole
        t = phi - pole
        expected = 1.0 / (np.sqrt(2.0 * np.pi * b * b) * t * t) * np.exp(-((1.0 / t - a) ** 2) / (2.0 * b * b))
        dens = reciprocal_gaussian_pdf(phi, self.MU, self.SD, U45)
        assert dens.tobytes() == expected.tobytes()

    def test_vertical_direction_unsupported(self):
        with pytest.raises(DomainError):
            reciprocal_gaussian_pdf(0.0, 0.0, 1.0, np.array([0.0, 1.0]))


class TestRatioNormals:
    def test_cauchy_reduction(self):
        assert ratio_normals_pdf(0.0, 0.0, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
        grid = np.linspace(-30, 30, 200_001)
        cauchy = 1.0 / (math.pi * (1 + grid**2))
        assert np.max(np.abs(ratio_normals_pdf(grid, 0.0, 0.0) - cauchy)) < 1e-12

    def test_integrates_to_one_tan_substitution(self):
        theta = np.linspace(-np.pi / 2 + 1e-9, np.pi / 2 - 1e-9, 400_001)
        phi = np.tan(theta)
        dens = ratio_normals_pdf(phi, 1.0, 2.0) / np.cos(theta) ** 2
        assert np.trapezoid(dens, theta) == pytest.approx(1.0, abs=1e-5)

    def test_matches_monte_carlo_ratio(self):
        a, b = 1.0, 2.0
        rng = np.random.default_rng(2)
        z = rng.standard_normal((400_000, 2))
        samples = (z[:, 0] + a) / (z[:, 1] + b)
        lim = 60.0
        grid = np.linspace(-lim, lim, 1_200_001)
        cdf = np.cumsum(ratio_normals_pdf(grid, a, b)) * (grid[1] - grid[0])
        inside = np.sort(samples[np.abs(samples) < lim - 1])
        pos = np.searchsorted(grid, inside)
        ks = np.max(np.abs(cdf[pos] - (np.arange(inside.size) + 0.5) / samples.size))
        assert ks < 0.005

    def test_location_scale_footnote(self):
        a, b, c, d = ratio_normals_location_scale(1.0, 2.0, 0.5, 4.0, 0.6)
        assert a == pytest.approx(2.0)
        assert b == pytest.approx(0.5)
        assert c == pytest.approx((0.5 / 4.0) * math.sqrt(1 - 0.36))
        assert d == pytest.approx(c * 0.6 / math.sqrt(1 - 0.36))

    def test_location_scale_uncorrelated_pushforward(self):
        # with rho = 0 the construction reproduces W1/W2 exactly
        t1, t2, s1, s2 = 0.8, 3.0, 0.5, 1.5
        a, b, c, d = ratio_normals_location_scale(t1, t2, s1, s2, 0.0)
        rng = np.random.default_rng(3)
        z = rng.standard_normal((200_000, 2))
        w1 = t1 + s1 * z[:, 0]
        w2 = t2 + s2 * z[:, 1]
        direct = np.sort(w1 / w2)
        rebuilt = np.sort(c * (z[:, 0] + a) / (z[:, 1] + b) + d)
        qs = np.linspace(0.01, 0.99, 99)
        assert np.max(np.abs(np.quantile(direct, qs) - np.quantile(rebuilt, qs))) < 0.01

    def test_elliptical_approx_value(self):
        mu, sigma_sq = ratio_normals_elliptical_approx(1.0, 5.0)
        assert mu == pytest.approx(1.0 / (1.01 * 5.0 - 0.2713), rel=1e-12)
        assert mu == pytest.approx(0.2093, abs=2e-4)
        assert sigma_sq == pytest.approx((1.0 + 1.0) / (25.0 + 0.54 - 3.795) - mu**2, rel=1e-12)

    def test_elliptical_domain(self):
        with pytest.raises(DomainError):
            ratio_normals_elliptical_approx(3.0, 5.0)
        with pytest.raises(DomainError):
            ratio_normals_elliptical_approx(1.0, 2.0)

    def test_bimodality_classification(self):
        assert not ratio_normals_is_bimodal(0.5, 1.0)
        assert not ratio_normals_is_bimodal(1.0, 6.0)
        assert ratio_normals_is_bimodal(4.0, 0.0)
        assert ratio_normals_is_bimodal(3.0, 0.5)
