import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirquant.errors import DomainError
from dirquant.priors import normal_quantile, normal_radius, spherical_prior, uniform_ball_radius


class TestNormalQuantile:
    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(1e-9, 1.0 - 1e-9))
    def test_matches_reference_quantile(self, p):
        # stdlib NormalDist implements an independent high-accuracy algorithm
        assert abs(normal_quantile(p) - NormalDist().inv_cdf(p)) < 1e-8

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

