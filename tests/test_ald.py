import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirquant.ald import HyperplaneParams, mixture_constants
from dirquant.errors import DomainError
from dirquant.geometry import Dataset, Direction, orthonormal_complement, project
from references import ald_cdf, ald_logpdf, loglik_conditional, loglik_unconditional


class TestAldDensity:
    def test_center_value(self):
        assert ald_logpdf(0.0, 0.0, 1.0, 0.5) == pytest.approx(np.log(0.25))

    def test_positive_residual(self):
        assert ald_logpdf(2.0, 0.0, 1.0, 0.5) == pytest.approx(np.log(0.25) - 1.0)

    def test_sigma_domain(self):
        with pytest.raises(DomainError):
            ald_logpdf(0.0, 0.0, 0.0, 0.5)

    def test_normalization_by_quadrature(self):
        # trapezoid-rule oracle on a wide grid
        grid = np.linspace(-120.0, 120.0, 2_000_001)
        dens = np.exp(ald_logpdf(grid, 0.0, 1.0, 0.2))
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.8])
    def test_normalization_grid(self, sigma, tau):
        grid = np.linspace(-300.0, 300.0, 600_001)
        dens = np.exp(ald_logpdf(grid, 0.0, sigma, tau))
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-5)

    def test_cdf_matches_density_integral(self):
        tau, grid = 0.3, np.linspace(-40.0, 25.0, 400_001)
        dens = np.exp(ald_logpdf(grid, 0.0, 1.0, tau))
        approx = np.cumsum(dens) * (grid[1] - grid[0])
        exact = ald_cdf(grid, 0.0, 1.0, tau)
        assert np.max(np.abs(approx - exact)) < 1e-3
        assert ald_cdf(0.0, 0.0, 1.0, tau) == pytest.approx(tau)


class TestMixture:
    def test_symmetric_case(self):
        mc = mixture_constants(0.5)
        assert mc.eta == pytest.approx(0.0)
        assert mc.gamma == pytest.approx(np.sqrt(8.0))

    def test_tau_02(self):
        mc = mixture_constants(0.2)
        assert mc.eta == pytest.approx(3.75)
        assert mc.gamma**2 == pytest.approx(12.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            mixture_constants(1.0)

    @pytest.mark.parametrize("tau", [0.1, 0.2, 0.5, 0.8])
    def test_mixture_matches_ald_cdf(self, tau):
        n = 400_000
        rng = np.random.default_rng(hash(("mixture", tau)) % 2**32)
        mc = mixture_constants(tau)
        w = rng.exponential(size=n)
        eps = mc.eta * w + mc.gamma * np.sqrt(w) * rng.standard_normal(n)
        eps.sort()
        cdf = ald_cdf(eps, 0.0, 1.0, tau)
        steps = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(cdf - steps)), np.max(np.abs(cdf - (steps - 1.0 / n))))
        assert ks < 3.0 / np.sqrt(n)


def _projected(data, direction):
    basis = orthonormal_complement(direction.u)
    return project(data, direction, basis), basis


class TestUnconditionalLikelihood:
    def test_single_observation_at_plane(self):
        direction = Direction(u=np.array([0.0, 1.0]), tau=0.2)
        data = Dataset(y=np.array([[3.0, 0.5]]))
        pr, _ = _projected(data, direction)
        theta = HyperplaneParams(alpha=0.5 - 3.0 * 0.7, beta_y=np.array([0.7]))
        ll = loglik_unconditional(pr, data.x, theta, direction)
        assert ll == pytest.approx(np.log(0.16))

    def test_duplicating_rows_doubles(self, normal_data, diag_direction):
        pr, _ = _projected(normal_data, diag_direction)
        theta = HyperplaneParams(alpha=-0.5, beta_y=np.array([0.2]))
        single = loglik_unconditional(pr, normal_data.x, theta, diag_direction)
        doubled_data = Dataset(y=np.vstack([normal_data.y, normal_data.y]))
        pr2, _ = _projected(doubled_data, diag_direction)
        double = loglik_unconditional(pr2, doubled_data.x, theta, diag_direction)
        assert double == pytest.approx(2.0 * single, rel=1e-12)

    def test_equals_sum_of_densities(self, diag_direction):
        data = Dataset(y=np.array([[0.1, 0.4], [-0.3, 0.2], [0.5, -0.1]]))
        pr, _ = _projected(data, diag_direction)
        theta = HyperplaneParams(alpha=-0.2, beta_y=np.array([0.3]))
        mu = theta.alpha + pr.y_perp @ theta.beta_y
        by_hand = float(np.sum(ald_logpdf(pr.y_u, mu, 1.0, diag_direction.tau)))
        assert loglik_unconditional(pr, data.x, theta, diag_direction) == pytest.approx(
            by_hand, abs=1e-12
        )


class TestConditionalLikelihood:
    def test_unit_weights_reduce_to_unconditional(self, normal_data, diag_direction):
        pr, _ = _projected(normal_data, diag_direction)
        theta = HyperplaneParams(alpha=-0.4, beta_y=np.array([0.1]))
        design = np.column_stack([np.ones(normal_data.n), pr.y_perp])
        flat = loglik_conditional(
            pr.y_u, design, np.array([-0.4, 0.1]), diag_direction.tau, np.ones(normal_data.n)
        )
        assert flat == pytest.approx(
            loglik_unconditional(pr, normal_data.x, theta, diag_direction), rel=1e-12
        )

    def test_vanishing_weight_kills_loss_term(self):
        y_u = np.array([5.0])
        design = np.array([[1.0]])
        theta = np.array([0.0])
        small = loglik_conditional(y_u, design, theta, 0.2, np.array([1e-12]))
        # contribution reduces to log(tau(1-tau)) + log(w): the loss part vanishes
        assert small == pytest.approx(np.log(0.16) + np.log(1e-12), rel=1e-9)

    def test_two_point_hand_case(self):
        y_u = np.array([1.0, -1.0])
        design = np.array([[1.0], [1.0]])
        w = np.array([2.0, 0.5])
        tau = 0.2
        expected = (
            np.log(0.16) + np.log(2.0) - 2.0 * 0.2 * 1.0
            + np.log(0.16) + np.log(0.5) - 0.5 * 0.8 * 1.0
        )
        assert loglik_conditional(y_u, design, np.zeros(1), tau, w) == pytest.approx(expected, abs=1e-12)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(DomainError):
            loglik_conditional(np.zeros(1), np.ones((1, 1)), np.zeros(1), 0.2, np.zeros(1))


class TestConcavity:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), tau=st.floats(0.1, 0.9))
    def test_no_positive_second_difference(self, seed, tau):
        rng = np.random.default_rng(seed)
        data = Dataset(y=rng.normal(size=(60, 2)))
        direction = Direction(u=np.array([0.0, 1.0]), tau=tau)
        pr, _ = _projected(data, direction)
        base = rng.normal(size=2)
        step = rng.normal(size=2)
        step /= np.linalg.norm(step)
        h = 1e-3

        def value(t):
            theta = HyperplaneParams(alpha=base[0] + t * step[0], beta_y=np.array([base[1] + t * step[1]]))
            return loglik_unconditional(pr, data.x, theta, direction)

        second = value(h) - 2.0 * value(0.0) + value(-h)
        assert second <= 1e-8
