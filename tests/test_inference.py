import numpy as np
import pytest

from dirquant.ald import HyperplaneParams
from dirquant.errors import DomainError, ShapeError
from dirquant.geometry import Dataset
from dirquant.inference import (
    asymptotic_ci,
    chain_diagnostics,
    effective_sample_size,
    lower_halfspace_indicator,
    naive_ci,
    posterior_mean,
    score_covariance_matrix,
    split_rhat,
    subgradient_diagnostics,
)
from dirquant.optimize import frequentist_fit
from dirquant.samplers import Chain, PriorSpec, gibbs_unconditional

PRIOR2 = PriorSpec(mean=np.zeros(2), covariance=1000.0 * np.eye(2))


def _chain_from(draws, burn_in=0, layout=None, names=()):
    return Chain(draws=draws, burn_in=burn_in, seed=0, sampler="metropolis",
                 names=names, layout=layout)


class TestPosteriorMean:
    def test_constant_chain(self):
        v = np.array([0.4, -1.2])
        chain = _chain_from(np.tile(v, (50, 1)), layout=(2, 0), names=("beta_y_0", "alpha"))
        theta = posterior_mean(chain)
        assert theta.alpha == pytest.approx(-1.2)
        assert theta.beta_y[0] == pytest.approx(0.4)

    def test_prior_chain_recovers_prior_mean(self, square_data, diag_direction):
        prior = PriorSpec(mean=np.array([0.7, -0.9]), covariance=np.diag([0.04, 0.01]))
        chain = gibbs_unconditional(None, diag_direction, prior, n_draws=4000, burn_in=0, seed=1)
        theta = posterior_mean(chain)
        assert theta.beta_y[0] == pytest.approx(0.7, abs=3.5 * 0.2 / np.sqrt(4000))
        assert theta.alpha == pytest.approx(-0.9, abs=3.5 * 0.1 / np.sqrt(4000))

    def test_single_post_burn_draw_allowed_empty_rejected(self):
        from dirquant.inference import posterior_vector

        chain = _chain_from(np.zeros((5, 2)), burn_in=4)
        assert posterior_vector(chain).shape == (2,)
        with pytest.raises(ShapeError):
            Chain(draws=np.zeros((5, 2)), burn_in=5, seed=0, sampler="metropolis")


def _scores(data, direction, theta):
    """The per-row scores psi_i = (tau - 1{i below}) * (1, y_i)."""
    below = lower_halfspace_indicator(data, direction, theta)
    return (direction.tau - below)[:, None] * np.column_stack([np.ones(data.n), data.y])


class TestScoreCovariance:
    def test_is_the_score_covariance(self, square_data, diag_direction):
        theta = HyperplaneParams(alpha=-0.26, beta_y=np.array([0.0]))
        v_c = score_covariance_matrix(square_data, diag_direction, theta)
        psi = _scores(square_data, diag_direction, theta)
        assert v_c.shape == (3, 3)
        assert np.array_equal(v_c, v_c.T)
        np.testing.assert_allclose(v_c, np.cov(psi.T, bias=True), rtol=1e-12, atol=1e-15)
        # the lower-right block keeps its bytes: the covariance of (tau - 1{below}) * y
        g = psi[:, 1:] - psi[:, 1:].mean(axis=0)
        assert np.array_equal(v_c[1:, 1:], g.T @ g / square_data.n)

    def test_positive_semidefinite_far_from_the_origin(self, square_data, diag_direction):
        # responses near 520, as test scores are: a mixed estimator (population
        # tau(1-tau) corner, empirical lower-right block) loses definiteness here
        theta = HyperplaneParams(alpha=520.0 * np.sqrt(2.0) - 0.26, beta_y=np.array([0.0]))
        data = Dataset(y=square_data.y + 520.0)
        v_c = score_covariance_matrix(data, diag_direction, theta)
        eig = np.linalg.eigvalsh(v_c)
        assert eig.min() >= -1e-12 * eig.max()


class TestAsymptoticCi:
    def test_zero_variance_chain_collapses(self, square_data, diag_direction):
        draws = np.tile(np.array([0.1, -0.3]), (200, 1))
        chain = _chain_from(draws, layout=(2, 0), names=("beta_y_0", "alpha"))
        with pytest.warns(RuntimeWarning):
            ci = asymptotic_ci(chain, square_data, diag_direction)
        assert np.allclose(ci.lower, ci.upper)
        assert ci.messages

    def test_regression_case_refused(self, diag_direction):
        rng = np.random.default_rng(0)
        data = Dataset(y=rng.normal(size=(100, 2)), x=rng.normal(size=(100, 1)))
        chain = _chain_from(rng.normal(size=(200, 3)), layout=(2, 1))
        with pytest.raises(DomainError):
            asymptotic_ci(chain, data, diag_direction)

    def test_interval_brackets_estimate(self, square_data, diag_direction):
        chain = gibbs_unconditional(square_data, diag_direction, PRIOR2,
                                    n_draws=600, burn_in=100, seed=3)
        ci = asymptotic_ci(chain, square_data, diag_direction)
        assert np.all(ci.lower < ci.estimate) and np.all(ci.estimate < ci.upper)
        z = 1.959963984540054
        assert np.allclose(ci.upper - ci.lower, 2 * z * ci.std_error)

    def test_width_shrinks_like_root_n(self, diag_direction):
        # averaged over replications: a single width still carries ~12% noise
        widths = {}
        for n in (100, 10_000):
            acc = []
            for rep in range(10):
                rng = np.random.default_rng(1000 * rep + n)
                data = Dataset(y=rng.uniform(-0.5, 0.5, size=(n, 2)))
                chain = gibbs_unconditional(data, diag_direction, PRIOR2,
                                            n_draws=1000, burn_in=200, seed=rep)
                ci = asymptotic_ci(chain, data, diag_direction)
                acc.append(float(ci.upper[1] - ci.lower[1]))
            widths[n] = float(np.mean(acc))
        ratio = widths[10_000] / widths[100]
        assert 0.08 <= ratio <= 0.12

    def test_naive_wider_than_asymptotic(self, square_data, diag_direction):
        chain = gibbs_unconditional(square_data, diag_direction, PRIOR2,
                                    n_draws=1500, burn_in=300, seed=4)
        ci = asymptotic_ci(chain, square_data, diag_direction)
        nci = naive_ci(chain)
        assert np.all((nci.upper - nci.lower) > (ci.upper - ci.lower))


class TestSubgradients:
    def test_frequentist_fit_satisfies_first_condition(self, normal_data, vertical_direction):
        fit = frequentist_fit(normal_data, vertical_direction)
        report = subgradient_diagnostics(normal_data, vertical_direction, fit.theta)
        assert abs(report.sg1 - vertical_direction.tau) <= 2.0 / normal_data.n + 1e-6
        assert report.sg2.shape == (1,)
        assert report.n == normal_data.n

    def test_one_projection_per_call(self, square_data, diag_direction, projections):
        theta = HyperplaneParams(alpha=-0.26, beta_y=np.array([0.05]))
        subgradient_diagnostics(square_data, diag_direction, theta)
        assert projections == [diag_direction]

    def test_deterministic_membership(self, square_data, diag_direction):
        theta = HyperplaneParams(alpha=-0.26, beta_y=np.array([0.05]))
        a = subgradient_diagnostics(square_data, diag_direction, theta)
        b = subgradient_diagnostics(square_data, diag_direction, theta)
        assert a.sg1 == b.sg1 and np.array_equal(a.sg2, b.sg2)

    def test_strict_inequality_boundary(self, vertical_direction):
        # a point exactly on the hyperplane is not in the open lower halfspace
        data = Dataset(y=np.array([[0.0, -0.3], [0.0, -0.4], [0.0, 0.1]]))
        theta = HyperplaneParams(alpha=-0.3, beta_y=np.array([0.0]))
        report = subgradient_diagnostics(data, vertical_direction, theta)
        assert report.sg1 == pytest.approx(1.0 / 3.0)

    def test_covariates_in_sg2(self, vertical_direction):
        rng = np.random.default_rng(5)
        data = Dataset(y=rng.normal(size=(500, 2)), x=rng.normal(size=(500, 2)))
        theta = HyperplaneParams(alpha=0.0, beta_y=np.array([0.2]), beta_x=np.array([0.1, -0.4]))
        report = subgradient_diagnostics(data, vertical_direction, theta)
        assert report.sg2.shape == (3,)


class TestEss:
    def test_white_noise(self):
        x = np.random.default_rng(6).standard_normal(10_000)
        ess = effective_sample_size(x)
        assert 0.8 * 10_000 <= ess <= 1.2 * 10_000

    def test_ar1_oracle(self):
        rho, m = 0.9, 200_000
        rng = np.random.default_rng(7)
        x = np.empty(m)
        x[0] = rng.standard_normal()
        eps = rng.standard_normal(m) * np.sqrt(1 - rho**2)
        for t in range(1, m):
            x[t] = rho * x[t - 1] + eps[t]
        ess = effective_sample_size(x)
        oracle = m * (1 - rho) / (1 + rho)
        assert abs(ess - oracle) / oracle < 0.3

    def test_constant_chain_flagged(self):
        assert np.isnan(effective_sample_size(np.ones(500)))

    def test_chain_diagnostics_summary(self):
        rng = np.random.default_rng(8)
        draws = rng.standard_normal((2000, 2))
        draws[:, 1] = 0.42
        chain = _chain_from(draws)
        summary = chain_diagnostics(chain)
        assert summary.ess[0] > 1000
        assert summary.degenerate[1]
        assert abs(summary.rhat[0] - 1.0) < 0.02

    def test_too_short_rejected(self):
        chain = _chain_from(np.random.default_rng(1).normal(size=(40, 1)))
        with pytest.raises(ShapeError):
            chain_diagnostics(chain)

    def test_split_rhat_detects_drift(self):
        rng = np.random.default_rng(10)
        drifting = np.concatenate([rng.normal(0, 1, 2000), rng.normal(5, 1, 2000)])
        assert split_rhat([drifting]) > 1.5
        assert split_rhat([rng.normal(size=4000)]) < 1.02
