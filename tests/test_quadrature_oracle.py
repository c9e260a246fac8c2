"""The exact-posterior quadrature oracle used by the acceptance suite."""

import numpy as np
import pytest

from dirquant.geometry import Dataset, Direction, orthonormal_complement, project
from dirquant.optimize import frequentist_fit
from dirquant.simlab import DgpSpec, dgp_sample, population_params_oracle
from quadrature_oracle import _check_loss_sums, exact_posterior
from references import check_loss

U45 = np.array([1.0, 1.0]) / np.sqrt(2.0)
U01 = np.array([0.0, 1.0])


def symmetric_sample(direction: Direction, rng, m: int = 100) -> Dataset:
    """Projected coordinates closed under (y_u, y_perp) -> (+-y_u, +-y_perp),
    hence point-symmetric."""
    base = rng.standard_normal((m, 2)) * [2.0, 1.0]
    coords = np.vstack([base * signs for signs in ([1, 1], [1, -1], [-1, 1], [-1, -1])])
    gamma = orthonormal_complement(direction.u).gamma[:, 0]
    return Dataset(y=np.outer(coords[:, 0], direction.u) + np.outer(coords[:, 1], gamma))


def test_check_loss_sums_are_exact(rng):
    direction = Direction(u=U45, tau=0.2)
    projected = project(dgp_sample(DgpSpec(id=2, n=300, seed=4)), direction,
                        orthonormal_complement(direction.u))
    y_u, y_perp = projected.y_u, projected.y_perp[:, 0]
    betas, alphas = rng.normal(size=7), np.append(rng.normal(size=6), y_u[0])  # one alpha on a kink
    direct = np.array([[np.sum(check_loss(y_u - a - b * y_perp, 0.2)) for a in alphas]
                       for b in betas])
    np.testing.assert_allclose(_check_loss_sums(y_u, y_perp, 0.2, betas, alphas), direct,
                               rtol=1e-12, atol=1e-10)


@pytest.mark.parametrize("u", [U01, U45])
def test_symmetric_sample_has_zero_posterior_mean(u, rng):
    """At tau = 0.5 the check loss is even, so a point-symmetric sample and the
    centred prior give a posterior symmetric under theta -> -theta."""
    direction = Direction(u=u, tau=0.5)
    post = exact_posterior(symmetric_sample(direction, rng), direction)
    assert np.all(post.sd > 0)
    assert np.all(np.abs(post.mean) <= 1e-9 * post.sd)


@pytest.mark.parametrize("u", [U01, U45])
@pytest.mark.parametrize("n", [100, 1000])
def test_stable_under_grid_refinement(u, n):
    """Tripling the refined grid moves the moments by under 1e-3 posterior sd,
    far below the Monte Carlo error of any chain the oracle is compared with."""
    direction = Direction(u=u, tau=0.2)
    data = dgp_sample(DgpSpec(id=2, n=n, seed=n))
    coarse = exact_posterior(data, direction)
    fine = exact_posterior(data, direction, points=(161, 481))
    assert np.all(np.abs(fine.mean - coarse.mean) <= 1e-3 * coarse.sd)
    assert np.all(np.abs(fine.sd / coarse.sd - 1.0) <= 1e-3)


def test_rejects_models_outside_k2_p0():
    data = Dataset(y=np.zeros((10, 2)) + np.arange(10)[:, None], x=np.arange(10.0)[:, None])
    with pytest.raises(ValueError):
        exact_posterior(data, Direction(u=U01, tau=0.2))


# datasets per sample size, fixed before the test first ran; the
# exact-posterior probe behind ROADMAP item 3 used 200, 200, 120 and 60
BIAS_DATASETS = {250: 150, 1000: 150, 4000: 80, 16000: 30}


def test_posterior_mean_bias_falls_with_n():
    """The unit-scale exact posterior mean's beta bias, in sampling sd, on
    DGP 2 at u = 45 deg, tau = 0.2: -1.34, -0.71, -0.26 and -0.04 at the
    probe's n = 250, 1,000, 4,000 and 16,000.  It shrinks as n grows, as
    asymptotically correct intervals need; no sampler runs.  With R
    datasets a ratio carries a Monte Carlo error of about R^(-1/2) sd, so
    the orderings asserted are several such errors wide."""
    direction = Direction(u=U45, tau=0.2)
    basis = orthonormal_complement(direction.u)
    truth = population_params_oracle(2, direction, 1_000_000, basis=basis).beta_y[0]
    ratio = {}
    for n, datasets in BIAS_DATASETS.items():
        means = np.array([exact_posterior(dgp_sample(DgpSpec(id=2, n=n, seed=1000 * n + rep)),
                                          direction, basis=basis).mean[0]
                          for rep in range(datasets)])
        ratio[n] = abs(means.mean() - truth) / means.std(ddof=1)
    assert ratio[250] > 1.0
    assert ratio[250] > ratio[1000] > ratio[4000]
    assert ratio[1000] > ratio[16000]


# response scales c of the property test below, in increasing order
SCALES = (0.25, 1.0, 4.0, 16.0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_posterior_mean_approaches_the_fit_as_the_response_grows(seed):
    """Under y -> c y the check-loss fit is equivariant: its slope stays and
    its alpha scales by c.  The unit-scale working likelihood is not: with
    its scale and the prior fixed, a larger c makes the likelihood sharper,
    and the exact posterior mean's slope draws nearer the fit's.  On DGP 2
    at n = 1,000, u = 45 deg, tau = 0.2, the gap read 0.135, 0.048, 0.016
    and 0.007 at c = 0.25, 1, 4 and 16 on seed 1 (seeds 2 and 3 alike);
    no sampler runs."""
    direction = Direction(u=U45, tau=0.2)
    basis = orthonormal_complement(direction.u)
    data = dgp_sample(DgpSpec(id=2, n=1000, seed=seed))
    base = frequentist_fit(data, direction, basis=basis).theta
    gaps = []
    for c in SCALES:
        scaled = Dataset(y=c * data.y)
        fit = frequentist_fit(scaled, direction, basis=basis).theta
        assert fit.beta_y[0] == pytest.approx(base.beta_y[0], rel=1e-9)
        assert fit.alpha / c == pytest.approx(base.alpha, rel=1e-9)
        gaps.append(abs(exact_posterior(scaled, direction, basis=basis).mean[0] - fit.beta_y[0]))
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
