"""The GIG draw, Gibbs sweep and Newton stage against their first versions.

The library kernels were rewritten for speed on the promise that no output
bit changes.  Each test runs the library kernels and the copies in
``reference_kernels.py`` in this process, on the same inputs and seeds, and
compares bytes, so the check holds under whichever BLAS numpy uses.  The
library's Gibbs engine runs stacked chains; the reference sweep runs a list
of per-block dicts on one Generator, and ``_reference_gibbs`` adapts the one
to the other.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import reference_kernels as ref
from dirquant import optimize, samplers, simlab
from dirquant.ald import mixture_constants
from dirquant.errors import NumericalError, ShapeError
from dirquant.geometry import Dataset, Direction, orthonormal_complement, project
from dirquant.samplers import (
    KernelSpec,
    PriorSpec,
    gibbs_conditional,
    gibbs_unconditional,
    kernel_weights,
    make_conditional_design,
    sample_gig_half,
)


def _same_bytes(new, old):
    new, old = np.asarray(new), np.asarray(old)
    return new.dtype == old.dtype and new.shape == old.shape and new.tobytes() == old.tobytes()


def _gig_pair(a, b, seed, size=None):
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    new = sample_gig_half(a, b, rng_new, size=size)
    old = ref.sample_gig_half(a, b, rng_old, size=size)
    # the same stream consumption: both generators end in the same state
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    return new, old


class TestGigParity:
    def test_scalar(self):
        for a, b in [(1.3, 0.9), (0.0, 2.0), (1e-300, 1.0), (4.0, 1e-3)]:
            new, old = _gig_pair(a, b, 1)
            assert type(new) is type(old) is float
            assert _same_bytes(new, old)

    @pytest.mark.parametrize("a, size", [(0.7, 1), (0.7, 1000), (0.7, (10, 3)), (0.7, ()),
                                         (np.array([0.0, 0.5, 2.0]), (4, 3))])
    def test_size(self, a, size):
        assert _same_bytes(*_gig_pair(a, 1.4, 2, size=size))

    def test_array_b(self):
        rng = np.random.default_rng(4)
        a = np.abs(rng.standard_normal((6, 50)))
        b = rng.uniform(0.1, 3.0, 50)
        assert _same_bytes(*_gig_pair(a, b, 5))
        assert _same_bytes(*_gig_pair(a[0], b, 6))

    def test_zero_and_extreme_a(self):
        # a = 0 takes the gamma limit; 1e-300 and 1e300 stress the rationalized root
        rng = np.random.default_rng(7)
        a = np.abs(rng.standard_normal(5000))
        a[::7] = 0.0
        a[3], a[5], a[11] = 1e-300, 1e300, 1e-155
        assert _same_bytes(*_gig_pair(a, 1.3, 8))
        assert _same_bytes(*_gig_pair(np.zeros(100), 0.5, 9))

    def test_zero_and_underflowing_normal(self):
        # y = nu^2 == 0 (nu = 0, or nu so small that its square underflows)
        # has its own branch; a stub stream forces it
        class Stream:
            def __init__(self):
                self.normal = np.array([0.0, 1e-170, -0.4, 2.0, 0.0, 3e-200])
                self.unif = np.array([0.3, 0.9, 0.5, 0.1, 0.99, 0.2])

            def standard_normal(self, shape):
                return self.normal.reshape(shape).copy()

            def uniform(self, size):
                return self.unif.reshape(size).copy()

            random = uniform

        a = np.array([1.0, 0.5, 0.0, 2.0, 0.0, 1e-160])
        new = sample_gig_half(a, 1.2, Stream())
        old = ref.sample_gig_half(a, 1.2, Stream())
        assert _same_bytes(new, old)

    def test_one_generator_per_row(self):
        # each row draws its normals, then its uniforms, from its own Generator
        rng = np.random.default_rng(21)
        a = np.abs(rng.standard_normal((4, 300)))
        a[1, ::5] = 0.0
        a[2, 7] = 1e-300
        b = rng.uniform(0.5, 2.0, (4, 1))
        rows, gens = [], []
        for j in range(4):
            g = np.random.default_rng(30 + j)
            rows.append(sample_gig_half(a[j], b[j], g))
            gens.append(g)
        stacked_gens = [np.random.default_rng(30 + j) for j in range(4)]
        assert _same_bytes(sample_gig_half(a, b, stacked_gens), np.array(rows))
        assert [g.bit_generator.state for g in stacked_gens] == [g.bit_generator.state for g in gens]

    def test_shared_generator_interleaves_rows(self):
        a = np.abs(np.random.default_rng(22).standard_normal((3, 50)))
        g_rows, g_stacked = np.random.default_rng(23), np.random.default_rng(23)
        rows = np.array([sample_gig_half(a[j], 1.1, g_rows) for j in range(3)])
        assert _same_bytes(sample_gig_half(a, 1.1, [g_stacked] * 3), rows)
        assert g_rows.bit_generator.state == g_stacked.bit_generator.state

    def test_generator_count_must_match_rows(self):
        gens = [np.random.default_rng(0), np.random.default_rng(1)]
        with pytest.raises(ShapeError):
            sample_gig_half(np.ones((3, 4)), 1.0, gens)
        with pytest.raises(ShapeError):
            sample_gig_half(np.ones(4), 1.0, gens)


def _reference_gibbs(y, design, weights, taus, priors, thetas, rngs, n_draws):
    """The engine's interface over the reference sweep: one per-block dict per
    chain, and every chain on the one Generator the reference takes."""
    assert all(g is rngs[0] for g in rngs)
    blocks = []
    for y_j, design_j, weights_j, tau, prior in zip(y, design, weights, taus, priors):
        mc = mixture_constants(tau)
        prec = np.linalg.inv(prior.covariance)
        blocks.append({
            "y": y_j, "design": design_j, "weights": weights_j, "eta": mc.eta,
            "gamma": mc.gamma, "b_lat": float(np.sqrt(2.0 + mc.eta**2 / mc.gamma**2)),
            "prior_prec": prec, "prior_rhs": prec @ prior.mean,
        })
    draws = ref._gibbs_sweeps(blocks, n_draws, rngs[0], list(thetas))
    return draws.reshape(n_draws, len(blocks), -1)


def _reference_stage(z, y, tau, w, *args, **kwargs):
    """The reference Newton stage, which takes unit weights (None) as the
    array of ones it was passed."""
    return ref._newton_stage(z, y, tau, np.ones(z.shape[0]) if w is None else w, *args, **kwargs)


@pytest.fixture
def parent_kernels(monkeypatch):
    """Run a callable with the reference sweep and Newton stage in place."""

    def run(fn):
        with monkeypatch.context() as m:
            m.setattr(samplers, "_gibbs", _reference_gibbs)
            m.setattr(optimize, "_newton_stage", _reference_stage)
            return fn()

    return run


@pytest.fixture
def data():
    rng = np.random.default_rng(11)
    return Dataset(y=rng.standard_normal((400, 2)), x=rng.uniform(-3.0, 3.0, (400, 1)))


class TestGibbsParity:
    def test_unconditional(self, data, parent_kernels):
        direction = Direction(u=np.array([0.6, 0.8]), tau=0.2)
        prior = PriorSpec(mean=np.zeros(3), covariance=1000.0 * np.eye(3))

        def run():
            return gibbs_unconditional(data, direction, prior, n_draws=300, burn_in=50, seed=12)

        assert _same_bytes(run().draws, parent_kernels(run).draws)

    def test_conditional_with_kernel_weights(self, data, parent_kernels):
        direction = Direction(u=np.array([-0.8, 0.6]), tau=0.3)
        basis = orthonormal_complement(direction.u)
        x0 = np.array([0.0])
        design = make_conditional_design(project(data, direction, basis), data.x, x0, "local-bilinear")
        kernel = KernelSpec(bandwidth=0.1)
        weights = kernel_weights(kernel, data.x, x0)
        # weights range from the kernel peak down past 1e-150, where the latent
        # draw takes its gamma limit
        assert weights.max() > 1.0 and weights.min() < 1e-160
        prior = PriorSpec(mean=np.zeros(4), covariance=100.0 * np.eye(4))

        def run():
            return gibbs_conditional(data, direction, design, kernel, prior,
                                     n_draws=300, burn_in=50, seed=13)

        assert _same_bytes(run().draws, parent_kernels(run).draws)


def _stacked_problem(n_chains, n, seed, tiny_weights=False):
    """Engine inputs for chains with their own data, tau, prior and start."""
    rng = np.random.default_rng(seed)
    design = np.concatenate([rng.standard_normal((n_chains, n, 2)), np.ones((n_chains, n, 1))], axis=2)
    y = design @ np.array([0.5, -0.3, 1.0]) + rng.standard_t(3, (n_chains, n))
    weights = rng.uniform(0.2, 3.0, (n_chains, n))
    if tiny_weights:
        # weights far below 1e-160 send the latent draw to its a <= b * 1e-150
        # gamma limit; exact zeros do too
        weights[:, ::3] = 10.0 ** rng.uniform(-300.0, -161.0, weights[:, ::3].shape)
        weights[:, 1::7] = 0.0
    taus = list(rng.uniform(0.05, 0.95, n_chains))
    priors = [PriorSpec(mean=rng.standard_normal(3), covariance=np.diag(rng.uniform(1.0, 100.0, 3)))
              for _ in range(n_chains)]
    thetas = list(rng.standard_normal((n_chains, 3)))
    return y, design, weights, taus, priors, thetas


class TestStackedGibbsParity:
    @pytest.mark.parametrize("n_chains, tiny_weights", [(1, False), (3, True), (25, False), (25, True)])
    def test_own_generators_match_one_chain_runs(self, n_chains, tiny_weights):
        y, design, weights, taus, priors, thetas = _stacked_problem(n_chains, 120, n_chains,
                                                                    tiny_weights)
        gens = [np.random.default_rng(100 + j) for j in range(n_chains)]
        draws = samplers._gibbs(y, design, weights, taus, priors, thetas, gens, 60)
        assert draws.shape == (60, n_chains, 3)
        for j in range(n_chains):
            g = np.random.default_rng(100 + j)
            alone = _reference_gibbs(y[j:j + 1], design[j:j + 1], weights[j:j + 1], taus[j:j + 1],
                                     priors[j:j + 1], thetas[j:j + 1], [g], 60)
            assert _same_bytes(draws[:, j], alone[:, 0])
            assert gens[j].bit_generator.state == g.bit_generator.state

    @pytest.mark.parametrize("tiny_weights", [False, True])
    def test_shared_generator_matches_the_reference_blocks(self, tiny_weights):
        y, design, weights, taus, priors, thetas = _stacked_problem(4, 150, 9, tiny_weights)
        g_new, g_old = np.random.default_rng(41), np.random.default_rng(41)
        new = samplers._gibbs(y, design, weights, taus, priors, thetas, [g_new] * 4, 80)
        old = _reference_gibbs(y, design, weights, taus, priors, thetas, [g_old] * 4, 80)
        assert _same_bytes(new, old)
        assert g_new.bit_generator.state == g_old.bit_generator.state

    def test_failed_chain_is_named(self):
        # an indefinite prior precision fails the stacked Cholesky; the error
        # names the chain and sweep, as the per-block sweep did
        y, design, weights, taus, priors, thetas = _stacked_problem(3, 4, 5)
        weights[:] = 0.0  # no data term: the precision is the prior's alone
        priors[1] = SimpleNamespace(mean=np.zeros(3), covariance=-np.eye(3))
        gens = [np.random.default_rng(0)] * 3
        with pytest.raises(NumericalError, match=r"in block 1 \(sweep 0\)"):
            samplers._gibbs(y, design, weights, taus, priors, thetas, gens, 5)


class TestSmoothedLossParity:
    """The loss, which takes the band's rows by index, gives the reference's
    float(np.sum(w * loss)) at every band density, whatever its scratch
    buffers held before: a stage hands them from call to call."""

    @pytest.mark.parametrize("n", [100, 1000, 2000, 7500])
    @pytest.mark.parametrize("density", [0.0, 0.01, 0.5, 1.0])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("stale", [False, True])
    def test_matches_the_reference(self, n, density, weighted, stale):
        rng = np.random.default_rng(n)
        r = rng.standard_t(3, n)
        size = np.sort(np.abs(r))
        # eps puts round(density * n) residuals in the band |r| <= eps
        eps = {0.0: 0.5 * size[0], 1.0: 2.0 * size[-1]}.get(density)
        if eps is None:
            k = int(density * n)
            eps = 0.5 * (size[k - 1] + size[k])
        assert np.count_nonzero(np.abs(r) <= eps) == round(density * n)
        w = rng.uniform(0.0, 2.0, n) if weighted else np.ones(n)
        loss, _, _ = ref._smoothed_loss_terms(r, 0.3, eps)
        a, q, inside = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
        if stale:
            a[:], q[:], inside[:] = np.nan, np.inf, True
        got = optimize._smoothed_loss(r, w if weighted else None, 0.3, eps, a, q, inside)
        assert _same_bytes(got, float(np.sum(w * loss)))


class TestNewtonParity:
    @staticmethod
    def _problem(n, seed):
        rng = np.random.default_rng(seed)
        z = np.column_stack([rng.standard_normal((n, 2)), np.ones(n)])
        y = z @ np.array([0.3, -0.2, 1.0]) + rng.standard_t(3, n)
        return z, y, rng.uniform(0.0, 2.0, n)

    @staticmethod
    def _assert_same_fit(new, old):
        assert _same_bytes(new.theta, old.theta)
        assert new.iterations == old.iterations
        assert new.converged == old.converged

    @pytest.mark.parametrize("n, tau, weighted", [(60, 0.2, False), (3000, 0.5, True),
                                                  (3000, 0.9, False), (800, 0.05, True)])
    def test_fit_check_loss(self, n, tau, weighted, parent_kernels):
        z, y, w = self._problem(n, n)

        def run():
            return optimize.fit_check_loss(z, y, tau, weights=w if weighted else None)

        self._assert_same_fit(run(), parent_kernels(run))

    @pytest.fixture(scope="class")
    def scores(self):
        # the frequentist contour's fit: 1e5 jittered integer test scores,
        # design [y_perp, 1]; its late stages start with empty smoothing
        # bands, so some damping scans run with no curvature
        cols = simlab.make_star_like(100_000, seed=3)
        jitter = np.random.default_rng(4).uniform(0.0, 1.0, (100_000, 2))
        direction = Direction(u=np.array([np.cos(0.7), np.sin(0.7)]), tau=0.5)
        projected = project(Dataset(y=np.column_stack([cols["math"], cols["read"]]) + jitter),
                            direction, orthonormal_complement(direction.u))
        return np.column_stack([projected.y_perp, np.ones(100_000)]), projected.y_u

    @pytest.mark.parametrize("tau", [0.05, 0.4])
    def test_fit_check_loss_at_contour_scale(self, tau, scores, parent_kernels, monkeypatch):
        # the full solve over all 1e5 rows, which a preprocessed fit falls
        # back to: its late stages start with empty bands at this scale
        z, y = scores
        monkeypatch.setattr(optimize, "PREPROCESS_ROWS", np.inf)

        def run():
            return optimize.fit_check_loss(z, y, tau)

        self._assert_same_fit(run(), parent_kernels(run))

    def test_preprocessed_fit_at_contour_scale(self, scores, parent_kernels, monkeypatch):
        # the subsample and reduced solves run the same stage kernel
        z, y = scores
        solves = []
        real = optimize._solve

        def counted(zs, *args):
            solves.append(zs.shape[0])
            return real(zs, *args)

        monkeypatch.setattr(optimize, "_solve", counted)

        def run():
            return optimize.fit_check_loss(z, y, 0.2)

        self._assert_same_fit(run(), parent_kernels(run))
        assert len(solves) >= 4 and max(solves) < len(y) / 10

    def test_unit_weights_match_no_weights(self):
        z, y, _ = self._problem(3000, 3000)
        self._assert_same_fit(optimize.fit_check_loss(z, y, 0.9, weights=np.ones(3000)),
                              optimize.fit_check_loss(z, y, 0.9))

    def test_fewer_loss_evaluations(self, monkeypatch):
        # the stage scans the reference's candidates, one loss each, and
        # forms its gradient without a loss: the reference's calls less one
        # per iteration, exactly
        z, y, _ = self._problem(60, 60)
        counts = {"new": 0, "old": 0}

        def counting(real, key):
            def wrapper(*args):
                counts[key] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(optimize, "_smoothed_loss", counting(optimize._smoothed_loss, "new"))
        new = optimize.fit_check_loss(z, y, 0.2)
        monkeypatch.setattr(ref, "_smoothed_loss_terms", counting(ref._smoothed_loss_terms, "old"))
        monkeypatch.setattr(optimize, "_newton_stage", _reference_stage)
        old = optimize.fit_check_loss(z, y, 0.2)
        self._assert_same_fit(new, old)
        assert counts["new"] == counts["old"] - old.iterations > 0

    @pytest.mark.parametrize("max_iter", [1, 3, 60])
    def test_stage_including_iteration_cap(self, max_iter):
        # a capped stage returns unconverged; both versions must agree on that too
        z, y, w = self._problem(500, 15)
        theta0 = np.linalg.lstsq(z, y, rcond=None)[0]
        new = optimize._newton_stage(z, y, 0.3, w, theta0, 0.05, max_iter=max_iter)
        old = ref._newton_stage(z, y, 0.3, w, theta0, 0.05, max_iter=max_iter)
        assert _same_bytes(new[0], old[0])
        assert _same_bytes(new[1], old[1])
        assert new[2:] == old[2:]
        if max_iter == 1:
            assert new[3] is False
