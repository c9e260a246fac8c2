import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from dirquant import samplers
from dirquant.ald import mixture_constants
from dirquant.errors import (
    DegenerateWindowError,
    DomainError,
    NumericalError,
    ShapeError,
)
from dirquant.geometry import Dataset, Direction, orthonormal_complement, project
from dirquant.inference import effective_sample_size
from dirquant.samplers import (
    Chain,
    KernelSpec,
    PriorSpec,
    default_bandwidth,
    gibbs_conditional,
    gibbs_unconditional,
    kernel_weights,
    make_conditional_design,
)
from mh_oracle import InitializationError, metropolis_hastings

PRIOR2 = PriorSpec(mean=np.zeros(2), covariance=1000.0 * np.eye(2))


class TestPriorSpec:
    def test_asymmetric_rejected(self):
        with pytest.raises(ShapeError):
            PriorSpec(mean=np.zeros(2), covariance=np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_non_pd_rejected(self):
        with pytest.raises(ShapeError):
            PriorSpec(mean=np.zeros(2), covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("mean, variances", [
        ([np.nan, 0.0], [1.0, 1.0]), ([np.inf, 0.0], [1.0, 1.0]),
        ([0.0, 0.0], [np.inf, 1.0]), ([0.0, 0.0], [1.0, np.nan]),
    ], ids=["nan mean", "inf mean", "inf variance", "nan variance"])
    def test_non_finite_rejected(self, mean, variances):
        # refused before the symmetry check, where inf - inf is NaN, and
        # without a numpy warning (raised as an error here)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="must be finite"):
                PriorSpec(mean=np.array(mean), covariance=np.diag(variances))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 6])
    def test_vague_prior_bytes(self, dim):
        # the default prior of contours, tube slices and simlab, N(0, 1000 I)
        prior = samplers._vague_prior(dim)
        written_out = PriorSpec(mean=np.zeros(dim), covariance=1000.0 * np.eye(dim))
        for got, want in ((prior.mean, written_out.mean), (prior.covariance, written_out.covariance)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestChainType:
    def test_burn_in_bound(self):
        with pytest.raises(ShapeError):
            Chain(draws=np.zeros((5, 2)), burn_in=5, seed=0, sampler="metropolis")

    def test_nonfinite_rejected(self):
        draws = np.zeros((5, 2))
        draws[3, 1] = np.inf
        with pytest.raises(Exception):
            Chain(draws=draws, burn_in=0, seed=0, sampler="metropolis")


def conjugate_normal_update(design, response, variances, prior: PriorSpec):
    """Mean and covariance of theta given the latent scales: the oracle.

    ``variances`` are the per-observation conditional variances and
    ``response`` the latent-shifted responses of the augmented model.  The
    algebra uses explicit inverses and shares no code with the samplers.
    """
    prior_prec = np.linalg.inv(prior.covariance)
    prec = prior_prec + (design / variances[:, None]).T @ design
    rhs = prior_prec @ prior.mean + design.T @ (response / variances)
    cov = np.linalg.inv(prec)
    return cov @ rhs, cov


class TestConjugateUpdate:
    """With the latent scales held fixed, theta draws are i.i.d. from the
    conjugate update, so the engine's stacked solve is checked against the
    oracle's explicit inverses."""

    N_DRAWS = 4000

    @staticmethod
    def _fix_latents(monkeypatch, latents):
        def stub(a, b, rng, out=None):  # out: the engine's GIG buffers, unused here
            assert a.shape == latents.shape
            return latents.copy()

        monkeypatch.setattr(samplers, "sample_gig_half", stub)

    @staticmethod
    def _oracle(design, y, weights, tau, latents, prior):
        # y_i = x_i theta + eta w_i / k_i + gamma sqrt(w_i) / k_i * N(0, 1)
        mc = mixture_constants(tau)
        return conjugate_normal_update(design, y - mc.eta * latents / weights,
                                       mc.gamma**2 * latents / weights**2, prior)

    def _assert_draws_follow(self, draws, mean, cov):
        # standardized draws are i.i.d. N(0, I): the mean's squared norm is
        # chi^2_d / N (below 25 with probability > 0.9999 for d <= 4) and the
        # covariance entries have sd <= sqrt(2 / N)
        z = np.linalg.solve(np.linalg.cholesky(cov), (draws - mean).T).T
        assert self.N_DRAWS * z.mean(axis=0) @ z.mean(axis=0) < 25.0
        assert np.max(np.abs(np.cov(z.T) - np.eye(z.shape[1]))) < 5.0 * np.sqrt(2.0 / self.N_DRAWS)

    def test_conditional_chain_with_kernel_weights(self, monkeypatch, diag_direction):
        rng = np.random.default_rng(41)
        data = Dataset(y=rng.normal(size=(150, 2)), x=rng.uniform(-2.0, 2.0, (150, 1)))
        x0 = np.array([0.0])
        basis = orthonormal_complement(diag_direction.u)
        projected = project(data, diag_direction, basis)
        design = make_conditional_design(projected, data.x, x0, "local-bilinear")
        kernel = KernelSpec(bandwidth=1.0)
        weights = kernel_weights(kernel, data.x, x0)
        assert 0.05 < weights.min() and weights.max() < 0.4
        prior = PriorSpec(mean=np.array([0.3, -0.2, 0.1, 0.0]), covariance=np.diag([4.0, 2.0, 9.0, 1.0]))
        latents = rng.exponential(size=(1, 150)) + 0.05
        self._fix_latents(monkeypatch, latents)
        chain = gibbs_conditional(data, diag_direction, design, kernel, prior, n_draws=self.N_DRAWS,
                                  burn_in=1, seed=42, init=np.zeros(4))
        mean, cov = self._oracle(design.regressors, projected.y_u, weights, diag_direction.tau,
                                 latents[0], prior)
        self._assert_draws_follow(chain.draws, mean, cov)

    def test_one_block_of_a_simultaneous_run(self, monkeypatch):
        rng = np.random.default_rng(43)
        data = Dataset(y=rng.normal(size=(120, 2)), x=rng.normal(size=(120, 1)))
        dirs = [Direction(u=np.array([np.cos(t), np.sin(t)]), tau=tau)
                for t, tau in ((0.4, 0.2), (2.0, 0.35), (4.1, 0.6))]
        bases = [orthonormal_complement(d.u) for d in dirs]
        prior = PriorSpec(mean=rng.normal(size=9), covariance=np.diag(rng.uniform(1.0, 10.0, 9)))
        latents = rng.exponential(size=(3, 120)) + 0.05
        self._fix_latents(monkeypatch, latents)
        blocks = [PriorSpec(mean=prior.mean[s], covariance=prior.covariance[s, s])
                  for s in (slice(0, 3), slice(3, 6), slice(6, 9))]
        # three chains with their own tau and prior in one stacked engine call
        problems = [samplers._unconditional_problem(data, d, block, seed=44 + j, init=np.zeros(3),
                                                    basis=basis)
                    for j, (d, block, basis) in enumerate(zip(dirs, blocks, bases))]
        chains = samplers._run_chains(problems, self.N_DRAWS, 1)
        projected = project(data, dirs[1], bases[1])
        design = np.column_stack([projected.y_perp, data.x, np.ones(data.n)])
        mean, cov = self._oracle(design, projected.y_u, np.ones(data.n), dirs[1].tau, latents[1],
                                 blocks[1])
        self._assert_draws_follow(chains[1].draws, mean, cov)


class TestSharedStreams:
    """Chains of equal seed in one engine call share one random stream: its
    normals and uniforms are drawn once per sweep and copied, and every
    chain's bytes are still those of a lone run."""

    @staticmethod
    def _engine_inputs(n_chains, n, seed, tiny_weights=False):
        rng = np.random.default_rng(seed)
        design = np.concatenate([rng.standard_normal((n_chains, n, 2)), np.ones((n_chains, n, 1))], axis=2)
        y = design @ np.array([0.5, -0.3, 1.0]) + rng.standard_t(3, (n_chains, n))
        weights = rng.uniform(0.2, 3.0, (n_chains, n))
        if tiny_weights:
            # far below 1e-160, and exact zeros: the latent draw's gamma limit
            weights[:, ::3] = 10.0 ** rng.uniform(-300.0, -161.0, weights[:, ::3].shape)
            weights[:, 1::7] = 0.0
        taus = list(rng.uniform(0.05, 0.95, n_chains))
        priors = [PriorSpec(mean=rng.standard_normal(3), covariance=np.diag(rng.uniform(1.0, 100.0, 3)))
                  for _ in range(n_chains)]
        return y, design, weights, taus, priors, list(rng.standard_normal((n_chains, 3)))

    @pytest.mark.parametrize("tiny_weights", [False, True])
    def test_repeating_chains_match_lone_runs(self, tiny_weights):
        # chains 2 and 4 repeat chain 0's stream, chain 3 repeats chain 1's
        y, design, weights, taus, priors, thetas = self._engine_inputs(5, 90, 3, tiny_weights)
        seeds = [70, 71, 70, 71, 70]
        gens = {70: np.random.default_rng(70), 71: np.random.default_rng(71)}
        draws = samplers._gibbs(y, design, weights, taus, priors, thetas,
                                [gens[70], gens[71], 0, 1, 0], 50)
        for j, seed in enumerate(seeds):
            g = np.random.default_rng(seed)
            alone = samplers._gibbs(y[j:j + 1], design[j:j + 1], weights[j:j + 1], taus[j:j + 1],
                                    priors[j:j + 1], thetas[j:j + 1], [g], 50)
            assert draws[:, j].tobytes() == alone[:, 0].tobytes()
            # each stream was drawn once: its Generator is where a lone run leaves it
            assert gens[seed].bit_generator.state == g.bit_generator.state

    def test_equal_seeds_share_one_generator(self, square_data, monkeypatch):
        made = []
        real = samplers._rng_from_seed

        def counted(seed):
            made.append(seed)
            return real(seed)

        monkeypatch.setattr(samplers, "_rng_from_seed", counted)
        u = np.array([0.6, 0.8])
        problems = [samplers._unconditional_problem(square_data, Direction(u=u, tau=tau), PRIOR2, seed=seed)
                    for seed, tau in ((5, 0.1), (6, 0.1), (5, 0.3), (5, 0.5), (6, 0.5))]
        chains = samplers._run_chains(problems, 40, 5)
        assert made == [5, 6]
        for problem, chain in zip(problems, chains):
            alone = samplers._run_chains([problem], 40, 5)[0]
            assert chain.seed == problem.seed
            assert chain.draws.tobytes() == alone.draws.tobytes()

    def test_failed_chain_fails_alone_and_its_group_keeps_its_bytes(self, square_data):
        u = np.array([0.6, 0.8])
        problems = [samplers._unconditional_problem(square_data, Direction(u=u, tau=tau), PRIOR2, seed=9)
                    for tau in (0.1, 0.3, 0.5)]
        # the middle chain's prior precision is -1e9 I, which no data term repairs
        problems[1] = dataclasses.replace(
            problems[1], prior=SimpleNamespace(mean=np.zeros(2), covariance=-1e-9 * np.eye(2)))
        with pytest.raises(NumericalError, match=r"in block 1 \(sweep 0\)"):
            samplers._run_chains(problems, 30, 5)
        first, failed, last = samplers._isolated_chains(problems, 30, 5)
        assert isinstance(failed, NumericalError) and "in block 0 (sweep 0)" in str(failed)
        for chain, problem in ((first, problems[0]), (last, problems[2])):
            alone = samplers._run_chains([problem], 30, 5)[0]
            assert chain.draws.tobytes() == alone.draws.tobytes()


class TestGibbsUnconditional:
    def test_bit_reproducible(self, square_data, diag_direction):
        a = gibbs_unconditional(square_data, diag_direction, PRIOR2, n_draws=200, burn_in=50, seed=42)
        b = gibbs_unconditional(square_data, diag_direction, PRIOR2, n_draws=200, burn_in=50, seed=42)
        assert a.draws.tobytes() == b.draws.tobytes()
        assert a.acceptance_rate == 1.0
        assert a.names == ("beta_y_0", "alpha")

    def test_seed_changes_draws(self, square_data, diag_direction):
        a = gibbs_unconditional(square_data, diag_direction, PRIOR2, n_draws=200, burn_in=50, seed=1)
        b = gibbs_unconditional(square_data, diag_direction, PRIOR2, n_draws=200, burn_in=50, seed=2)
        assert a.draws.tobytes() != b.draws.tobytes()

    def test_no_data_recovers_prior(self, diag_direction):
        prior = PriorSpec(mean=np.array([1.5, -2.0]), covariance=np.diag([0.25, 0.16]))
        chain = gibbs_unconditional(None, diag_direction, prior, n_draws=4000, burn_in=0, seed=3)
        post = chain.post_burn()
        se = post.std(axis=0, ddof=1) / np.sqrt(post.shape[0])
        assert np.all(np.abs(post.mean(axis=0) - prior.mean) < 3.5 * np.maximum(se, 1e-12))
        assert np.allclose(post.var(axis=0, ddof=1), [0.25, 0.16], rtol=0.15)

    def test_prior_dimension_checked(self, square_data, diag_direction):
        with pytest.raises(ShapeError):
            gibbs_unconditional(square_data, diag_direction, PriorSpec(np.zeros(3), np.eye(3)),
                                n_draws=10, burn_in=1, seed=0)

    def test_posterior_tightens_with_data(self, diag_direction):
        rng = np.random.default_rng(7)
        widths = []
        for n in (100, 10_000):
            data = Dataset(y=rng.uniform(-0.5, 0.5, size=(n, 2)))
            chain = gibbs_unconditional(data, diag_direction, PRIOR2, n_draws=1200, burn_in=200, seed=n)
            post = chain.post_burn()[:, 1]
            widths.append(np.quantile(post, 0.75) - np.quantile(post, 0.25))
        assert widths[1] < widths[0] / 5.0

    def test_unconverged_init_fit_warns(self, square_data, vertical_direction, monkeypatch):
        real_fit = samplers._fit_schedule

        def unconverged(*args, **kwargs):
            return dataclasses.replace(real_fit(*args, **kwargs), iterations=7, converged=False)

        monkeypatch.setattr(samplers, "_fit_schedule", unconverged)
        with pytest.warns(RuntimeWarning, match=r"tau=0\.2, u=\[0\.0, 1\.0\], 7 iterations over the "
                                                r"smoothing stages eps = 0\.1, 0\.01, 0\.001\)"):
            chain = gibbs_unconditional(square_data, vertical_direction, PRIOR2,
                                        n_draws=20, burn_in=5, seed=1)
        assert chain.draws.shape == (20, 2)  # the chain still runs from that start


class TestGibbsConditional:
    def _setup(self, n=600, seed=8):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 2, size=(n, 1))
        y = rng.normal(size=(n, 2))
        y[:, 1] += 0.5 * x[:, 0]
        return Dataset(y=y, x=x)

    def test_unit_weights_match_unconditional_law(self, diag_direction):
        # covariates all exactly at x0 and bandwidth 1/sqrt(2*pi) make every
        # kernel weight exactly 1, so the conditional sampler runs the same
        # Markov kernel as the unconditional one; compare long-run moments
        base = self._setup()
        data = Dataset(y=base.y, x=np.full((base.n, 1), 3.0))
        basis = orthonormal_complement(diag_direction.u)
        projected = project(data, diag_direction, basis)
        design = make_conditional_design(projected, data.x, np.array([3.0]), "local-constant")
        kernel = KernelSpec(bandwidth=1.0 / np.sqrt(2.0 * np.pi))
        w = kernel_weights(kernel, data.x, np.array([3.0]))
        assert np.allclose(w, 1.0, atol=1e-12)
        cond = gibbs_conditional(data, diag_direction, design, kernel,
                                 PriorSpec(np.zeros(2), 1000.0 * np.eye(2)),
                                 n_draws=4000, burn_in=500, seed=21)
        unc = gibbs_unconditional(Dataset(y=base.y), diag_direction, PRIOR2,
                                  n_draws=4000, burn_in=500, seed=22, basis=basis)
        cond_mean = cond.post_burn().mean(axis=0)  # (alpha, beta)
        unc_mean = unc.post_burn().mean(axis=0)    # (beta, alpha)
        for cond_idx, unc_idx in ((0, 1), (1, 0)):
            se = np.sqrt(
                cond.post_burn()[:, cond_idx].var() / effective_sample_size(cond.post_burn()[:, cond_idx])
                + unc.post_burn()[:, unc_idx].var() / effective_sample_size(unc.post_burn()[:, unc_idx])
            )
            assert abs(cond_mean[cond_idx] - unc_mean[unc_idx]) < 3.5 * se

    def test_bit_reproducible(self, diag_direction):
        data = self._setup()
        basis = orthonormal_complement(diag_direction.u)
        projected = project(data, diag_direction, basis)
        design = make_conditional_design(projected, data.x, np.array([1.0]), "local-constant")
        kernel = KernelSpec(bandwidth=default_bandwidth(data.x))
        a = gibbs_conditional(data, diag_direction, design, kernel, PRIOR2, n_draws=150, burn_in=20, seed=5)
        b = gibbs_conditional(data, diag_direction, design, kernel, PRIOR2, n_draws=150, burn_in=20, seed=5)
        assert a.draws.tobytes() == b.draws.tobytes()
        assert a.names == ("alpha", "beta_y_0")

    def test_local_bilinear_design_shape(self, diag_direction):
        data = self._setup()
        basis = orthonormal_complement(diag_direction.u)
        projected = project(data, diag_direction, basis)
        design = make_conditional_design(projected, data.x, np.array([1.0]), "local-bilinear")
        assert design.regressors.shape == (data.n, 4)
        # rows are [1, (x - x0), y_perp, y_perp*(x - x0)]
        i = 17
        expected = np.array([
            1.0,
            data.x[i, 0] - 1.0,
            projected.y_perp[i, 0],
            projected.y_perp[i, 0] * (data.x[i, 0] - 1.0),
        ])
        assert np.allclose(design.regressors[i], expected)
        alpha, beta = design.params_at_x0(np.array([1.0, 2.0, 3.0, 4.0]))
        assert alpha == 1.0 and np.allclose(beta, [3.0])

    def test_design_carries_its_response(self, diag_direction):
        data = self._setup()
        projected = project(data, diag_direction)
        design = make_conditional_design(projected, data.x, np.array([1.0]), "local-constant")
        assert design.response.tobytes() == projected.y_u.tobytes()
        with pytest.raises(ShapeError):
            dataclasses.replace(design, response=projected.y_u[1:])

    def test_degenerate_window(self, diag_direction):
        data = self._setup()
        basis = orthonormal_complement(diag_direction.u)
        projected = project(data, diag_direction, basis)
        design = make_conditional_design(projected, data.x, np.array([1e6]), "local-constant")
        kernel = KernelSpec(bandwidth=0.5)
        with pytest.raises(DegenerateWindowError):
            gibbs_conditional(data, diag_direction, design, kernel, PRIOR2,
                              n_draws=50, burn_in=5, seed=0)


class TestMetropolisHastings:
    def test_degenerate_scale_always_accepts(self):
        chain = metropolis_hastings(lambda t: 0.0, PRIOR2, proposal_scale=0.0,
                                    n_draws=200, burn_in=10, seed=0)
        assert chain.acceptance_rate == 1.0

    def test_flat_likelihood_recovers_prior(self):
        prior = PriorSpec(mean=np.array([2.0, -1.0]), covariance=np.diag([0.09, 0.04]))
        chain = metropolis_hastings(lambda t: 0.0, prior, proposal_scale=0.25,
                                    n_draws=30_000, burn_in=2000, seed=4)
        post = chain.post_burn()
        for j in range(2):
            ess = effective_sample_size(post[:, j])
            se = post[:, j].std() / np.sqrt(ess)
            assert abs(post[:, j].mean() - prior.mean[j]) < 3.5 * se

    def test_acceptance_rate_interior(self):
        chain = metropolis_hastings(lambda t: -0.5 * float(t @ t), PRIOR2, proposal_scale=0.8,
                                    n_draws=4000, burn_in=100, seed=5)
        assert 0.05 < chain.acceptance_rate < 0.95

    def test_detailed_balance_two_state(self):
        # indicator target: density ratio 2:1 between the half-lines
        prior = PriorSpec(mean=np.zeros(1), covariance=np.array([[100.0]]))

        def loglik(t):
            return float(np.log(2.0) if t[0] >= 0 else 0.0)

        chain = metropolis_hastings(loglik, prior, proposal_scale=1.0,
                                    n_draws=120_000, burn_in=5000, seed=6)
        states = (chain.post_burn()[:, 0] >= 0).astype(int)
        pi1 = states.mean()
        moves = np.diff(states)
        p12 = np.mean(moves == -1) / max(pi1, 1e-9)          # from + to -
        p21 = np.mean(moves == 1) / max(1.0 - pi1, 1e-9)      # from - to +
        # detailed balance: pi1 * P(1->2) == pi2 * P(2->1); both sides estimate
        lhs = pi1 * p12
        rhs = (1.0 - pi1) * p21
        assert lhs == pytest.approx(rhs, rel=0.1)

    def test_bad_init_rejected(self):
        with pytest.raises(InitializationError):
            metropolis_hastings(lambda t: float("nan"), PRIOR2, 0.1, n_draws=10, burn_in=1, seed=0)

    def test_agrees_with_gibbs(self, vertical_direction):
        rng = np.random.default_rng(23)
        data = Dataset(y=rng.uniform(-0.5, 0.5, size=(1000, 2)))
        gibbs = gibbs_unconditional(data, vertical_direction, PRIOR2, n_draws=4000, burn_in=500, seed=1)
        from dirquant.ald import HyperplaneParams
        from references import loglik_unconditional

        basis = orthonormal_complement(vertical_direction.u)
        projected = project(data, vertical_direction, basis)

        def loglik(t):
            theta = HyperplaneParams(alpha=t[1], beta_y=t[:1])
            return loglik_unconditional(projected, data.x, theta, vertical_direction)

        init = gibbs.post_burn().mean(axis=0)
        mh = metropolis_hastings(loglik, PRIOR2, proposal_scale=0.05,
                                 n_draws=30_000, burn_in=3000, seed=2, init=init)
        for j in range(2):
            g, m = gibbs.post_burn()[:, j], mh.post_burn()[:, j]
            se = np.sqrt(g.var() / effective_sample_size(g) + m.var() / effective_sample_size(m))
            assert abs(g.mean() - m.mean()) < 2.0 * se
