import numpy as np
import pytest

from dirquant import optimize
from dirquant.errors import DomainError, RankError
from dirquant.geometry import Dataset, Direction, check_loss, orthonormal_complement, project, unit_directions
from dirquant.optimize import fit_check_loss, frequentist_fit
from dirquant.simlab import make_star_like


class TestLocationReduction:
    def test_returns_sample_quantile(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=1001)
        fit = fit_check_loss(np.ones((1001, 1)), y, 0.2)
        # n*tau is not an integer, so the minimizer is the unique order statistic
        target = np.quantile(y, 0.2, method="inverted_cdf")
        assert fit.theta[0] == pytest.approx(target, abs=1e-6)
        assert fit.converged

    def test_shifted_scaled_data(self):
        rng = np.random.default_rng(1)
        y = 500.0 + 30.0 * rng.normal(size=2001)
        fit = fit_check_loss(np.ones((2001, 1)), y, 0.7)
        target = np.quantile(y, 0.7, method="inverted_cdf")
        assert fit.theta[0] == pytest.approx(target, abs=1e-4)


class TestInvariances:
    def test_weight_rescaling_keeps_argmin(self, normal_data, vertical_direction):
        ones = frequentist_fit(normal_data, vertical_direction, weights=np.ones(normal_data.n))
        twos = frequentist_fit(normal_data, vertical_direction, weights=2.0 * np.ones(normal_data.n))
        # identical argmin up to solver tolerance (smoothing floor 1e-8)
        assert ones.theta.alpha == pytest.approx(twos.theta.alpha, abs=1e-4)
        assert np.allclose(ones.theta.beta_y, twos.theta.beta_y, atol=1e-4)
        # the objective itself scales exactly; evaluate both at one theta
        from dirquant.geometry import orthonormal_complement, project
        basis = orthonormal_complement(vertical_direction.u)
        pr = project(normal_data, vertical_direction, basis)
        resid = pr.y_u - ones.theta.alpha - pr.y_perp @ ones.theta.beta_y
        loss = check_loss(resid, vertical_direction.tau)
        assert 2.0 * float(np.sum(loss)) == pytest.approx(float(np.sum(2.0 * loss)), rel=1e-15)
        assert twos.objective == pytest.approx(2.0 * ones.objective, rel=1e-7)

    def test_deterministic(self, normal_data, diag_direction):
        a = frequentist_fit(normal_data, diag_direction)
        b = frequentist_fit(normal_data, diag_direction)
        assert a.theta.as_vector().tobytes() == b.theta.as_vector().tobytes()


class TestOptimalityProperties:
    def test_subgradient_fraction_bound(self, normal_data, vertical_direction):
        fit = frequentist_fit(normal_data, vertical_direction)
        basis = orthonormal_complement(vertical_direction.u)
        pr = project(normal_data, vertical_direction, basis)
        resid = pr.y_u - fit.theta.alpha - pr.y_perp @ fit.theta.beta_y
        frac = np.mean(resid < 0)
        d = 2
        assert abs(frac - vertical_direction.tau) <= d / normal_data.n + 1e-6

    def test_objective_beats_population_parameters(self):
        rng = np.random.default_rng(3)
        chol = np.linalg.cholesky(np.array([[1.0, 1.5], [1.5, 9.0]]))
        data = Dataset(y=rng.standard_normal((5000, 2)) @ chol.T)
        direction = Direction(u=np.array([0.0, 1.0]), tau=0.2)
        fit = frequentist_fit(data, direction)
        basis = orthonormal_complement(direction.u)
        pr = project(data, direction, basis)
        resid_true = pr.y_u - 1.5 * pr.y_perp[:, 0] - (-2.186)
        obj_true = float(np.sum(check_loss(resid_true, 0.2)))
        assert fit.objective <= obj_true + 1e-9

    def test_smoothing_stages_converge(self, normal_data, diag_direction):
        fit = frequentist_fit(normal_data, diag_direction)
        stages = fit.stage_objectives
        assert len(stages) == 8
        assert abs(stages[-1] - stages[-2]) < 1e-6 * normal_data.n

    def test_weighted_fit_tracks_weighted_population(self):
        # weights concentrated near x0 pull the fit toward the local law
        rng = np.random.default_rng(4)
        n = 20_000
        x = rng.normal(0.0, 2.0, size=n)
        y2 = 0.5 * x + rng.normal(size=n)
        y1 = rng.normal(size=n)
        data = Dataset(y=np.column_stack([y1, y2]))
        direction = Direction(u=np.array([0.0, 1.0]), tau=0.5)
        w = np.exp(-0.5 * (x - 2.0) ** 2 / 0.25)
        fit = frequentist_fit(data, direction, weights=w)
        assert fit.theta.alpha == pytest.approx(1.0, abs=0.1)


class TestErrors:
    def test_rank_deficient_design(self):
        z = np.ones((50, 2))
        with pytest.raises(RankError):
            fit_check_loss(z, np.arange(50.0), 0.2)

    def test_needs_more_rows_than_columns(self):
        with pytest.raises(DomainError):
            fit_check_loss(np.eye(2), np.zeros(2), 0.2)

    def test_negative_weights_rejected(self):
        with pytest.raises(DomainError):
            fit_check_loss(np.ones((5, 1)), np.zeros(5), 0.2, weights=-np.ones(5))


def _star_scores(n, seed):
    """Jittered integer test scores, as the frequentist contour fits them."""
    cols = make_star_like(n, seed=seed)
    jitter = np.random.default_rng(seed + 1).uniform(0.0, 1.0, (n, 2))
    return Dataset(y=np.column_stack([cols["math"], cols["read"]]) + jitter)


def _full_solve(fit, monkeypatch):
    """Run fit with the threshold above every n: the full solve over all rows."""
    with monkeypatch.context() as m:
        m.setattr(optimize, "PREPROCESS_ROWS", np.inf)
        return fit()


def _same_fit_bytes(a, b):
    assert np.asarray(a.theta).tobytes() == np.asarray(b.theta).tobytes()
    assert np.float64(a.objective).tobytes() == np.float64(b.objective).tobytes()
    assert np.array(a.stage_objectives).tobytes() == np.array(b.stage_objectives).tobytes()
    assert a.converged == b.converged


class TestPreprocessing:
    """Fits of at least PREPROCESS_ROWS rows go through the reduced problem."""

    N = 100_000

    @pytest.fixture(scope="class")
    def fits(self):
        # 24 contour fits on 1e5 rows; per fit the preprocessed result, the
        # full solve's and whether the last glob check found every member at
        # or beyond eps on its own side
        data = _star_scores(self.N, seed=21)
        out = []
        with pytest.MonkeyPatch.context() as m:
            checks = []
            real = optimize._misplaced

            def checked(r, lower, upper, eps):
                checks.append(bool(np.all(r[lower] <= -eps) and np.all(r[upper] >= eps)))
                return real(r, lower, upper, eps)

            m.setattr(optimize, "_misplaced", checked)
            for tau in (0.05, 0.2, 0.4):
                for u in unit_directions(32)[::4]:
                    direction = Direction(u=u, tau=tau)
                    checks.clear()
                    pre = frequentist_fit(data, direction)
                    certified = bool(checks) and checks[-1]
                    with pytest.MonkeyPatch.context() as full_rows:
                        full_rows.setattr(optimize, "PREPROCESS_ROWS", np.inf)
                        full = frequentist_fit(data, direction)
                    out.append((direction, pre, full, certified))
        return data, out

    def test_objective_no_worse_than_the_full_solve(self, fits):
        _, rows = fits
        assert len(rows) == 24
        for direction, pre, full, _ in rows:
            assert pre.objective <= full.objective * (1.0 + 1e-9), direction

    def test_every_fit_is_certified(self, fits):
        for direction, pre, _, certified in fits[1]:
            assert certified, direction
            assert pre.converged

    def test_subgradient_fraction_bound(self, fits):
        data, rows = fits
        for direction, pre, _, _ in rows:
            pr = project(data, direction, orthonormal_complement(direction.u))
            resid = pr.y_u - pre.theta.alpha - pr.y_perp @ pre.theta.beta_y
            d = 2  # (beta_y, alpha)
            assert abs(np.mean(resid < 0) - direction.tau) <= d / self.N + 1e-6, direction

    def test_breakdown_falls_back_to_the_full_solve(self, monkeypatch):
        # every glob member reported misplaced in every round: m doubles until
        # the rounds run out, and the full solve's bytes come back
        z, y = self._problem(optimize.PREPROCESS_ROWS, seed=5)
        rounds = []

        def every_member(r, lower, upper, eps):
            rounds.append(int(np.count_nonzero(lower | upper)))
            return lower | upper

        monkeypatch.setattr(optimize, "_misplaced", every_member)
        broken = fit_check_loss(z, y, 0.3)
        assert len(rounds) == optimize._ROUNDS and rounds[0] > rounds[-1] > 0
        _same_fit_bytes(broken, _full_solve(lambda: fit_check_loss(z, y, 0.3), monkeypatch))

    def test_below_the_threshold_is_the_full_solve(self, monkeypatch):
        n = optimize.PREPROCESS_ROWS
        z, y = self._problem(n, seed=6)
        calls = []
        real = optimize._preprocessed_solve

        def spy(*args):
            calls.append(args[0].shape[0])
            return real(*args)

        monkeypatch.setattr(optimize, "_preprocessed_solve", spy)
        below = fit_check_loss(z[:-1], y[:-1], 0.3)
        assert calls == []
        _same_fit_bytes(below, _full_solve(lambda: fit_check_loss(z[:-1], y[:-1], 0.3), monkeypatch))
        fit_check_loss(z, y, 0.3)
        assert calls == [n]

    def test_zero_weight_glob_is_dropped(self, monkeypatch):
        # a location fit whose lowest rows carry no weight: at tau = 0.0203 the
        # band starts inside them, so the lower glob weighs 0 and is dropped
        n = 30_000
        y = np.random.default_rng(7).standard_normal(n)
        w = np.where(y < np.quantile(y, 0.1), 0.0, 1.0)
        reduced = []
        real = optimize._reduced

        def spy(zs, ys, w_full, lower, upper):
            out = real(zs, ys, w_full, lower, upper)
            reduced.append((float(np.sum(w_full * lower)), int(np.count_nonzero(~(lower | upper))),
                            out[2].size))
            return out

        monkeypatch.setattr(optimize, "_reduced", spy)
        fit = fit_check_loss(np.ones((n, 1)), y, 0.0203, weights=w)
        lower_weight, band_rows, reduced_rows = reduced[-1]
        assert lower_weight == 0.0
        assert reduced_rows == band_rows + 1  # the band and the upper glob
        kept = np.sort(y[w > 0])
        assert fit.theta[0] == pytest.approx(np.quantile(kept, 0.0203, method="inverted_cdf"), abs=1e-6)

    @staticmethod
    def _problem(n, seed):
        rng = np.random.default_rng(seed)
        z = np.column_stack([rng.standard_normal((n, 2)), np.ones(n)])
        return z, z @ np.array([0.3, -0.2, 1.0]) + rng.standard_t(3, n)
