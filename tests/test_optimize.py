import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest

import reference_kernels as ref

from dirquant import constants, optimize, samplers
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
        design, y_u = optimize._direction_design(normal_data, vertical_direction)
        tau = vertical_direction.tau
        ones = fit_check_loss(design, y_u, tau, weights=np.ones(normal_data.n))
        twos = fit_check_loss(design, y_u, tau, weights=2.0 * np.ones(normal_data.n))
        # identical argmin (beta_y, alpha) up to solver tolerance (smoothing floor 1e-8)
        assert np.allclose(ones.theta, twos.theta, atol=1e-4)
        # the objective itself scales exactly; evaluate both at one theta
        resid = y_u - design @ ones.theta
        loss = check_loss(resid, vertical_direction.tau)
        assert 2.0 * float(np.sum(loss)) == pytest.approx(float(np.sum(2.0 * loss)), rel=1e-15)
        # and each fit's own weighted loss is twice the other's
        obj_twos = float(np.sum(2.0 * check_loss(y_u - design @ twos.theta, tau)))
        assert obj_twos == pytest.approx(2.0 * float(np.sum(loss)), rel=1e-7)

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
        assert _fit_loss(data, direction, fit) <= obj_true + 1e-9

    def test_smoothing_stages_converge(self, normal_data, diag_direction):
        # below PREPROCESS_ROWS the schedule's first seven stages follow the
        # full fit's path, so the losses differ by what the last stage did
        assert normal_data.n < optimize.PREPROCESS_ROWS
        tau = diag_direction.tau
        problem = optimize._direction_problem(normal_data, diag_direction)
        seven = optimize._fit_schedule(problem, tau, constants.SMOOTHING_SCHEDULE[:7])
        full = optimize.fit_prepared(problem, tau)
        assert len(constants.SMOOTHING_SCHEDULE) == 8
        seven_loss, full_loss = (float(np.sum(check_loss(problem.y - problem.z @ fit.theta, tau)))
                                 for fit in (seven, full))
        assert abs(full_loss - seven_loss) < 1e-6 * normal_data.n

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
        fit = fit_check_loss(*optimize._direction_design(data, direction), direction.tau, weights=w)
        assert fit.theta[-1] == pytest.approx(1.0, abs=0.1)  # alpha


class TestErrors:
    def test_rank_deficient_design(self):
        z = np.ones((50, 2))
        with pytest.raises(RankError):
            fit_check_loss(z, np.arange(50.0), 0.2)

    def test_rank_is_checked_on_the_standardized_design(self):
        # a covariate 1e14 times the constant column's scale is full rank;
        # the raw design's relative tolerance called it deficient
        rng = np.random.default_rng(13)
        x, y = rng.standard_normal(50), rng.standard_normal(50)
        small = fit_check_loss(np.column_stack([x, np.ones(50)]), y, 0.3)
        large = fit_check_loss(np.column_stack([1e14 * x, np.ones(50)]), y, 0.3)
        assert large.theta[0] * 1e14 == pytest.approx(small.theta[0], rel=1e-6)
        assert large.theta[1] == pytest.approx(small.theta[1], rel=1e-6, abs=1e-9)
        # a nanosecond timestamp beside the constant column
        stamp = 1.7e18 + 3.6e12 * np.arange(50.0)
        fit = fit_check_loss(np.column_stack([stamp, np.ones(50)]), 2.0 * np.arange(50.0), 0.5)
        assert fit.converged

    @pytest.mark.parametrize("name", ["design", "response"])
    def test_overflowing_moments_are_a_domain_error(self, name):
        # finite values whose squares overflow: a DomainError naming the
        # array, and no numpy warning
        rng = np.random.default_rng(14)
        design, y = np.column_stack([rng.standard_normal(50), np.ones(50)]), rng.standard_normal(50)
        if name == "design":
            design[:, 0] *= 1e200
        else:
            y *= 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{name} values are too large"):
                fit_check_loss(design, y, 0.2)

    def test_needs_more_rows_than_columns(self):
        with pytest.raises(DomainError):
            fit_check_loss(np.eye(2), np.zeros(2), 0.2)

    def test_negative_weights_rejected(self):
        with pytest.raises(DomainError):
            fit_check_loss(np.ones((5, 1)), np.zeros(5), 0.2, weights=-np.ones(5))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["design", "response", "weights"])
    def test_non_finite_values_rejected(self, name, value):
        rng = np.random.default_rng(12)
        arrays = {"design": np.column_stack([rng.standard_normal(50), np.ones(50)]),
                  "response": rng.standard_normal(50), "weights": np.ones(50)}
        arrays[name].flat[7] = value
        # -inf weights are refused as negative, before the finiteness check
        match = "nonnegative" if name == "weights" and value < 0 else name
        with pytest.raises(DomainError, match=match):
            fit_check_loss(arrays["design"], arrays["response"], 0.2, weights=arrays["weights"])


def _star_scores(n, seed):
    """Jittered integer test scores, as the frequentist contour fits them."""
    cols = make_star_like(n, seed=seed)
    jitter = np.random.default_rng(seed + 1).uniform(0.0, 1.0, (n, 2))
    return Dataset(y=np.column_stack([cols["math"], cols["read"]]) + jitter)


def _star_design(n, seed):
    """A contour direction's standardized design [y_perp, 1] and response
    on jittered scores, whose late stages start with empty smoothing bands."""
    data = _star_scores(n, seed)
    problem = optimize._direction_problem(data, Direction(u=unit_directions(32)[5], tau=0.2))
    return problem.zs, problem.ys


def _full_solve(fit, monkeypatch):
    """Run fit with the threshold above every n: the full solve over all rows."""
    with monkeypatch.context() as m:
        m.setattr(optimize, "PREPROCESS_ROWS", np.inf)
        return fit()


def _fit_loss(data, direction, fit):
    """The unweighted check loss of a frequentist_fit on its own design."""
    design, y_u = optimize._direction_design(data, direction)
    return float(np.sum(check_loss(y_u - design @ fit.theta.as_vector(), direction.tau)))


def _same_fit_bytes(a, b):
    assert np.asarray(a.theta).tobytes() == np.asarray(b.theta).tobytes()
    assert a.iterations == b.iterations
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
        data, rows = fits
        assert len(rows) == 24
        for direction, pre, full, _ in rows:
            full_loss = _fit_loss(data, direction, full)
            assert _fit_loss(data, direction, pre) <= full_loss * (1.0 + 1e-9), direction

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
        full = _full_solve(lambda: fit_check_loss(z, y, 0.3), monkeypatch)
        assert np.asarray(broken.theta).tobytes() == np.asarray(full.theta).tobytes()
        assert broken.converged == full.converged
        # its iterations also count the reduced solves it gave up on
        assert broken.iterations > full.iterations

    def test_below_the_threshold_is_the_full_solve(self, monkeypatch):
        n = optimize.PREPROCESS_ROWS
        z, y = self._problem(n, seed=6)
        calls = []
        real = optimize._preprocessed_solve

        def spy(problem, *args):
            calls.append(problem.n)
            return real(problem, *args)

        monkeypatch.setattr(optimize, "_preprocessed_solve", spy)
        below = fit_check_loss(z[:-1], y[:-1], 0.3)
        assert calls == []
        _same_fit_bytes(below, _full_solve(lambda: fit_check_loss(z[:-1], y[:-1], 0.3), monkeypatch))
        fit_check_loss(z, y, 0.3)
        assert calls == [n]

    @staticmethod
    def _band_by_sort(r, tau, width):
        order = np.argsort(r)
        k = int(np.searchsorted(np.cumsum(np.ones(r.size)), tau * r.size))
        lo = max(0, k - width // 2)
        lower, upper = np.zeros(r.size, dtype=bool), np.zeros(r.size, dtype=bool)
        lower[order[:lo]] = True
        upper[order[lo + width:]] = True
        return lower, upper

    def test_band_selection_matches_the_sort(self, monkeypatch):
        # unit weights take a selection in a window unless a cut falls
        # between equal or NaN residuals; the masks are the sort's, on random
        # and on rounded (tied) residuals.  The full strided sample takes
        # every row of these short arrays; a sample of about 64 rows gives
        # windows with bounds inside r
        mismatches = 0
        for sample in (optimize._BAND_SAMPLE, 64):
            monkeypatch.setattr(optimize, "_BAND_SAMPLE", sample)
            rng = np.random.default_rng(23)
            for case in range(300):
                n = int(rng.integers(5, 3000))
                width, tau = int(rng.integers(1, n)), float(rng.uniform(0.001, 0.999))
                if case % 5 == 0:
                    tau = float(rng.choice([0.001, 0.01, 0.99, 0.999]))  # a bound opens
                r = rng.standard_normal(n)
                if case % 2:
                    r = np.round(r, int(rng.integers(0, 3)))
                if case % 7 == 0:
                    r[rng.random(n) < 0.05] = np.nan
                got, want = optimize._band(r, None, tau, width), self._band_by_sort(r, tau, width)
                mismatches += not (np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]))
        assert mismatches == 0

    @pytest.mark.parametrize("kind", ["low", "high", "tie", "nan", "open-low", "open-high"])
    def test_band_window_cases(self, monkeypatch, kind):
        # the windows the selection meets: a strided sample that misses the
        # ranks, so the lower or the upper bound opens; a tie at a cut; NaN
        # at a cut; and ranks past the sample's margin, so a bound starts open
        monkeypatch.setattr(optimize, "_BAND_SAMPLE", 50)
        n, width = 5000, 400
        r = np.random.default_rng(24).standard_normal(n)
        tau = {"nan": 0.95, "open-low": 0.01, "open-high": 0.99}.get(kind, 0.5)
        lo = max(0, math.ceil(tau * n) - 1 - width // 2)
        cuts = [c for c in (lo, lo + width) if 0 < c < n]
        if kind in ("low", "high"):
            # every sampled row lies far to one side of the ranks
            r[::n // 50] = 1e6 if kind == "low" else -1e6
        elif kind == "tie":
            order = np.argsort(r)
            r[order[lo - 5:lo + 5]] = r[order[lo]]
        elif kind == "nan":
            r[np.random.default_rng(25).choice(n, 400, replace=False)] = np.nan
        window, below = optimize._window(r, cuts[0] - 1, cuts[-1])
        if kind in ("low", "open-low"):
            assert below == 0  # the lower bound is -inf
        if kind in ("high", "open-high"):
            assert below + window.size == n  # the upper bound is inf
        if kind == "tie":
            v = np.sort(window)
            assert v[lo - 1 - below] == v[lo - below]  # the sort decides
        if kind == "nan":
            assert window is None  # the upper cut's rank is a NaN: the sort decides
        got, want = optimize._band(r, None, tau, width), self._band_by_sort(r, tau, width)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_weighted_band_is_the_sort(self):
        # weights keep the argsort, whatever they are
        rng = np.random.default_rng(25)
        r, w = rng.standard_normal(1000), rng.uniform(0.0, 2.0, 1000)
        lower, upper = optimize._band(r, w, 0.3, 100)
        order = np.argsort(r)
        k = int(np.searchsorted(np.cumsum(w[order]), 0.3 * w.sum()))
        assert np.array_equal(np.flatnonzero(lower), np.sort(order[:k - 50]))
        assert np.array_equal(np.flatnonzero(upper), np.sort(order[k + 50:]))
        assert np.array_equal(optimize._band(r, np.ones(1000), 0.3, 100)[0],
                              optimize._band(r, None, 0.3, 100)[0])

    def test_problem_keeps_its_draws_for_every_tau(self, monkeypatch):
        # a problem fitted at its taus in any order, one of them through
        # every round, gives the bytes of a fresh problem per tau: the
        # draws it keeps do not depend on tau or on the order of the fits
        z, y = self._problem(optimize.PREPROCESS_ROWS, seed=8)
        fitting = {}
        real = optimize._misplaced

        def every_member_at_half(r, lower, upper, eps):
            # at tau = 0.5 every round gives up, so that fit takes draws 0-2
            return (lower | upper) if fitting["tau"] == 0.5 else real(r, lower, upper, eps)

        def fit(problem, tau):
            fitting["tau"] = tau
            return optimize.fit_prepared(problem, tau)

        def solve(zs, *args):
            if len(args[3]) == optimize._SUBSAMPLE_STAGES:
                subsample_rows.append(zs.shape[0])
            return real_solve(zs, *args)

        real_solve, subsample_rows = optimize._solve, []
        monkeypatch.setattr(optimize, "_misplaced", every_member_at_half)
        monkeypatch.setattr(optimize, "_solve", solve)
        taus = (0.4, 0.05, 0.2)
        fresh = {tau: fit(optimize.CheckLossProblem(z, y), tau) for tau in (*taus, 0.5)}
        m = math.ceil(math.sqrt(3) * optimize.PREPROCESS_ROWS ** (2.0 / 3.0))
        for order in (taus, taus[::-1], (0.5, *taus), (*taus, 0.5)):
            problem = optimize.CheckLossProblem(z, y)
            for tau in order:
                subsample_rows.clear()
                _same_fit_bytes(fit(problem, tau), fresh[tau])
                assert subsample_rows == ([m, 2 * m, 4 * m] if tau == 0.5 else [m])
            assert len(problem.subsamples) == (3 if 0.5 in order else 1)
            assert all(not start.flags.writeable for *_, start in problem.subsamples)

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


# sha256 over theta, iterations and convergence of frequentist_fit on 2,000
# fixed rows at 3 taus x 8 directions, computed on the code that still
# returned the fits' objectives, whose earlier digest over these and the
# objectives had held since before chains started from a shortened
# schedule (the reduced problem's bytes are pinned by test_tau_contours)
FROZEN_FIT_SHA256 = "430fa18994c92b8995b48beed706b3dd13465571fa822679fe2212a2a90c145d"


class TestChainStarts:
    """A chain starts from the check-loss fit through the first
    ``samplers._INIT_STAGES`` stages of the schedule; every frequentist fit
    runs the whole schedule."""

    @staticmethod
    def _standardized(problem, theta):
        """A raw coefficient vector of a design with a constant column, in
        the problem's standardized units (fit_prepared's map, inverted)."""
        p, const = problem, problem.const_col
        out = np.where(const, 0.0, theta * p.col_sd / p.y_sd)
        j = int(np.flatnonzero(const)[0])
        shift = np.sum(np.where(const, 0.0, theta * p.col_mu))
        out[j] = (theta[j] * p.z[0, j] - p.y_mu + shift) / p.y_sd
        return out

    @pytest.mark.parametrize("n, median_gap, largest_gap", [(100, 0.01, 0.1), (2000, 0.025, 0.25)])
    def test_start_lies_near_the_full_fit(self, n, median_gap, largest_gap, monkeypatch):
        # the largest coefficient gap of each of a 32-direction, 3-tau
        # contour's starts, times sqrt(n).  At n = 2,000 one or two of the 96
        # problems lie beyond 0.1 on most star-like samples (0.14 on this one,
        # at most 0.22 over seeds 1-6), where the loss is flat along the gap
        data = _star_scores(n, seed=1)
        schedules = []
        real = optimize._solve

        def solve(zs, ys, tau, w, schedule, theta=None):
            schedules.append(schedule)
            return real(zs, ys, tau, w, schedule, theta)

        monkeypatch.setattr(optimize, "_solve", solve)
        gaps = []
        for tau in (0.05, 0.2, 0.4):
            for u in unit_directions(32):
                direction = Direction(u=u, tau=tau)
                design, y = optimize._direction_design(data, direction)
                start = samplers._resolve_init(None, design, y, direction, None, None)
                problem = optimize.CheckLossProblem(design, y)
                schedules.clear()
                full = optimize.fit_prepared(problem, tau)
                assert schedules == [constants.SMOOTHING_SCHEDULE]
                gap = self._standardized(problem, start) - self._standardized(problem, full.theta)
                gaps.append(np.max(np.abs(gap)) * np.sqrt(n))
        assert np.median(gaps) < median_gap
        assert max(gaps) < largest_gap

    def test_large_start_is_certified_at_its_last_eps(self, monkeypatch):
        n = optimize.PREPROCESS_ROWS
        data = _star_scores(n, seed=2)
        direction = Direction(u=unit_directions(32)[5], tau=0.2)
        design, y = optimize._direction_design(data, direction)
        schedules, certified, solved_rows = [], [], []
        real_pre, real_misplaced, real_solve = optimize._preprocessed_solve, optimize._misplaced, optimize._solve

        def pre(problem, tau, schedule):
            schedules.append(schedule)
            return real_pre(problem, tau, schedule)

        def misplaced(r, lower, upper, eps):
            certified.append((eps, bool(np.all(r[lower] <= -eps) and np.all(r[upper] >= eps))))
            return real_misplaced(r, lower, upper, eps)

        def solve(zs, *args):
            solved_rows.append(zs.shape[0])
            return real_solve(zs, *args)

        monkeypatch.setattr(optimize, "_preprocessed_solve", pre)
        monkeypatch.setattr(optimize, "_misplaced", misplaced)
        monkeypatch.setattr(optimize, "_solve", solve)
        start = samplers._resolve_init(None, design, y, direction, None, None)
        assert schedules == [constants.SMOOTHING_SCHEDULE[:samplers._INIT_STAGES]] == [(1e-1, 1e-2, 1e-3)]
        assert certified and certified[-1] == (1e-3, True)
        assert max(solved_rows) < n  # certified on the reduced rows, no full solve
        assert np.all(np.isfinite(start)) and start.shape == (2,)  # (beta_y, alpha)

    def test_frequentist_fits_keep_their_bytes(self):
        y = np.random.default_rng(16).standard_normal((2000, 2))
        data = Dataset(y=y @ np.array([[1.0, 0.0], [0.6, 0.8]]) + 3.0)
        h = hashlib.sha256()
        for tau in (0.05, 0.2, 0.4):
            for u in unit_directions(8):
                fit = frequentist_fit(data, Direction(u=u, tau=tau))
                h.update(fit.theta.as_vector().tobytes())
                h.update(np.array([fit.iterations, fit.converged]).tobytes())
        assert h.hexdigest() == FROZEN_FIT_SHA256


class TestNewtonStage:
    """The stage counts its start's smoothing band before the first loss, so
    a band of under a quarter of the rows takes the gathered branch from the
    first loss on, at any n."""

    @staticmethod
    def _first_gather(monkeypatch, n, eps):
        rng = np.random.default_rng(31)
        z = np.column_stack([rng.standard_normal(n), np.ones(n)])
        y = z @ np.array([0.7, -0.2]) + rng.standard_t(3, n)
        theta0 = np.linalg.lstsq(z, y, rcond=None)[0]
        flags = []
        real = optimize._smoothed_loss

        def spy(r, w, tau, eps, a, q, inside, gather=False):
            flags.append(gather)
            return real(r, w, tau, eps, a, q, inside, gather)

        monkeypatch.setattr(optimize, "_smoothed_loss", spy)
        got = optimize._newton_stage(z, y, 0.3, np.ones(n), theta0, eps)
        monkeypatch.undo()
        want = ref._newton_stage(z, y, 0.3, np.ones(n), theta0, eps)
        assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]
        return flags[0]

    @pytest.mark.parametrize("n, eps, gather", [(5000, 1e-3, True), (5000, 10.0, False),
                                                (1000, 1e-3, True)])
    def test_first_loss_takes_the_start_band(self, monkeypatch, n, eps, gather):
        assert self._first_gather(monkeypatch, n, eps) is gather

    def test_damping_search_finds_the_scan_k(self):
        # for every boundary k* of a monotone acceptance (40: none accepted)
        # and every first probe, absent (0), below, at or above k*, the
        # search returns the sequential scan's k, and its last accepted
        # probe is that k, whose candidate the stage keeps
        worst = 0
        for k_star, first in itertools.product(range(41), range(40)):
            probes = []

            def accepts(k):
                probes.append(k)
                return k >= k_star

            k = optimize._damping_search(accepts, first)
            assert k == (None if k_star == 40 else k_star), (k_star, first)
            accepted = [p for p in probes if p >= k_star]
            assert k is None or accepted[-1] == k
            assert all(0 <= p < 40 for p in probes) and len(set(probes)) == len(probes)
            worst = max(worst, len(probes))
        assert worst <= 12

    def test_solve_resumes_its_damping_search(self, monkeypatch):
        # the stages of one solve share the last accepted zero-curvature
        # damping, and every stage keeps the reference's bytes
        z, y = _star_design(3000, seed=2)
        hints = []
        real = optimize._newton_stage

        def stage(*args, hint=None, **kwargs):
            hints.append(hint[0])
            return real(*args, hint=hint, **kwargs)

        monkeypatch.setattr(optimize, "_newton_stage", stage)
        theta, its, ok = optimize._solve(z, y, 0.2, np.ones(3000), constants.SMOOTHING_SCHEDULE)
        assert hints[0] is None and any(h is not None for h in hints)
        monkeypatch.setattr(optimize, "_newton_stage", lambda *a, hint=None, **k: ref._newton_stage(*a, **k))
        want = optimize._solve(z, y, 0.2, np.ones(3000), constants.SMOOTHING_SCHEDULE)
        assert theta.tobytes() == want[0].tobytes() and (its, ok) == want[1:]

    def test_glob_weights_multiply_their_rows_only(self):
        # a reduced problem's weights: unit rows and two globs.  The stage
        # multiplies the globs' rows alone and keeps the dense multiply's bytes
        z, y = _star_design(3000, seed=3)
        w = np.ones(3000)
        w[[17, 2999]] = [1250.0, 740.0]
        rows, values = optimize._stage_weights(w)
        assert rows.tolist() == [17, 2999] and values.tolist() == [1250.0, 740.0]
        assert optimize._stage_weights(np.ones(10)) is None
        dense = np.random.default_rng(4).uniform(0.5, 2.0, 3000)
        assert optimize._stage_weights(dense) is dense
        r = y - z @ np.linalg.lstsq(z, y, rcond=None)[0]
        for eps, gather in ((0.5, False), (0.01, True)):
            bufs = [np.empty(3000), np.empty(3000), np.empty(3000, dtype=bool)]
            sparse = optimize._smoothed_loss(r, (rows, values), 0.3, eps, *bufs, gather)
            assert sparse == optimize._smoothed_loss(r, w, 0.3, eps, *bufs, gather)
        theta0 = np.linalg.lstsq(z, y, rcond=None)[0]
        for eps in (1e-1, 1e-4):
            got = optimize._newton_stage(z, y, 0.3, w, theta0, eps)
            want = ref._newton_stage(z, y, 0.3, w, theta0, eps)
            assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]

    def test_nan_response_runs_every_stage_to_max_iter(self):
        # a NaN residual makes every loss NaN: no step is accepted and no
        # stage converges, so each runs its 60 iterations
        rng = np.random.default_rng(32)
        z = np.column_stack([rng.standard_normal(500), np.ones(500)])
        y = rng.standard_normal(500)
        y[7] = np.nan
        theta, f, its, ok = optimize._newton_stage(z, y, 0.3, np.ones(500), np.zeros(2), 0.1)
        assert np.isnan(theta).all() and np.isnan(f) and (its, ok) == (60, False)
        theta, its, ok = optimize._solve(z, y, 0.3, np.ones(500), constants.SMOOTHING_SCHEDULE)
        assert np.isnan(theta).all() and (its, ok) == (60 * len(constants.SMOOTHING_SCHEDULE), False)


def _standardized_by_numpy(z, y):
    """CheckLossProblem's standardization in numpy's own reductions and
    broadcasts: col_mu, col_sd, zs, ys."""
    col_mu, col_sd = z.mean(axis=0), z.std(axis=0)
    const_col = col_sd <= 1e-12 * (1.0 + np.abs(col_mu))
    if np.any(const_col):
        y_mu = float(y.mean())
    else:
        col_mu, y_mu = np.zeros(z.shape[1]), 0.0
    col_mu = np.where(const_col, 0.0, col_mu)
    col_sd = np.where(const_col, 1.0, col_sd)
    zs = (z - col_mu) / col_sd
    zs[:, const_col] = z[:, const_col]
    return col_mu, col_sd, zs, (y - y_mu) / float(y.std())


class TestStandardization:
    """The column-wise moments and standardization give numpy's bytes."""

    @staticmethod
    def _design(kind):
        rng = np.random.default_rng(17)
        if kind == "constant column":
            return np.column_stack([rng.standard_normal((60, 2)), np.ones(60)]), None
        if kind == "weighted":
            z = np.column_stack([3.0 + 7.0 * rng.standard_normal((2000, 2)), np.ones(2000)])
            return z, rng.uniform(0.0, 2.0, 2000)
        if kind == "1e5 rows":
            return np.column_stack([500.0 + 30.0 * rng.standard_normal(100_000), np.ones(100_000)]), None
        if kind == "scale only":
            return 2.0 + rng.standard_normal((500, 3)), None
        # an F-ordered design, which numpy reduces pairwise
        return np.asfortranarray(np.column_stack([rng.standard_normal((3000, 2)), np.ones(3000)])), None

    @pytest.mark.parametrize("kind", ["constant column", "weighted", "1e5 rows", "scale only", "F-ordered"])
    def test_numpy_bytes(self, kind):
        z, w = self._design(kind)
        y = z @ np.linspace(0.5, -0.5, z.shape[1]) + np.random.default_rng(3).standard_t(3, z.shape[0])
        problem = optimize.CheckLossProblem(z, y, w)
        expected = _standardized_by_numpy(z, y)
        for got, want in zip((problem.col_mu, problem.col_sd, problem.zs, problem.ys), expected):
            assert got.tobytes() == want.tobytes()
            assert got.strides == want.strides
