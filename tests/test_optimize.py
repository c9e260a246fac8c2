import hashlib
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import reference_kernels as ref

from dirquant import constants, optimize, samplers
from dirquant.errors import DomainError, RankError, ShapeError
from dirquant.geometry import Dataset, Direction, orthonormal_complement, project, unit_directions
from dirquant.optimize import fit_check_loss, frequentist_fit
from references import check_loss
from dirquant.simlab import DgpSpec, dgp_sample, make_star_like


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

    def test_smoothing_stages_converge(self, normal_data, diag_direction, monkeypatch):
        # with no vertex tried, the schedule's first seven stages end within
        # what the last stage would polish of the certified minimum's loss
        # (standardized units)
        tau = diag_direction.tau
        p = optimize._direction_problem(normal_data, diag_direction)
        start = optimize._full_start(p)
        exact, _, ok = optimize._solve(p.zs, p.ys, tau, p.w, constants.SMOOTHING_SCHEDULE, start, p.extent)
        assert ok
        monkeypatch.setattr(optimize, "_vertex", lambda *args: None)
        assert len(constants.SMOOTHING_SCHEDULE) == 8
        seven, _, _ = optimize._solve(p.zs, p.ys, tau, p.w, constants.SMOOTHING_SCHEDULE[:7], start, p.extent)
        seven_loss, exact_loss = (float(np.sum(check_loss(p.ys - p.zs @ theta, tau))) for theta in (seven, exact))
        assert exact_loss <= seven_loss < exact_loss + 1e-6 * normal_data.n

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

    def test_design_without_columns(self):
        with pytest.raises(ShapeError, match="no columns"):
            optimize.CheckLossProblem(np.zeros((10, 0)), np.zeros(10))

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


class TestLeanProblem:
    """A prepared problem holds one standardized copy of its rows, and its
    rank check makes no n x d copy when the Gram matrix certifies full rank."""

    N = 100_000

    @staticmethod
    def _arrays_nbytes(problem):
        return sum(v.nbytes for v in vars(problem).values() if isinstance(v, np.ndarray))

    def test_direction_problem_keeps_d_plus_one_columns(self):
        data = _star_scores(self.N, seed=1)
        column = [Direction(u=unit_directions(32)[5], tau=tau) for tau in (0.05, 0.2, 0.4)]
        problem = optimize._direction_problem(data, column[0])
        d = problem.zs.shape[1]
        # zs and ys, plus the d-vectors of the moments and the start; the
        # raw design, response and unit weights are not kept
        assert problem.w is None
        assert self._arrays_nbytes(problem) <= (d + 1) * 8 * self.N + 1024
        for direction in column:
            optimize.fit_prepared(problem, direction.tau)
        assert self._arrays_nbytes(problem) <= (d + 1) * 8 * self.N + 1024

    def test_frequentist_direction_traced_peak(self):
        # one direction's preparation, then three fits, at 1e5 rows: the
        # problem is built from the projection's columns, releases them once
        # standardized, and the fits' residual buffer waits for the first
        # subsample draw and lends itself to the globs.  Traced peaks
        # (preparation / fits) at the code that stacked the design and
        # copied each column for its moments, and here: 4.58 / 4.50 and
        # 3.06 / 3.93 MiB on jittered star-like scores (d = 2), 6.10 / 5.89
        # and 3.82 / 5.08 MiB on a DGP 4 oracle's [y_perp, x, 1] (d = 3)
        cases = [(_star_scores(self.N, seed=1), unit_directions(32)[5], (3.5, 4.3)),
                 (dgp_sample(DgpSpec(id=4, n=self.N, seed=5)), np.array([1.0, 1.0]) / np.sqrt(2.0), (4.3, 5.4))]
        for data, u, (preparation_bound, fits_bound) in cases:
            tracemalloc.start()
            try:
                problem = optimize._direction_problem(data, Direction(u=u, tau=0.2), orthonormal_complement(u))
                preparation = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                for tau in (0.05, 0.2, 0.4):
                    optimize.fit_prepared(problem, tau)
                fits = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            d = problem.zs.shape[1]
            assert preparation < preparation_bound * 2**20, d
            assert fits < fits_bound * 2**20, d

    def test_full_rank_design_makes_no_svd(self, monkeypatch):
        calls = []
        real = np.linalg.matrix_rank

        def spy(a, *args, **kwargs):
            calls.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "matrix_rank", spy)
        optimize._direction_problem(_star_scores(self.N, seed=2), Direction(u=unit_directions(32)[3], tau=0.2))
        assert calls == []
        # a design the Gram matrix cannot certify goes to the SVD
        with pytest.raises(RankError):
            optimize.CheckLossProblem(np.ones((self.N, 2)), np.arange(float(self.N)))
        assert calls == [(self.N, 2)]

    @staticmethod
    def _designs(n, d, rng):
        """(name, design) pairs: full rank with a constant column, exactly
        collinear, constant only, a constant column too large to square,
        and singular values falling geometrically from 1 to s_min/s_max
        = 1e-4 ... 1e-14."""
        full = np.column_stack([rng.standard_normal((n, d - 1)), np.ones(n)])
        collinear = full.copy()
        collinear[:, 0] = 3.0 * collinear[:, 1] if d > 2 else 3.0
        yield "full rank", full
        yield "collinear", collinear
        yield "constant only", np.ones((n, d)) * np.arange(1.0, d + 1.0)
        huge = full.copy()
        huge[:, -1] = 1e200
        yield "huge constant", huge
        q = np.linalg.qr(rng.standard_normal((n, d)))[0]
        v = np.linalg.qr(rng.standard_normal((d, d)))[0]
        for e in range(4, 15):
            s = np.sqrt(n) * np.geomspace(1.0, 10.0 ** -e, d)
            yield f"s_min/s_max 1e-{e}", np.ascontiguousarray((q * s) @ v.T)

    def test_gram_certificate_decides_as_the_svd(self, monkeypatch):
        svd_calls = []
        real = np.linalg.matrix_rank

        def spy(a, *args, **kwargs):
            svd_calls.append(1)
            return real(a, *args, **kwargs)

        rng = np.random.default_rng(29)
        certified = fallen_back = 0
        for n in (50, 1000, self.N):
            for d in (2, 3, 4):
                for name, z in self._designs(n, d, rng):
                    expected = real(z) == d
                    with monkeypatch.context() as m:
                        m.setattr(np.linalg, "matrix_rank", spy)
                        svd_calls.clear()
                        with warnings.catch_warnings():
                            warnings.simplefilter("error")
                            got = optimize._full_rank(z)
                    assert got == expected, (n, d, name)
                    if svd_calls:
                        fallen_back += 1
                    else:
                        certified += 1
                        assert expected, (n, d, name)
        # both ways are taken: full-rank and 1e-4 designs are certified, and
        # deficient, huge and near-deficient ones go to the SVD
        assert certified >= 18 and fallen_back >= 27


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
        # 24 contour fits on 1e5 rows, 8 directions x 3 taus as a frequentist
        # contour fits them; per fit the preprocessed result, the full
        # solve's, whether the last glob check found every member at or
        # beyond eps on its own side, and whether each of the two ended at a
        # certified vertex (its last solve returned a theta of _certify's)
        data = _star_scores(self.N, seed=21)
        out = []
        with pytest.MonkeyPatch.context() as m:
            checks, vertices, ends = [], [], []
            real, real_certify, real_solve = optimize._misplaced, optimize._certify, optimize._solve

            def checked(r, lower, upper, eps):
                checks.append(bool(np.all(r[lower] <= -eps) and np.all(r[upper] >= eps)))
                return real(r, lower, upper, eps)

            def certify(*args):
                theta = real_certify(*args)
                vertices.append(theta)
                return theta

            def solve(*args):
                result = real_solve(*args)
                ends.append(any(result[0] is v for v in vertices if v is not None))
                return result

            m.setattr(optimize, "_misplaced", checked)
            m.setattr(optimize, "_certify", certify)
            m.setattr(optimize, "_solve", solve)
            for tau in (0.05, 0.2, 0.4):
                for u in unit_directions(32)[::4]:
                    direction = Direction(u=u, tau=tau)
                    checks.clear()
                    pre = frequentist_fit(data, direction)
                    certified = bool(checks) and checks[-1]
                    exact = [ends[-1]]
                    with pytest.MonkeyPatch.context() as full_rows:
                        full_rows.setattr(optimize, "PREPROCESS_ROWS", np.inf)
                        full = frequentist_fit(data, direction)
                    exact.append(ends[-1])
                    vertices.clear()
                    out.append((direction, pre, full, certified, exact))
        return data, out

    def test_every_fit_ends_at_a_certified_vertex(self, fits):
        # a fit that falls back to the long schedule fails here instead of
        # only slowing the frequentist contour
        for direction, _, _, _, exact in fits[1]:
            assert exact == [True, True], direction

    def test_preprocessed_fit_is_the_full_solve(self, fits):
        # a certified vertex's bytes depend on the problem and its basis only
        for direction, pre, full, *_ in fits[1]:
            assert pre.theta.as_vector().tobytes() == full.theta.as_vector().tobytes(), direction

    def test_objective_no_worse_than_the_full_solve(self, fits):
        data, rows = fits
        assert len(rows) == 24
        for direction, pre, full, *_ in rows:
            full_loss = _fit_loss(data, direction, full)
            assert _fit_loss(data, direction, pre) <= full_loss * (1.0 + 1e-9), direction

    def test_every_fit_is_certified(self, fits):
        for direction, pre, _, certified, _ in fits[1]:
            assert certified, direction
            assert pre.converged

    def test_subgradient_fraction_bound(self, fits):
        data, rows = fits
        for direction, pre, *_ in rows:
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

        def spy(zs, ys, w_full, lower, upper, scratch):
            out = real(zs, ys, w_full, lower, upper, scratch)
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

    @pytest.mark.parametrize("weighted", [False, True])
    def test_reduced_rows_are_written_once(self, weighted):
        # the band's rows go straight into the reduced arrays: beyond its
        # result, _reduced holds less than one more n-vector (the band's
        # indices and masks), where taking the rows and then concatenating
        # them held a second copy of the result
        n = 100_000
        rng = np.random.default_rng(11)
        zs, ys = rng.standard_normal((n, 3)), rng.standard_normal(n)
        w = rng.uniform(0.5, 2.0, n) if weighted else None
        r = rng.standard_normal(n)
        lower, upper, scratch = r < -0.5, r > 0.6, np.empty(n)
        tracemalloc.start()
        try:
            zr, yr, wr = optimize._reduced(zs, ys, w, lower, upper, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < zr.nbytes + yr.nbytes + wr.nbytes + 8 * n
        # the rows are the band's, then each glob's weighted mean
        band, unit = ~(lower | upper), np.ones(n) if w is None else w
        globs = [unit * glob for glob in (lower, upper)]
        want = (np.concatenate([zs[band], *[(g @ zs)[None, :] / g.sum() for g in globs]]),
                np.concatenate([ys[band], [g @ ys / g.sum() for g in globs]]),
                np.concatenate([unit[band], [g.sum() for g in globs]]))
        for got, expected in zip((zr, yr, wr), want):
            assert got.tobytes() == expected.tobytes()

    @staticmethod
    def _problem(n, seed):
        rng = np.random.default_rng(seed)
        z = np.column_stack([rng.standard_normal((n, 2)), np.ones(n)])
        return z, z @ np.array([0.3, -0.2, 1.0]) + rng.standard_t(3, n)


# sha256 over theta, iterations and convergence of frequentist_fit on 2,000
# fixed rows at 3 taus x 8 directions, computed on the code that ends every
# full-schedule fit at its certified vertex (the reduced problem's bytes are
# pinned by test_tau_contours)
FROZEN_FIT_SHA256 = "f1856e99a1d4ee60f515a3e3ed8e7e5dc796a2ea813a991022f35054c3f03728"


class TestChainStarts:
    """A chain starts from the check-loss fit every frequentist fit is:
    ``fit_prepared`` on its direction's problem."""

    @pytest.mark.parametrize("n", [100, 2000, optimize.PREPROCESS_ROWS])
    def test_start_is_the_fit(self, n):
        # below and at the preprocessing threshold, at 3 taus x 32
        # directions; the chain's stacked design and the frequentist fit's
        # column views give one problem
        data = _star_scores(n, seed=1)
        prior = samplers._vague_prior(2)
        for tau in (0.05, 0.2, 0.4):
            for u in unit_directions(32):
                direction = Direction(u=u, tau=tau)
                start = samplers._unconditional_problem(data, direction, prior).theta0
                fit = optimize.fit_prepared(optimize._direction_problem(data, direction), tau)
                assert start.tobytes() == fit.theta.tobytes(), (n, tau, u)

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
    """The stage keeps the reference stage's bytes: it scans the same
    dampings, with or without rows in the smoothing band, its loss takes
    the band's rows by index, and it multiplies by every weight."""

    def test_solve_keeps_every_stage_reference_bytes(self, monkeypatch):
        # single stages from the least-squares start, with a sparse band (eps
        # 1e-3) and every row in it (eps 10); then a solve that certifies no
        # vertex and so runs every stage, some of whose candidates have
        # empty bands
        for n, eps in ((5000, 1e-3), (5000, 10.0), (1000, 1e-3)):
            rng = np.random.default_rng(31)
            z = np.column_stack([rng.standard_normal(n), np.ones(n)])
            y = z @ np.array([0.7, -0.2]) + rng.standard_t(3, n)
            theta0 = np.linalg.lstsq(z, y, rcond=None)[0]
            got = optimize._newton_stage(z, y, 0.3, np.ones(n), theta0, eps)
            want = ref._newton_stage(z, y, 0.3, np.ones(n), theta0, eps)
            assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]
        z, y = _star_design(3000, seed=2)
        empty = []
        real = optimize._smoothed_loss

        def spy(r, w, tau, eps, a, q, inside):
            f = real(r, w, tau, eps, a, q, inside)
            empty.append(not inside.any())
            return f

        monkeypatch.setattr(optimize, "_smoothed_loss", spy)
        monkeypatch.setattr(optimize, "_vertex", lambda *args: None)
        w = np.ones(3000)
        start = optimize._least_squares(z, y, w)
        theta, its, ok = optimize._solve(z, y, 0.2, w, constants.SMOOTHING_SCHEDULE, start, optimize._extent(z, y))
        assert any(empty)
        monkeypatch.setattr(optimize, "_newton_stage", ref._newton_stage)
        want = optimize._solve(z, y, 0.2, w, constants.SMOOTHING_SCHEDULE, start, optimize._extent(z, y))
        assert theta.tobytes() == want[0].tobytes() and (its, ok) == want[1:]

    def test_glob_weights_keep_the_reference_bytes(self):
        # a reduced problem's weights: unit rows and two globs, every row
        # multiplied, since x * 1.0 == x
        z, y = _star_design(3000, seed=3)
        w = np.ones(3000)
        w[[17, 2999]] = [1250.0, 740.0]
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
        theta, its, ok = optimize._solve(z, y, 0.3, np.ones(500), constants.SMOOTHING_SCHEDULE,
                                         optimize._least_squares(z, y, np.ones(500)), optimize._extent(z, y))
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
        return 2.0 + rng.standard_normal((500, 3)), None

    @pytest.mark.parametrize("kind", ["constant column", "weighted", "1e5 rows", "scale only"])
    def test_numpy_bytes(self, kind):
        z, w = self._design(kind)
        y = z @ np.linspace(0.5, -0.5, z.shape[1]) + np.random.default_rng(3).standard_t(3, z.shape[0])
        problem = optimize.CheckLossProblem(z, y, w)
        expected = _standardized_by_numpy(z, y)
        for got, want in zip((problem.col_mu, problem.col_sd, problem.zs, problem.ys), expected):
            assert got.tobytes() == want.tobytes()
            assert got.strides == want.strides

    @pytest.mark.parametrize("layout", ["F-ordered", "strided"])
    def test_layout_keeps_the_bytes(self, layout):
        # one moments path: a design's moments, standardization and fits do
        # not depend on how its rows are laid out in memory
        rng = np.random.default_rng(29)
        z = np.column_stack([40.0 + 6.0 * rng.standard_normal((3000, 2)), np.ones(3000)])
        y = z @ [0.5, -0.25, 1.0] + rng.standard_t(3, 3000)
        if layout == "F-ordered":
            other = np.asfortranarray(z)
        else:
            other = np.repeat(z, 2, axis=1)[:, ::2]
        assert other.tobytes() == z.tobytes() and not other.flags.c_contiguous
        c_problem, other_problem = optimize.CheckLossProblem(z, y), optimize.CheckLossProblem(other, y)
        for got, want in zip((other_problem.col_mu, other_problem.col_sd, other_problem.zs, other_problem.ys),
                             (c_problem.col_mu, c_problem.col_sd, c_problem.zs, c_problem.ys)):
            assert got.tobytes() == want.tobytes()
            assert got.strides == want.strides
        for tau in (0.2, 0.7):
            got, want = optimize.fit_prepared(other_problem, tau), optimize.fit_prepared(c_problem, tau)
            assert got.theta.tobytes() == want.theta.tobytes()
            assert got.iterations == want.iterations


class TestColumnBuiltProblem:
    """A direction's problem made from the projection's columns is the
    problem of the stacked design [y_perp, x, 1], byte for byte, at row
    counts around the moments' chunk."""

    @staticmethod
    def _data(n, p):
        rng = np.random.default_rng(41 + p)
        y = 500.0 + rng.standard_normal((n, 2)) @ [[30.0, 12.0], [0.0, 25.0]]
        return Dataset(y=y, x=10.0 + 3.0 * rng.standard_normal((n, p)) if p else None)

    @pytest.mark.parametrize("p", [0, 1])
    @pytest.mark.parametrize("n", [optimize._CHUNK - 1, optimize._CHUNK, 3 * optimize._CHUNK + 1, 100_000])
    def test_same_bytes_as_the_stacked_design(self, n, p):
        data = self._data(n, p)
        direction = Direction(u=unit_directions(32)[7], tau=0.2)
        design, y = optimize._direction_design(data, direction)
        built = optimize._direction_problem(data, direction)
        stacked = optimize.CheckLossProblem(design, y)
        assert built.zs.shape == (n, 2 + p)
        for got, want in zip((built.col_mu, built.col_sd, built.zs, built.ys),
                             (stacked.col_mu, stacked.col_sd, stacked.zs, stacked.ys)):
            assert got.tobytes() == want.tobytes()
            assert got.strides == want.strides
        # and both are numpy's own reductions and broadcasts
        for got, want in zip((built.col_mu, built.col_sd, built.zs, built.ys), _standardized_by_numpy(design, y)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [0, 1])
    def test_one_row(self, p):
        # the moments of a single row are numpy's, and both problems refuse it
        data = self._data(1, p)
        direction = Direction(u=unit_directions(32)[7], tau=0.2)
        design, y = optimize._direction_design(data, direction)
        mu, sd = optimize._column_moments(list(design.T))
        assert mu.tobytes() == design.mean(axis=0).tobytes()
        assert sd.tobytes() == design.std(axis=0).tobytes()
        for make in (lambda: optimize._direction_problem(data, direction),
                     lambda: optimize.CheckLossProblem(design, y)):
            with pytest.raises(DomainError, match="need more observations"):
                make()

    @pytest.mark.parametrize("p", [0, 1])
    def test_broadcast_constant_takes_no_running_sum(self, p, monkeypatch):
        # the broadcast constant's moments are (1.0, 0.0) without its two
        # running sums; the stacked design's materialized ones still take
        # them, and both problems keep numpy's bytes
        data = self._data(3 * optimize._CHUNK + 1, p)
        direction = Direction(u=unit_directions(32)[7], tau=0.2)
        sums = []
        real = optimize._running_sum

        def spy(col, *args):
            sums.append(col.strides)
            return real(col, *args)

        monkeypatch.setattr(optimize, "_running_sum", spy)
        built = optimize._direction_problem(data, direction)
        assert len(sums) == 2 * (1 + p) and (0,) not in sums
        design, y = optimize._direction_design(data, direction)
        sums.clear()
        stacked = optimize.CheckLossProblem(design, y)
        assert len(sums) == 2 * (2 + p)
        want = _standardized_by_numpy(design, y)
        for problem in (built, stacked):
            for got, expected in zip((problem.col_mu, problem.col_sd, problem.zs), want):
                assert got.tobytes() == expected.tobytes()

    def test_running_sums_start_from_zero(self):
        # numpy's axis-0 sum starts at 0.0, so a column of -0.0 sums to 0.0
        z = np.full((2 * optimize._CHUNK + 3, 2), -0.0)
        z[:, 1] = np.linspace(-1.0, 1.0, z.shape[0])
        mu, sd = optimize._column_moments(list(z.T))
        assert mu.tobytes() == z.mean(axis=0).tobytes()
        assert sd.tobytes() == z.std(axis=0).tobytes()

    def test_projection_is_released_before_the_rank_check(self, monkeypatch):
        # once zs and ys hold their values, y_perp and y_u are dropped: the
        # rank check, and the fits after it, run without them
        refs, alive = [], []
        real_project, real_rank = optimize.project, optimize._full_rank

        def project_spy(*args):
            projected = real_project(*args)
            refs.extend(weakref.ref(a) for a in (projected.y_u, projected.y_perp))
            return projected

        def rank_spy(zs):
            alive.extend(ref() is not None for ref in refs)
            return real_rank(zs)

        monkeypatch.setattr(optimize, "project", project_spy)
        monkeypatch.setattr(optimize, "_full_rank", rank_spy)
        optimize._direction_problem(self._data(5000, 1), Direction(u=unit_directions(32)[7], tau=0.2))
        assert alive == [False, False]
