import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirquant import contours, samplers
from dirquant.ald import HyperplaneParams
from dirquant.contours import (
    Halfplane,
    intersect_halfplanes,
    polygon_area,
    polygon_contains,
    tau_contour,
    to_upper_halfplane,
    tube_slice,
    tukey_depth,
)
from dirquant.errors import (
    DegenerateWindowError,
    DomainError,
    NumericalError,
    ShapeError,
    UnboundedRegionError,
)
from dirquant.geometry import Dataset, Direction, orthonormal_complement, project, unit_directions
from dirquant.inference import posterior_mean
from dirquant.samplers import (
    KernelSpec,
    PriorSpec,
    gibbs_conditional,
    gibbs_unconditional,
    kernel_weights,
    make_conditional_design,
)


class TestHalfplaneMapping:
    def test_zero_slopes_give_axis_plane(self, vertical_direction):
        basis = orthonormal_complement(vertical_direction.u)
        theta = HyperplaneParams(alpha=-0.30, beta_y=np.array([0.0]))
        hp = to_upper_halfplane(theta, vertical_direction, basis)
        assert np.allclose(hp.normal, [0.0, 1.0])
        assert hp.offset == pytest.approx(-0.30)
        assert hp.contains([0.0, 0.0]) and not hp.contains([0.0, -0.5])

    def test_zero_slope_normal_equals_direction(self, diag_direction):
        basis = orthonormal_complement(diag_direction.u)
        theta = HyperplaneParams(alpha=0.1, beta_y=np.array([0.0]))
        hp = to_upper_halfplane(theta, diag_direction, basis)
        assert np.allclose(hp.normal, diag_direction.u)

    def test_large_slope_aligns_with_direction(self, diag_direction):
        # as |beta| grows the boundary line turns toward the direction itself
        basis = orthonormal_complement(diag_direction.u)
        theta = HyperplaneParams(alpha=0.0, beta_y=np.array([1e6]))
        hp = to_upper_halfplane(theta, diag_direction, basis)
        boundary = np.array([hp.normal[1], -hp.normal[0]])
        boundary /= np.linalg.norm(boundary)
        angle = np.arccos(np.clip(abs(boundary @ diag_direction.u), -1, 1))
        assert angle < 1e-5

    def test_covariate_offset(self, vertical_direction):
        basis = orthonormal_complement(vertical_direction.u)
        theta = HyperplaneParams(alpha=-0.3, beta_y=np.array([0.0]), beta_x=np.array([2.0]))
        hp = to_upper_halfplane(theta, vertical_direction, basis, x_eval=np.array([1.5]))
        assert hp.offset == pytest.approx(-0.3 + 3.0)
        with pytest.raises(DomainError):
            to_upper_halfplane(theta, vertical_direction, basis)


class TestIntersection:
    def test_axis_aligned_box(self):
        planes = [
            Halfplane(np.array([1.0, 0.0]), -0.3),
            Halfplane(np.array([-1.0, 0.0]), -0.3),
            Halfplane(np.array([0.0, 1.0]), -0.3),
            Halfplane(np.array([0.0, -1.0]), -0.3),
        ]
        poly = intersect_halfplanes(planes)
        assert poly.vertices.shape == (4, 2)
        corners = {tuple(np.round(v, 9)) for v in poly.vertices}
        assert corners == {(0.3, 0.3), (-0.3, 0.3), (-0.3, -0.3), (0.3, -0.3)}

    def test_triangle(self):
        planes = [
            Halfplane(np.array([0.0, 1.0]), 0.0),
            Halfplane(np.array([1.0, -1.0]), -2.0),
            Halfplane(np.array([-1.0, -1.0]), -2.0),
        ]
        poly = intersect_halfplanes(planes)
        assert poly.vertices.shape == (3, 2)
        for v in poly.vertices:
            hits = sum(abs(float(h.normal @ v) - h.offset) < 1e-9 for h in planes)
            assert hits == 2

    def test_circumscribed_polygon_area(self):
        m = 32
        planes = [Halfplane(np.array(u), -1.0) for u in unit_directions(m)]
        poly = intersect_halfplanes(planes)
        oracle = m * np.tan(np.pi / m)
        assert polygon_area(poly.vertices) == pytest.approx(oracle, rel=1e-12)
        assert polygon_area(poly.vertices) == pytest.approx(np.pi, rel=0.02)

    def test_empty_region_is_result_not_error(self):
        planes = [
            Halfplane(np.array([1.0, 0.0]), 1.0),
            Halfplane(np.array([-1.0, 0.0]), 1.0),
            Halfplane(np.array([0.0, 1.0]), 0.0),
        ]
        poly = intersect_halfplanes(planes)
        assert poly.is_empty

    def test_unbounded_raises(self):
        planes = [
            Halfplane(np.array([1.0, 0.0]), 0.0),
            Halfplane(np.array([0.0, 1.0]), 0.0),
            Halfplane(np.array([1.0, 1.0]), 0.0),
        ]
        with pytest.raises(UnboundedRegionError):
            intersect_halfplanes(planes)

    def test_needs_three_planes(self):
        with pytest.raises(ShapeError):
            intersect_halfplanes([Halfplane(np.array([1.0, 0.0]), 0.0)])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(4, 40))
    def test_random_star_polygons_convex_ccw(self, seed, m):
        rng = np.random.default_rng(seed)
        offs = -rng.uniform(0.2, 2.0, size=m)
        planes = [Halfplane(np.array(u), o) for u, o in zip(unit_directions(m), offs)]
        poly = intersect_halfplanes(planes)
        assert not poly.is_empty
        v = poly.vertices
        nxt = np.roll(v, -1, axis=0)
        nxt2 = np.roll(v, -2, axis=0)
        cross = (nxt[:, 0] - v[:, 0]) * (nxt2[:, 1] - nxt[:, 1]) - (
            nxt[:, 1] - v[:, 1]
        ) * (nxt2[:, 0] - nxt[:, 0])
        assert np.all(cross > -1e-9)  # convex, counterclockwise
        for hp in planes:  # every vertex satisfies every generating halfplane
            assert np.all(v @ hp.normal >= hp.offset - 1e-8)


class TestTauContour:
    def test_normal_contour_radius(self):
        rng = np.random.default_rng(42)
        data = Dataset(y=rng.standard_normal((60_000, 2)))
        poly = tau_contour(data, 0.2, n_directions=32, estimator="frequentist")
        radii = np.linalg.norm(poly.vertices, axis=1)
        target = 0.8416212335729143
        assert abs(radii.mean() - target) / target < 0.03
        assert np.max(np.abs(radii - target)) / target < 0.06

    def test_nesting_across_tau(self):
        rng = np.random.default_rng(43)
        data = Dataset(y=rng.uniform(-0.5, 0.5, size=(4000, 2)))
        polys = {
            tau: tau_contour(data, tau, n_directions=32, estimator="frequentist")
            for tau in (0.05, 0.20, 0.40)
        }
        for inner, outer in ((0.40, 0.20), (0.20, 0.05)):
            for v in polys[inner].vertices:
                assert polygon_contains(polys[outer], v, tol=1e-6)
        # support bound: everything inside the square
        for tau in polys:
            assert np.max(np.abs(polys[tau].vertices)) <= 0.5 + 1e-9

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(44)
        base = rng.standard_normal((20_000, 2)) @ np.diag([1.0, 2.0])
        phi = 3 * (2.0 * np.pi / 24.0)  # grid multiple: rotated grid == grid
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        poly_a = tau_contour(Dataset(y=base), 0.2, 24, estimator="frequentist")
        poly_b = tau_contour(Dataset(y=base @ rot.T), 0.2, 24, estimator="frequentist")
        rotated = poly_a.vertices @ rot.T

        def hausdorff(p, q):
            d = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
            return max(d.min(axis=1).max(), d.min(axis=0).max())

        scale = np.abs(poly_a.vertices).max()
        assert hausdorff(rotated, poly_b.vertices) < 0.01 * scale + 0.05

    def test_bayes_mean_contour_deterministic(self, square_data):
        a = tau_contour(square_data, 0.3, 8, estimator="bayes-mean", n_draws=200, burn_in=50, seed=5)
        b = tau_contour(square_data, 0.3, 8, estimator="bayes-mean", n_draws=200, burn_in=50, seed=5)
        assert a.vertices.tobytes() == b.vertices.tobytes()

    def test_unconverged_frequentist_fit_warns(self, square_data, monkeypatch):
        real_fit = contours.fit_prepared
        iterations = {0.3: 9, 0.4: 11}

        def unconverged(problem, tau, **kwargs):
            fit = real_fit(problem, tau, **kwargs)
            # the problem's response is y_u = y @ u, which gives u back
            u = np.linalg.lstsq(square_data.y, problem.y, rcond=None)[0]
            if u[0] < -0.5:
                fit = dataclasses.replace(fit, iterations=iterations[tau], converged=False)
            return fit

        monkeypatch.setattr(contours, "fit_prepared", unconverged)
        with pytest.warns(RuntimeWarning) as caught:
            polys = contours.tau_contours(square_data, [0.3, 0.4], 8, estimator="frequentist")
        # one warning per unconverged (tau, direction): three of the eight have u1 < -1/2
        messages = [str(w.message) for w in caught]
        assert len(messages) == 6
        for tau, its in iterations.items():
            mine = [m for m in messages if f"(tau={tau}, " in m]
            assert len(mine) == 3
            assert all(re.search(rf"did not converge \(tau={tau}, u=\[.*\], {its} iterations\)", m)
                       for m in mine)
            assert any("u=[-1.0, " in m for m in mine)
        assert all(poly.vertices.shape[0] >= 3 for poly in polys)

    def test_k3_rejected(self):
        with pytest.raises(DomainError):
            tau_contour(Dataset(y=np.random.default_rng(0).normal(size=(50, 3))), 0.2, 8)


class TestTukeyDepth:
    def test_far_point_zero(self, square_data):
        assert tukey_depth([5.0, 5.0], square_data, 32) == 0.0

    def test_center_of_square(self):
        rng = np.random.default_rng(45)
        data = Dataset(y=rng.uniform(-0.5, 0.5, size=(100_000, 2)))
        assert tukey_depth([0.0, 0.0], data, 32) == pytest.approx(0.5, abs=0.01)

    def test_square_boundary_point(self):
        rng = np.random.default_rng(46)
        data = Dataset(y=rng.uniform(-0.5, 0.5, size=(100_000, 2)))
        assert tukey_depth([0.3, 0.0], data, 32) == pytest.approx(0.2, abs=0.02)

    def test_grid_refinement_never_increases(self):
        rng = np.random.default_rng(47)
        data = Dataset(y=rng.standard_normal((5000, 2)))
        point = [0.4, -0.2]
        d8 = tukey_depth(point, data, 8)
        d64 = tukey_depth(point, data, 64)
        assert d64 <= d8 + 1e-12


class TestTubeSlice:
    def _regression_data(self, n=4000, seed=48):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 2.0, size=(n, 1))
        y = rng.standard_normal((n, 2))
        y[:, 1] += 0.5 * x[:, 0]
        return Dataset(y=y, x=x)

    def test_wide_kernel_matches_unconditional_contour(self):
        # unnormalized kernel with huge bandwidth: every weight is exactly 1,
        # so the slice samples the same posterior as the marginal contour;
        # agreement is limited by per-chain Monte Carlo error only
        data = self._regression_data(n=2500)
        kernel = KernelSpec(bandwidth=1e9, normalized=False)
        w_probe = np.exp(-0.5 * (data.x[:, 0] / 1e9) ** 2)
        assert np.all(w_probe == 1.0)
        sliced = tube_slice(data, 0.2, 0.0, kernel, n_directions=12,
                            n_draws=4000, burn_in=500, seed=6)
        marginal = tau_contour(Dataset(y=data.y), 0.2, n_directions=12,
                               estimator="bayes-mean", n_draws=4000, burn_in=500, seed=6)
        d = np.linalg.norm(sliced.vertices[:, None, :] - marginal.vertices[None, :, :], axis=2)
        assert max(d.min(axis=1).max(), d.min(axis=0).max()) < 0.02

    def test_slice_centroid_tracks_conditional_mean(self):
        data = self._regression_data(n=12_000)
        kernel = KernelSpec(bandwidth=0.6)
        s0 = tube_slice(data, 0.2, 0.0, kernel, n_directions=12, n_draws=600, burn_in=150, seed=7)
        s2 = tube_slice(data, 0.2, 2.0, kernel, n_directions=12, n_draws=600, burn_in=150, seed=7)
        shift = s2.vertices.mean(axis=0) - s0.vertices.mean(axis=0)
        assert shift[1] == pytest.approx(1.0, abs=0.15)  # conditional mean moves by x0/2
        assert abs(shift[0]) < 0.15

    def test_nesting_within_slice(self):
        data = self._regression_data(n=5000)
        kernel = KernelSpec(bandwidth=1.0)
        inner = tube_slice(data, 0.4, 1.0, kernel, n_directions=16, n_draws=500, burn_in=100, seed=8)
        outer = tube_slice(data, 0.2, 1.0, kernel, n_directions=16, n_draws=500, burn_in=100, seed=8)
        for v in inner.vertices:
            assert polygon_contains(outer, v, tol=1e-6)

    def test_requires_covariates(self, square_data):
        with pytest.raises(DomainError):
            tube_slice(square_data, 0.2, 0.0, KernelSpec(bandwidth=1.0))


class TestBatchedDirections:
    """Directions stacked into engine calls against one chain per direction.

    The row budget is set to five chains of the data's n, so 12 directions
    run in chunks of 5, 5 and 2.
    """

    N_DIR, DRAWS, BURN, SEED = 12, 150, 30, 11

    @staticmethod
    def _count_calls(monkeypatch, n):
        monkeypatch.setattr(samplers, "_ROW_BUDGET", 5 * n)
        calls = []
        real = samplers._run_chains

        def counted(problems, *args):
            calls.append(len(problems))
            return real(problems, *args)

        monkeypatch.setattr(samplers, "_run_chains", counted)
        return calls

    def _directions(self, tau):
        dirs = [Direction(u=u, tau=tau) for u in unit_directions(self.N_DIR)]
        return dirs, [orthonormal_complement(d.u) for d in dirs]

    def test_contour_matches_per_direction_chains(self, square_data, monkeypatch):
        calls = self._count_calls(monkeypatch, square_data.n)
        poly = tau_contour(square_data, 0.3, self.N_DIR, n_draws=self.DRAWS, burn_in=self.BURN,
                           seed=self.SEED)
        assert calls == [5, 5, 2]
        dirs, bases = self._directions(0.3)
        prior = PriorSpec(mean=np.zeros(2), covariance=1000.0 * np.eye(2))
        planes = []
        for i, (direction, basis) in enumerate(zip(dirs, bases)):
            chain = gibbs_unconditional(square_data, direction, prior, n_draws=self.DRAWS,
                                        burn_in=self.BURN, seed=contours._direction_seed(self.SEED, i),
                                        basis=basis)
            planes.append(to_upper_halfplane(posterior_mean(chain), direction, basis))
        ref = intersect_halfplanes(planes, tau=0.3, n_directions=self.N_DIR)
        assert poly.vertices.shape[0] >= 3
        assert poly.vertices.tobytes() == ref.vertices.tobytes()

    @staticmethod
    def _regression_data():
        rng = np.random.default_rng(49)
        x = rng.standard_normal((800, 1))
        x[::40] = 9.0  # kernel weights near 1e-196 at bandwidth 0.3
        y = rng.standard_normal((800, 2))
        y[:, 1] += 0.5 * x[:, 0]
        return Dataset(y=y, x=x)

    @pytest.mark.parametrize("kind", ["local-constant", "local-bilinear"])
    def test_tube_matches_per_direction_chains(self, kind, monkeypatch):
        data = self._regression_data()
        kernel = KernelSpec(bandwidth=0.3)
        x0 = np.array([0.0])
        weights = kernel_weights(kernel, data.x, x0)
        assert 0.0 < weights.min() < 1e-160
        calls = self._count_calls(monkeypatch, data.n)
        poly = tube_slice(data, 0.3, x0, kernel, design_kind=kind, n_directions=self.N_DIR,
                          n_draws=self.DRAWS, burn_in=self.BURN, seed=self.SEED)
        assert calls == [5, 5, 2]
        dirs, bases = self._directions(0.3)
        planes = []
        for i, (direction, basis) in enumerate(zip(dirs, bases)):
            design = make_conditional_design(project(data, direction, basis), data.x, x0, kind)
            prior = PriorSpec(mean=np.zeros(design.dim), covariance=1000.0 * np.eye(design.dim))
            chain = gibbs_conditional(data, direction, design, kernel, prior, n_draws=self.DRAWS,
                                      burn_in=self.BURN, seed=contours._direction_seed(self.SEED, i),
                                      basis=basis)
            alpha, beta_y = design.params_at_x0(chain.post_burn().mean(axis=0))
            theta = HyperplaneParams(alpha=alpha, beta_y=beta_y, beta_x=None)
            planes.append(to_upper_halfplane(theta, direction, basis))
        ref = intersect_halfplanes(planes, tau=0.3, n_directions=self.N_DIR)
        assert poly.vertices.shape[0] >= 3
        assert poly.vertices.tobytes() == ref.vertices.tobytes()

    @staticmethod
    def _indefinite_prior(monkeypatch, name, u):
        # the sixth direction's chain gets a prior precision of -1e9 I, which no
        # data term repairs, so its stacked Cholesky fails in the first sweep
        real = getattr(contours, name)

        def patched(data, direction, *args, **kwargs):
            problem = real(data, direction, *args, **kwargs)
            if np.array_equal(direction.u, u):
                d = problem.design.shape[1]
                bad = SimpleNamespace(mean=np.zeros(d), covariance=-1e-9 * np.eye(d))
                problem = dataclasses.replace(problem, prior=bad)
            return problem

        monkeypatch.setattr(contours, name, patched)

    def test_failed_contour_chain_names_its_direction(self, square_data, monkeypatch):
        calls = self._count_calls(monkeypatch, square_data.n)
        u = unit_directions(self.N_DIR)[6]
        self._indefinite_prior(monkeypatch, "_unconditional_problem", u)
        with pytest.raises(NumericalError) as caught:
            tau_contour(square_data, 0.3, self.N_DIR, n_draws=self.DRAWS, burn_in=self.BURN)
        message = str(caught.value)
        assert message.startswith(f"chain of direction 6 (u={u.tolist()}, tau=0.3) failed: ")
        assert "in block 0 (sweep 0)" in message
        # the first chunk ran; the second failed stacked, then chain by chain up to direction 6
        assert calls == [5, 5, 1, 1]

    def test_failed_tube_chain_names_its_direction(self, monkeypatch):
        data = self._regression_data()
        self._count_calls(monkeypatch, data.n)
        u = unit_directions(self.N_DIR)[6]
        self._indefinite_prior(monkeypatch, "_conditional_problem", u)
        with pytest.raises(NumericalError, match=r"^chain of direction 6 \(u=\[.*\], tau=0\.3\) failed"):
            tube_slice(data, 0.3, 0.0, KernelSpec(bandwidth=0.3), n_directions=self.N_DIR,
                       n_draws=self.DRAWS, burn_in=self.BURN)

    def test_degenerate_window_propagates_from_preparation(self):
        data = self._regression_data()
        with pytest.raises(DegenerateWindowError, match="^all kernel weights underflowed"):
            tube_slice(data, 0.3, 1e6, KernelSpec(bandwidth=0.3), n_directions=self.N_DIR,
                       n_draws=self.DRAWS, burn_in=self.BURN)
