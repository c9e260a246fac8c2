import dataclasses
import hashlib
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirquant import contours, samplers
from dirquant.ald import HyperplaneParams
from dirquant.contours import (
    intersect_halfplanes,
    polygon_area,
    tau_contour,
    tau_contours,
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
from references import polygon_contains


def _contains(plane, point) -> bool:
    """Whether ``point`` lies in the halfplane row (normal_x, normal_y, offset)."""
    return float(plane[:2] @ np.asarray(point, dtype=float)) >= plane[2]


class TestHalfplaneMapping:
    def test_zero_slopes_give_axis_plane(self, vertical_direction):
        basis = orthonormal_complement(vertical_direction.u)
        theta = HyperplaneParams(alpha=-0.30, beta_y=np.array([0.0]))
        hp = to_upper_halfplane(theta, vertical_direction, basis)
        assert hp.shape == (3,)
        assert np.allclose(hp[:2], [0.0, 1.0])
        assert hp[2] == pytest.approx(-0.30)
        assert _contains(hp, [0.0, 0.0]) and not _contains(hp, [0.0, -0.5])

    def test_zero_slope_normal_equals_direction(self, diag_direction):
        basis = orthonormal_complement(diag_direction.u)
        theta = HyperplaneParams(alpha=0.1, beta_y=np.array([0.0]))
        hp = to_upper_halfplane(theta, diag_direction, basis)
        assert np.allclose(hp[:2], diag_direction.u)

    def test_large_slope_aligns_with_direction(self, diag_direction):
        # as |beta| grows the boundary line turns toward the direction itself
        basis = orthonormal_complement(diag_direction.u)
        theta = HyperplaneParams(alpha=0.0, beta_y=np.array([1e6]))
        hp = to_upper_halfplane(theta, diag_direction, basis)
        boundary = np.array([hp[1], -hp[0]])
        boundary /= np.linalg.norm(boundary)
        angle = np.arccos(np.clip(abs(boundary @ diag_direction.u), -1, 1))
        assert angle < 1e-5

    def test_covariate_offset(self, vertical_direction):
        basis = orthonormal_complement(vertical_direction.u)
        theta = HyperplaneParams(alpha=-0.3, beta_y=np.array([0.0]), beta_x=np.array([2.0]))
        hp = to_upper_halfplane(theta, vertical_direction, basis, x_eval=np.array([1.5]))
        assert hp[2] == pytest.approx(-0.3 + 3.0)
        with pytest.raises(DomainError):
            to_upper_halfplane(theta, vertical_direction, basis)


def _frozen_plane_set(seed):
    """Seeded halfplane rows: even seeds tilt a circle grid's normals as
    fitted slopes do, odd seeds draw normals of any angle and length."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(8, 41))
    if seed % 2 == 0:
        u = np.array(unit_directions(m))
        normals = u - np.column_stack([-u[:, 1], u[:, 0]]) * rng.normal(0.0, 0.2, (m, 1))
        return np.column_stack([normals, -1.0 - 0.1 * rng.standard_normal(m)])
    angles = rng.uniform(-np.pi, np.pi, m)
    normals = rng.uniform(0.2, 3.0, (m, 1)) * np.column_stack([np.cos(angles), np.sin(angles)])
    return np.column_stack([normals, -rng.uniform(0.1, 2.0, m)])


# sha256 of the vertex bytes of _frozen_plane_set(seed), seed = 0..39, as the
# intersection over per-plane objects gave them
FROZEN_VERTEX_SHA256 = (
    "fce8b31fcacbe5688c3a81e1fc335ffa4f06d91b062bdf3f6a4a360cfe4caea5",
    "0ed2baee3048b5081b8f3b3be72379106a3fc2b5672d5c4585c306f41a13681c",
    "1aee4cb868cb113bfe3076ffb3c9665966f341d76cbe7a9b738c4679f29dccbf",
    "09a7528cb213688bcf3289fe6745ea073372bb1518ad7aa9a2a6c0e68e58a4b6",
    "3935e00a943cd56649cc6df2aca30d4d5b1c3b136d197fa521aa1e74ae8751e2",
    "a261198b412fec7669e7637f546f8dc12f4e1b8f8f173ab19e1e263af1605de5",
    "1ae319ae4f7f91d64f6d03ba457b8a2c65d7c554eb6cf6f26577a66e2604b28a",
    "3ee79c04db50df61e539f79b892cf824483e17931df25cffe27d8892b8e3ac13",
    "cb26ebe7ebd8e3cd90a2f252f8ef6c601139c384c7dd4a9c5090a9c50d70f6ce",
    "c5274cd861003d1b39c424e98d3d5714d39bbe83b10c1b17445339a637957048",
    "ac1f18b239ff65b7b189f87471af6c9266a14097b64968ba2835147f71f12b3a",
    "356c1b4f2923760d6abf4a541cba031f982d47b018d3e8e7a93ab78fbfd00b31",
    "4ee7196a0827dc505f3cdb583b031499cb65f57624ef067c94d43bb327336081",
    "24bf1082028c844817d65198e6e024d0d72ecddea0c05cdc3366c9a20ed3eddc",
    "f44db853be9a2398b7cdb93c94e6dc10ffd3de058b2484e0cffb2da0193db33d",
    "877db8d5da97f45d23309cf468756eed8ebfee998f6b03222550c5b92a27e9ec",
    "b2d5856dfedc2ee115f4d336388037dfb71db80ce3721e3abcff53482df9da86",
    "9f53028218c59e019b5e434db161a0f910b8fc8ea6f3379ebe4e2d603a81772e",
    "c78274fc64a3d07e2a389f6191295232c3b3101ec590ccb3424f3f08bf628907",
    "02fac892b530c0075bdc573db6ec71aa278e3cad2e01325176192337eaccab6f",
    "d135c5232e099aa6ea10be4de07fc82f6796379f6a371deb2e768d783ac0e157",
    "2f54c9a539650ed33b04a816de0bbc48451cee47892b8677327e81d305bbd2c0",
    "705a9e271d5a4465f88d283618ff3b5c45ce6c531d9d50df3033281dbf881615",
    "f2694b2a3ac3a8557e1fd3bdeaec91ef10198df5784789539887bebd5ac142c4",
    "81fda2c9e149b521a002e7dba36fd4242167fda960154ba11d65cf76013da073",
    "0ba4fc5b17db70d8ade427dee82a8e52a159f2564f91f10a5c26aae1c5d74e54",
    "53bc7c4a8c5881689e6a4637deb5e6359d5f675b6b0f6d5fbb126037ea97543d",
    "362772f50938555feb1b0b8d4d4e3aa677f467c6949ecbe4b1701f0a05558fb3",
    "afcaeff0a446c9767913fcba88fb28c3741dd68be3d3ea058a5338c9f9e7ab7b",
    "5a16672738e3493f46836b4ceeb4089fabfaf1485ebc25873dd7fcd2e9396b3e",
    "00ba1d1d52d6e451b79501e2cd289c61c41ffe9d368639b7d3219de5d644b466",
    "4adbb3b2d002d456aa12d2c11147419f9eaad1eac35a1c3d33df291b4a40e4ec",
    "9d555ad0bb0c9cffbab378f52681af5f0386616d5482570a0cb0d17b74b6acf6",
    "d5c4c63a71828ad72d205c3afae92640f88ccc442ad306a7bc9a49889cc99b14",
    "398c3adc463319968bea3a1afc410224e2d61464a5d652da07409db48a54bf10",
    "cfda12c1e5284663501c7d1a87e14d5d1ecd43fffbb92330dc47efc9d9a4f49c",
    "be303e14aa741d2e2db64182fd003292739d9b6a22a51a13447a972040d49119",
    "641e123d0a70a1456de482ce3d0a6e9c46fb2577f85df2215ef2572ebceb5796",
    "970157cb2a68df2a8666dc96c2f8743fc9590dd4e031e491227c58d222a3407b",
    "a87d7884b4e7bcaa3acc2dce9397a3fa17d7c977e311e639cdd9cf69a69bc935",
)


class TestIntersection:
    def test_axis_aligned_box(self):
        planes = np.array([
            [1.0, 0.0, -0.3],
            [-1.0, 0.0, -0.3],
            [0.0, 1.0, -0.3],
            [0.0, -1.0, -0.3],
        ])
        poly = intersect_halfplanes(planes)
        assert poly.vertices.shape == (4, 2)
        assert poly.n_directions == 4
        corners = {tuple(np.round(v, 9)) for v in poly.vertices}
        assert corners == {(0.3, 0.3), (-0.3, 0.3), (-0.3, -0.3), (0.3, -0.3)}

    def test_triangle(self):
        planes = np.array([
            [0.0, 1.0, 0.0],
            [1.0, -1.0, -2.0],
            [-1.0, -1.0, -2.0],
        ])
        poly = intersect_halfplanes(planes)
        assert poly.vertices.shape == (3, 2)
        for v in poly.vertices:
            hits = sum(abs(float(h[:2] @ v) - h[2]) < 1e-9 for h in planes)
            assert hits == 2

    def test_circumscribed_polygon_area(self):
        m = 32
        planes = np.column_stack([unit_directions(m), -np.ones(m)])
        poly = intersect_halfplanes(planes)
        oracle = m * np.tan(np.pi / m)
        assert poly.n_directions == m
        assert polygon_area(poly.vertices) == pytest.approx(oracle, rel=1e-12)
        assert polygon_area(poly.vertices) == pytest.approx(np.pi, rel=0.02)

    def test_empty_region_is_result_not_error(self):
        planes = np.array([
            [1.0, 0.0, 1.0],
            [-1.0, 0.0, 1.0],
            [0.0, 1.0, 0.0],
        ])
        poly = intersect_halfplanes(planes)
        assert poly.is_empty
        assert poly.n_directions == 3

    def test_unbounded_raises(self):
        planes = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0],
        ])
        with pytest.raises(UnboundedRegionError):
            intersect_halfplanes(planes)

    def test_needs_three_planes(self):
        with pytest.raises(ShapeError):
            intersect_halfplanes([[1.0, 0.0, 0.0]])
        with pytest.raises(ShapeError):
            intersect_halfplanes(np.zeros((0, 3)))

    @pytest.mark.parametrize("planes", [
        np.ones((4, 2)),
        np.ones((4, 4)),
        np.ones(12),
        np.ones((4, 3, 1)),
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    ])
    def test_rows_must_be_m_by_3(self, planes):
        with pytest.raises(ShapeError):
            intersect_halfplanes(planes)

    @pytest.mark.parametrize("bad", [[0.0, 0.0, -1.0], [np.nan, 1.0, -1.0], [1.0, np.inf, -1.0],
                                     [-np.inf, 0.0, -1.0], [0.0, 1.0, np.nan], [1.0, 0.0, np.inf]])
    def test_rows_must_be_finite_with_nonzero_normals(self, bad):
        # a NaN offset used to drop its plane from the polygon without a word
        planes = np.column_stack([unit_directions(8), -np.ones(8)])
        planes[5] = bad
        with pytest.raises(DomainError, match="must be finite and their normals nonzero"):
            intersect_halfplanes(planes)

    def test_sequence_of_rows_and_array_agree(self):
        planes = _frozen_plane_set(2)
        as_rows = intersect_halfplanes([row for row in planes], tau=0.3)
        as_array = intersect_halfplanes(planes, tau=0.3)
        assert as_rows.tau == as_array.tau == 0.3
        assert as_rows.vertices.tobytes() == as_array.vertices.tobytes()

    def test_vertex_bytes_are_frozen(self):
        # writing a 2-vector dot product out in place of numpy's ``@``
        # changes about half of these digests
        digests = [hashlib.sha256(intersect_halfplanes(_frozen_plane_set(seed)).vertices.tobytes())
                   .hexdigest() for seed in range(40)]
        changed = [seed for seed, (a, b) in enumerate(zip(digests, FROZEN_VERTEX_SHA256)) if a != b]
        assert changed == []

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(4, 40))
    def test_random_star_polygons_convex_ccw(self, seed, m):
        rng = np.random.default_rng(seed)
        offs = -rng.uniform(0.2, 2.0, size=m)
        planes = np.column_stack([unit_directions(m), offs])
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
            assert np.all(v @ hp[:2] >= hp[2] - 1e-8)


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
            # the problem's response is (y @ u - mean) / sd, which gives u
            # back up to its positive scale
            ones = np.ones((square_data.n, 1))
            u = np.linalg.lstsq(np.hstack([square_data.y, ones]), problem.ys, rcond=None)[0][:2]
            u /= np.linalg.norm(u)
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
        assert tukey_depth([5.0, 5.0], square_data) == 0.0

    def test_center_of_square(self):
        rng = np.random.default_rng(45)
        data = Dataset(y=rng.uniform(-0.5, 0.5, size=(100_000, 2)))
        assert tukey_depth([0.0, 0.0], data) == pytest.approx(0.5, abs=0.01)

    def test_square_boundary_point(self):
        rng = np.random.default_rng(46)
        data = Dataset(y=rng.uniform(-0.5, 0.5, size=(100_000, 2)))
        assert tukey_depth([0.3, 0.0], data) == pytest.approx(0.2, abs=0.02)

    def test_every_row_at_the_point(self):
        assert tukey_depth([1.0, -2.0], Dataset(y=np.tile([1.0, -2.0], (7, 1)))) == 1.0

    @pytest.mark.parametrize("point", [[0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]], 0.0,
                                       [np.nan, 0.0], [0.0, np.inf]])
    def test_point_must_be_a_finite_2_vector(self, square_data, point):
        with pytest.raises(ShapeError, match="finite 2-vector"):
            tukey_depth(point, square_data)

    def test_k3_rejected(self):
        with pytest.raises(DomainError):
            tukey_depth([0.0, 0.0], Dataset(y=np.zeros((5, 3))))


class TestTubeSlice:
    def _regression_data(self, n=4000, seed=48):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 2.0, size=(n, 1))
        y = rng.standard_normal((n, 2))
        y[:, 1] += 0.5 * x[:, 0]
        return Dataset(y=y, x=x)

    def test_unit_kernel_weights_match_unconditional_contour(self):
        # every covariate at x0 and the bandwidth 1/sqrt(2 pi), at which the
        # kernel's peak is 1: every weight is 1 to the last bit or two, so
        # the slice samples the marginal contour's posterior; agreement is
        # limited by per-chain Monte Carlo error only
        data = self._regression_data(n=2500)
        data = Dataset(y=data.y, x=np.zeros((data.n, 1)))
        kernel = KernelSpec(bandwidth=1.0 / np.sqrt(2.0 * np.pi))
        assert np.allclose(samplers.kernel_weights(kernel, data.x, [0.0]), 1.0, rtol=0.0, atol=1e-15)
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
    run in chunks of 5, 5 and 2 at one tau, and one direction per chunk at
    three.
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
        ref = intersect_halfplanes(planes, tau=0.3)
        assert ref.n_directions == self.N_DIR
        assert poly.vertices.shape[0] >= 3
        assert poly.vertices.tobytes() == ref.vertices.tobytes()

    def test_multi_tau_chunks_hold_whole_directions(self, square_data, monkeypatch):
        # a direction's 3 chains take 3n rows, so a budget of 7n holds 2 directions
        monkeypatch.setattr(samplers, "_ROW_BUDGET", 7 * square_data.n)
        calls, made = [], []
        real_run, real_rng = samplers._run_chains, samplers._rng_from_seed

        def counted(problems, *args):
            calls.append([(q.seed, q.tau) for q in problems])
            return real_run(problems, *args)

        def rng_counted(seed):
            made.append(seed)
            return real_rng(seed)

        monkeypatch.setattr(samplers, "_run_chains", counted)
        monkeypatch.setattr(samplers, "_rng_from_seed", rng_counted)
        taus = (0.1, 0.2, 0.3)
        polys = tau_contours(square_data, taus, self.N_DIR, n_draws=self.DRAWS, burn_in=self.BURN,
                             seed=self.SEED)
        seeds = [contours._direction_seed(self.SEED, i) for i in range(self.N_DIR)]
        assert calls == [[(seed, tau) for seed in seeds[i:i + 2] for tau in taus]
                         for i in range(0, self.N_DIR, 2)]
        # one stream per direction, shared by its taus' chains
        assert made == seeds
        monkeypatch.setattr(samplers, "_run_chains", real_run)
        for poly, tau in zip(polys, taus):
            one = tau_contour(square_data, tau, self.N_DIR, n_draws=self.DRAWS, burn_in=self.BURN,
                              seed=self.SEED)
            assert poly.vertices.tobytes() == one.vertices.tobytes()

    @staticmethod
    def _regression_data():
        rng = np.random.default_rng(49)
        x = rng.standard_normal((800, 1))
        x[::40] = 9.0  # kernel weights near 1e-196 at bandwidth 0.3
        y = rng.standard_normal((800, 2))
        y[:, 1] += 0.5 * x[:, 0]
        return Dataset(y=y, x=x)

    @pytest.mark.parametrize("kind", ["local-constant", "local-bilinear"])
    def test_tube_matches_per_direction_chains(self, kind, monkeypatch, projections):
        data = self._regression_data()
        kernel = KernelSpec(bandwidth=0.3)
        x0 = np.array([0.0])
        weights = kernel_weights(kernel, data.x, x0)
        assert 0.0 < weights.min() < 1e-160
        calls = self._count_calls(monkeypatch, data.n)
        poly = tube_slice(data, 0.3, x0, kernel, design_kind=kind, n_directions=self.N_DIR,
                          n_draws=self.DRAWS, burn_in=self.BURN, seed=self.SEED)
        assert calls == [5, 5, 2]
        # one projection per chain: its design carries the response
        assert [d.u.tobytes() for d in projections] == [u.tobytes() for u in unit_directions(self.N_DIR)]
        dirs, bases = self._directions(0.3)
        planes = []
        for i, (direction, basis) in enumerate(zip(dirs, bases)):
            design = make_conditional_design(project(data, direction, basis), data.x, x0, kind)
            prior = PriorSpec(mean=np.zeros(design.dim), covariance=1000.0 * np.eye(design.dim))
            chain = gibbs_conditional(data, direction, design, kernel, prior, n_draws=self.DRAWS,
                                      burn_in=self.BURN, seed=contours._direction_seed(self.SEED, i))
            alpha, beta_y = design.params_at_x0(chain.post_burn().mean(axis=0))
            theta = HyperplaneParams(alpha=alpha, beta_y=beta_y, beta_x=None)
            planes.append(to_upper_halfplane(theta, direction, basis))
        ref = intersect_halfplanes(planes, tau=0.3)
        assert ref.n_directions == self.N_DIR
        assert poly.vertices.shape[0] >= 3
        assert poly.vertices.tobytes() == ref.vertices.tobytes()

    @staticmethod
    def _indefinite_prior(monkeypatch, name, u, tau=None):
        # the sixth direction's chain (at tau, or at every tau) gets a prior
        # precision of -1e9 I, which no data term repairs, so its stacked
        # Cholesky fails in the first sweep
        real = getattr(contours, name)

        def patched(data, direction, *args, **kwargs):
            problem = real(data, direction, *args, **kwargs)
            if np.array_equal(direction.u, u) and tau in (None, direction.tau):
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

    def test_failed_multi_tau_chain_names_its_direction_and_tau(self, square_data, monkeypatch):
        calls = self._count_calls(monkeypatch, square_data.n)
        u = unit_directions(self.N_DIR)[6]
        self._indefinite_prior(monkeypatch, "_unconditional_problem", u, tau=0.3)
        with pytest.raises(NumericalError) as caught:
            tau_contours(square_data, (0.2, 0.3, 0.4), self.N_DIR, n_draws=self.DRAWS,
                         burn_in=self.BURN)
        message = str(caught.value)
        assert message.startswith(f"chain of direction 6 (u={u.tolist()}, tau=0.3) failed: ")
        assert "in block 0 (sweep 0)" in message
        # one direction per chunk: directions 0-5 ran, direction 6 failed
        # stacked, then chain by chain up to its tau = 0.3 chain
        assert calls == [3] * 7 + [1, 1]

    def test_failed_tube_chain_names_its_direction(self, monkeypatch):
        data = self._regression_data()
        self._count_calls(monkeypatch, data.n)
        u = unit_directions(self.N_DIR)[6]
        self._indefinite_prior(monkeypatch, "_conditional_problem", u)
        with pytest.raises(NumericalError, match=r"^chain of direction 6 \(u=\[.*\], tau=0\.3\) failed"):
            tube_slice(data, 0.3, 0.0, KernelSpec(bandwidth=0.3), n_directions=self.N_DIR,
                       n_draws=self.DRAWS, burn_in=self.BURN)

    def test_failed_tube_chain_names_its_x0(self, monkeypatch):
        # on a 2-tau x 2-x0 grid, only direction 6's chain at tau 0.3 and
        # x0 = 0.5 gets the indefinite prior
        data = self._regression_data()
        calls = self._count_calls(monkeypatch, data.n)
        u = unit_directions(self.N_DIR)[6]
        real = contours._conditional_problem

        def patched(data, direction, design, *args, **kwargs):
            problem = real(data, direction, design, *args, **kwargs)
            if np.array_equal(direction.u, u) and direction.tau == 0.3 and design.x0.tolist() == [0.5]:
                bad = SimpleNamespace(mean=np.zeros(design.dim), covariance=-1e-9 * np.eye(design.dim))
                problem = dataclasses.replace(problem, prior=bad)
            return problem

        monkeypatch.setattr(contours, "_conditional_problem", patched)
        with pytest.raises(NumericalError) as caught:
            contours.tube_slices(data, (0.2, 0.3), (0.0, 0.5), KernelSpec(bandwidth=0.3),
                                 n_directions=self.N_DIR, n_draws=self.DRAWS, burn_in=self.BURN)
        message = str(caught.value)
        assert message.startswith(f"chain of direction 6 (u={u.tolist()}, tau=0.3) failed at x0 = [0.5]: ")
        assert "in block 0 (sweep 0)" in message
        # a direction's 4 chains take 4n rows, so a budget of 5n holds one:
        # directions 0-5 ran, direction 6 failed stacked, then chain by chain
        # up to its (0.3, 0.5) chain, the last
        assert calls == [4] * 7 + [1] * 4

    def test_degenerate_window_propagates_from_preparation(self):
        data = self._regression_data()
        with pytest.raises(DegenerateWindowError, match="^all kernel weights underflowed"):
            tube_slice(data, 0.3, 1e6, KernelSpec(bandwidth=0.3), n_directions=self.N_DIR,
                       n_draws=self.DRAWS, burn_in=self.BURN)
