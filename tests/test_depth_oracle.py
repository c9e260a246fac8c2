"""Contours checked against exact halfspace depth (tests/depth_oracle.py).

The tau-quantile region is the Tukey depth region of depth tau (Hallin,
Paindaveine & Siman 2010), so each vertex of a frequentist contour lies on a
fitted hyperplane whose closed lower halfplane holds about a share tau of
the data: its exact depth is at most tau plus the d rows a fit can
interpolate and one more for the open/closed boundary.  No sampler is
involved, so this checks fit -> halfplane -> intersection end to end.
"""

import numpy as np
import pytest

from depth_oracle import halfspace_depth
from dirquant import optimize
from dirquant.contours import tau_contour, tukey_depth
from dirquant.geometry import Dataset, unit_directions
from dirquant.simlab import make_star_like

N = 100_000
TAU = 0.2


class TestOracle:
    def test_matches_a_dense_direction_grid(self):
        # on 30 points the closed halfplane counts over 2e5 directions reach
        # the minimum, which an open boundary between two events attains
        rng = np.random.default_rng(0)
        normals = np.array(unit_directions(200_000))
        for _ in range(25):
            y = rng.standard_normal((30, 2))
            point = 0.7 * rng.standard_normal(2)
            grid = float(np.min(np.mean((y - point) @ normals.T <= 0.0, axis=0)))
            assert halfspace_depth(point, y) == grid

    def test_symmetric_cross_and_ties(self):
        cross = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert halfspace_depth([0.0, 0.0], cross) == 0.5
        # a point of the sample counts in every halfplane through it
        assert halfspace_depth([1.0, 0.0], cross) == 0.25
        assert halfspace_depth([5.0, 5.0], cross) == 0.0

    def test_tukey_depth_bounds_it_from_above(self):
        rng = np.random.default_rng(1)
        data = Dataset(y=rng.standard_normal((5000, 2)) @ np.array([[1.0, 0.4], [0.0, 2.0]]))
        for point in rng.uniform(-2.5, 2.5, (40, 2)):
            assert tukey_depth(point, data, 32) >= halfspace_depth(point, data.y)


@pytest.fixture(scope="module")
def scores():
    cols = make_star_like(N, seed=31)
    jitter = np.random.default_rng(32).uniform(0.0, 1.0, (N, 2))
    return Dataset(y=np.column_stack([cols["math"], cols["read"]]) + jitter)


@pytest.fixture(scope="module")
def vertex_depths(scores):
    """Exact depths of the vertices of the preprocessed and the full-solve contour."""
    pre = tau_contour(scores, TAU, estimator="frequentist")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(optimize, "PREPROCESS_ROWS", np.inf)
        full = tau_contour(scores, TAU, estimator="frequentist")
    return {name: np.array([halfspace_depth(v, scores.y) for v in poly.vertices])
            for name, poly in (("preprocessed", pre), ("full", full))}


class TestContourVertexDepth:
    def test_vertices_lie_at_depth_tau(self, vertex_depths):
        d = 2  # (beta_y, alpha)
        for depths in vertex_depths.values():
            assert depths.size >= 16
            assert np.all(depths <= TAU + (d + 1) / N)
            # the direction grid cuts corners, but not by much at 32 directions
            assert np.all(depths >= TAU - 0.02)

    def test_preprocessing_keeps_the_vertex_depths(self, vertex_depths):
        assert vertex_depths["preprocessed"].min() >= vertex_depths["full"].min() - 2 / N
