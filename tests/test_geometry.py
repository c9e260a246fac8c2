import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirquant.errors import DomainError, InvalidDirectionError, ShapeError
from dirquant.geometry import (
    Dataset,
    Direction,
    orthonormal_complement,
    project,
    unit_directions,
)
from references import check_loss

SQRT2 = np.sqrt(2.0)


def unit_vectors(dim):
    return (
        st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
        .map(lambda v: v / np.linalg.norm(v))
    )


class TestDirection:
    def test_valid(self):
        d = Direction(u=np.array([0.6, 0.8]), tau=0.3)
        assert d.k == 2

    def test_non_unit_rejected(self):
        with pytest.raises(InvalidDirectionError):
            Direction(u=np.array([1.0, 1.0]), tau=0.3)

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.2, 1.5])
    def test_bad_tau_rejected(self, tau):
        with pytest.raises(DomainError):
            Direction(u=np.array([0.0, 1.0]), tau=tau)

    def test_scalar_direction_rejected(self):
        with pytest.raises(InvalidDirectionError):
            Direction(u=np.array([1.0]), tau=0.2)


class TestOrthonormalComplement:
    def test_diag_matches_listed_value_up_to_sign(self):
        g = orthonormal_complement(np.array([1.0, 1.0]) / SQRT2).gamma.ravel()
        assert np.allclose(np.abs(g), [1 / SQRT2, 1 / SQRT2], atol=1e-12)
        assert g[0] > 0  # default convention fixes the first entry positive

    def test_vertical_gives_e1(self):
        g = orthonormal_complement(np.array([0.0, 1.0])).gamma.ravel()
        assert np.allclose(g, [1.0, 0.0], atol=1e-12)

    def test_conventions(self):
        u = np.array([1.0, 1.0]) / SQRT2
        house = orthonormal_complement(u, convention="householder").gamma.ravel()
        ccw = orthonormal_complement(u, convention="ccw").gamma.ravel()
        assert np.allclose(np.abs(house), [1 / SQRT2, 1 / SQRT2], atol=1e-12)
        assert np.allclose(ccw, [-1 / SQRT2, 1 / SQRT2], atol=1e-12)

    def test_k3_identity_block(self):
        g = orthonormal_complement(np.array([1.0, 0.0, 0.0])).gamma
        assert np.max(np.abs(g.T @ g - np.eye(2))) < 1e-10
        assert np.max(np.abs(g[0])) < 1e-10

    def test_non_unit_rejected(self):
        with pytest.raises(InvalidDirectionError):
            orthonormal_complement(np.array([1.0, 1.0]))

    def test_deterministic_bit_for_bit(self):
        u = np.array([0.3, -0.4, 0.5, np.sqrt(1 - 0.5)]) / 1.0
        u = u / np.linalg.norm(u)
        a = orthonormal_complement(u).gamma
        b = orthonormal_complement(u).gamma
        assert a.tobytes() == b.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(u=st.one_of(unit_vectors(2), unit_vectors(3), unit_vectors(5)))
    def test_orthonormality_property(self, u):
        g = orthonormal_complement(u).gamma
        k = u.size
        assert g.shape == (k, k - 1)
        assert np.max(np.abs(g.T @ g - np.eye(k - 1))) < 1e-10
        assert np.max(np.abs(u @ g)) < 1e-10


class TestProjection:
    def test_point_on_axis(self, diag_direction):
        data = Dataset(y=np.array([[1.0, 1.0]]))
        basis = orthonormal_complement(diag_direction.u)
        pr = project(data, diag_direction, basis)
        assert pr.y_u[0] == pytest.approx(SQRT2, abs=1e-12)
        assert pr.y_perp[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_point(self, vertical_direction):
        data = Dataset(y=np.array([[1.0, 0.0]]))
        basis = orthonormal_complement(vertical_direction.u)
        pr = project(data, vertical_direction, basis)
        assert pr.y_u[0] == pytest.approx(0.0, abs=1e-12)
        assert pr.y_perp[0, 0] == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(u=unit_vectors(2), seed=st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, u, seed):
        rng = np.random.default_rng(seed)
        data = Dataset(y=rng.normal(size=(100, 2)))
        direction = Direction(u=u, tau=0.2)
        basis = orthonormal_complement(u)
        pr = project(data, direction, basis)
        rebuilt = np.outer(pr.y_u, direction.u) + pr.y_perp @ basis.gamma.T
        assert np.max(np.abs(rebuilt - data.y)) < 1e-10

    def test_default_basis_is_the_complement(self, diag_direction):
        data = Dataset(y=np.random.default_rng(3).normal(size=(50, 2)))
        default = project(data, diag_direction)
        explicit = project(data, diag_direction, orthonormal_complement(diag_direction.u))
        assert default.y_u.tobytes() == explicit.y_u.tobytes()
        assert default.y_perp.tobytes() == explicit.y_perp.tobytes()

    def test_dimension_mismatch(self, diag_direction):
        data = Dataset(y=np.zeros((4, 3)) + np.eye(4, 3))
        basis = orthonormal_complement(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ShapeError):
            project(data, diag_direction, basis)


class TestCheckLoss:
    def test_positive_side(self):
        assert check_loss(1.0, 0.2) == pytest.approx(0.2)

    def test_negative_side(self):
        assert check_loss(-1.0, 0.2) == pytest.approx(0.8)

    @pytest.mark.parametrize("tau", [0.05, 0.2, 0.5, 0.95])
    def test_kink_is_zero(self, tau):
        assert check_loss(0.0, tau) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        x=st.floats(-1e8, 1e8, allow_nan=False),
        tau=st.floats(0.01, 0.99),
    )
    def test_reflection_identity(self, x, tau):
        # rho_tau(x) + rho_{1-tau}(x) = |x|, equivalently rho_{1-tau}(x) = rho_tau(-x)
        total = check_loss(x, tau) + check_loss(x, 1.0 - tau)
        assert total == pytest.approx(abs(x), rel=1e-12, abs=1e-12)
        assert check_loss(x, 1.0 - tau) == pytest.approx(
            check_loss(-x, tau), rel=1e-12, abs=1e-12
        )

    def test_tau_domain(self):
        with pytest.raises(DomainError):
            check_loss(1.0, 1.0)


class TestUnitDirections:
    def test_quarter_turns(self):
        dirs = np.array(unit_directions(4))
        expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        assert np.max(np.abs(dirs - expected)) < 1e-12

    def test_thirty_two_gap(self):
        dirs = unit_directions(32)
        assert len(dirs) == 32
        angles = np.array([np.arctan2(v[1], v[0]) for v in dirs])
        gaps = np.diff(np.unwrap(angles))
        assert np.allclose(np.degrees(gaps), 11.25, atol=1e-9)

    @pytest.mark.parametrize("count", [3, 7, 16, 45])
    def test_symmetric_sum(self, count):
        total = np.sum(unit_directions(count), axis=0)
        assert np.linalg.norm(total) < 1e-10

    def test_too_few(self):
        with pytest.raises(DomainError):
            unit_directions(2)


class TestDataset:
    def test_covariate_optional(self):
        d = Dataset(y=np.zeros((3, 2)))
        assert d.p == 0 and d.x.shape == (3, 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ShapeError):
            Dataset(y=np.array([[1.0, np.nan]]))

    def test_row_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Dataset(y=np.zeros((3, 2)), x=np.zeros((4, 1)))
