"""Directions, orthonormal complements, and projections.

Everything downstream (likelihoods, samplers, contours) consumes these
primitives.  All functions are pure and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import constants
from .errors import DomainError, InvalidDirectionError, ShapeError

__all__ = [
    "Direction",
    "OrthoBasis",
    "Dataset",
    "ProjectedData",
    "orthonormal_complement",
    "project",
    "unit_directions",
]


@dataclass(frozen=True)
class Direction:
    """A unit direction ``u`` in R^k together with a depth ``tau`` in (0, 1).

    The pair identifies one directional quantile: the depth scales the
    direction into the open unit ball.
    """

    u: np.ndarray
    tau: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        object.__setattr__(self, "u", u)
        if u.ndim != 1 or u.size < 2:
            raise InvalidDirectionError("direction must be a vector of length >= 2")
        if not np.all(np.isfinite(u)):
            raise InvalidDirectionError("direction has non-finite entries")
        if abs(np.linalg.norm(u) - 1.0) > constants.UNIT_NORM_TOL:
            raise InvalidDirectionError(
                f"direction must have unit norm, got {np.linalg.norm(u)!r}"
            )
        if not (0.0 < self.tau < 1.0):
            raise DomainError(f"depth must lie in (0, 1), got {self.tau!r}")

    @property
    def k(self) -> int:
        return self.u.size


@dataclass(frozen=True)
class OrthoBasis:
    """k x (k-1) matrix whose columns complete ``u`` to an orthonormal basis."""

    gamma: np.ndarray

    def __post_init__(self):
        g = np.atleast_2d(np.asarray(self.gamma, dtype=float))
        if g.shape[0] == 1 and g.shape[1] != 1:
            g = g.T
        object.__setattr__(self, "gamma", g)
        if not np.all(np.isfinite(g)):
            raise ShapeError("basis has non-finite entries")
        gram = g.T @ g
        if np.max(np.abs(gram - np.eye(g.shape[1]))) > constants.ORTHO_TOL:
            raise ShapeError("basis columns are not orthonormal")


@dataclass(frozen=True)
class Dataset:
    """Response matrix y (n x k) and covariate matrix x (n x p, p may be 0)."""

    y: np.ndarray
    x: np.ndarray = field(default=None)

    def __post_init__(self):
        y = np.atleast_2d(np.asarray(self.y, dtype=float))
        if self.x is None:
            x = np.zeros((y.shape[0], 0))
        else:
            x = np.asarray(self.x, dtype=float)
            if x.ndim == 1:
                x = x[:, None]
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        if y.ndim != 2 or y.shape[1] < 2:
            raise ShapeError("response must be an n x k matrix with k >= 2")
        if x.shape[0] != y.shape[0]:
            raise ShapeError(
                f"covariates have {x.shape[0]} rows but responses have {y.shape[0]}"
            )
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise ShapeError("data contains non-finite entries")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def k(self) -> int:
        return self.y.shape[1]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class ProjectedData:
    """Scalar projections y_u = u'Y and orthogonal projections y_perp = Gamma'Y."""

    y_u: np.ndarray
    y_perp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y_u", np.asarray(self.y_u, dtype=float))
        object.__setattr__(self, "y_perp", np.atleast_2d(np.asarray(self.y_perp, dtype=float)))
        if self.y_perp.shape[0] != self.y_u.shape[0]:
            raise ShapeError("projection row counts disagree")

    @property
    def n(self) -> int:
        return self.y_u.shape[0]


def orthonormal_complement(u, convention: str = "positive") -> OrthoBasis:
    """Complete a unit vector to an orthonormal basis and return the other columns.

    The construction is a Householder reflection mapping the first standard
    basis vector onto ``u``; columns 2..k of the reflection matrix span the
    complement.  It is deterministic: identical inputs give bit-identical
    output.

    For k = 2 the complement is one vector, ``+-(-u2, u1)``, and the sign is a
    pure convention (estimates and contours do not depend on it, chain
    coordinates do):

    - ``"positive"`` (default): flip the sign so the first nonzero entry is
      positive.
    - ``"householder"``: raw reflection output (sign depends on sign(u1),
      which keeps the construction cancellation-free).
    - ``"ccw"``: the counterclockwise perpendicular ``(-u2, u1)``.

    For k >= 3 only ``"householder"``/``"positive"`` are accepted (they
    coincide; no sign normalization is applied).
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 2:
        raise InvalidDirectionError("direction must be a vector of length >= 2")
    if abs(np.linalg.norm(u) - 1.0) > constants.UNIT_NORM_TOL:
        raise InvalidDirectionError("orthonormal_complement requires a unit vector")
    k = u.size
    if convention not in ("positive", "householder", "ccw"):
        raise DomainError(f"unknown basis convention {convention!r}")
    if convention == "ccw" and k != 2:
        raise DomainError("the 'ccw' convention is defined for k = 2 only")

    # reflect e1 onto -sign(u1) * u; adding sign(u1) * e1 avoids cancellation
    sign = 1.0 if u[0] >= 0 else -1.0
    v = u + sign * np.eye(k)[0]
    vnorm2 = float(v @ v)
    house = np.eye(k) - (2.0 / vnorm2) * np.outer(v, v)
    gamma = house[:, 1:].copy()

    if k == 2:
        if convention == "ccw":
            gamma = np.array([[-u[1]], [u[0]]])
        elif convention == "positive":
            col = gamma[:, 0]
            nz = np.nonzero(np.abs(col) > 0.0)[0]
            if nz.size and col[nz[0]] < 0:
                gamma = -gamma
    return OrthoBasis(gamma)


def project(data: Dataset, direction: Direction, basis: OrthoBasis | None = None) -> ProjectedData:
    """Project responses onto the direction and its orthonormal complement,
    by default ``orthonormal_complement(direction.u)``."""
    if direction.k != data.k:
        raise ShapeError("direction dimension does not match the data")
    gamma = (orthonormal_complement(direction.u) if basis is None else basis).gamma
    if gamma.shape != (data.k, data.k - 1):
        raise ShapeError(
            f"basis must be {data.k} x {data.k - 1}, got {gamma.shape}"
        )
    if np.max(np.abs(direction.u @ gamma)) > constants.ORTHO_TOL:
        raise ShapeError("basis is not orthogonal to the direction")
    return ProjectedData(y_u=data.y @ direction.u, y_perp=data.y @ gamma)


def unit_directions(count: int) -> list[np.ndarray]:
    """``count`` equally spaced unit vectors on the circle, angles 2*pi*j/count."""
    if count < 3:
        raise DomainError("at least 3 directions are required to bound a region")
    angles = 2.0 * np.pi * np.arange(count) / count
    return [np.array([np.cos(a), np.sin(a)]) for a in angles]
