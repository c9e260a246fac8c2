"""Asymmetric-Laplace working likelihoods and the normal-exponential mixture.

The scale parameter is fixed at 1 throughout estimation; the ``sigma``
argument of the density utilities exists for testing only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .geometry import Direction, ProjectedData, check_loss

__all__ = [
    "HyperplaneParams",
    "MixtureConstants",
    "ald_logpdf",
    "ald_cdf",
    "mixture_constants",
    "loglik_unconditional",
    "loglik_conditional",
]


@dataclass(frozen=True)
class HyperplaneParams:
    """Intercept, orthogonal-response slopes and covariate slopes of one hyperplane."""

    alpha: float
    beta_y: np.ndarray
    beta_x: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "beta_y", np.atleast_1d(np.asarray(self.beta_y, dtype=float)))
        bx = np.zeros(0) if self.beta_x is None else np.atleast_1d(np.asarray(self.beta_x, dtype=float))
        object.__setattr__(self, "beta_x", bx)
        if not (np.isfinite(self.alpha) and np.all(np.isfinite(self.beta_y)) and np.all(np.isfinite(self.beta_x))):
            raise ShapeError("hyperplane parameters must be finite")

    def as_vector(self) -> np.ndarray:
        """Stack as (beta_y, beta_x, alpha), the ordering used by the samplers."""
        return np.concatenate([self.beta_y, self.beta_x, [self.alpha]])

    @staticmethod
    def from_vector(theta, k: int, p: int) -> "HyperplaneParams":
        theta = np.asarray(theta, dtype=float)
        if theta.size != k + p:
            raise ShapeError(f"expected {k + p} parameters, got {theta.size}")
        return HyperplaneParams(
            alpha=float(theta[-1]), beta_y=theta[: k - 1], beta_x=theta[k - 1 : k - 1 + p]
        )


@dataclass(frozen=True)
class MixtureConstants:
    """eta and gamma of the representation eps = eta*W + gamma*sqrt(W)*U."""

    eta: float
    gamma: float


def mixture_constants(tau: float) -> MixtureConstants:
    """Constants making an Exp(1)/N(0,1) mixture marginally ALD(0, 1, tau)."""
    if not (0.0 < tau < 1.0):
        raise DomainError(f"tau must lie in (0, 1), got {tau!r}")
    return MixtureConstants(
        eta=(1.0 - 2.0 * tau) / (tau * (1.0 - tau)),
        gamma=float(np.sqrt(2.0 / (tau * (1.0 - tau)))),
    )


def ald_logpdf(y, mu, sigma: float, tau: float):
    """log density of the asymmetric Laplace distribution ALD(mu, sigma, tau)."""
    if sigma <= 0:
        raise DomainError(f"scale must be positive, got {sigma!r}")
    if not (0.0 < tau < 1.0):
        raise DomainError(f"tau must lie in (0, 1), got {tau!r}")
    y = np.asarray(y, dtype=float)
    return np.log(tau * (1.0 - tau) / sigma) - check_loss(y - mu, tau) / sigma


def ald_cdf(x, mu=0.0, sigma: float = 1.0, tau: float = 0.5):
    """Closed-form piecewise-exponential CDF of ALD(mu, sigma, tau)."""
    if sigma <= 0:
        raise DomainError(f"scale must be positive, got {sigma!r}")
    if not (0.0 < tau < 1.0):
        raise DomainError(f"tau must lie in (0, 1), got {tau!r}")
    z = (np.asarray(x, dtype=float) - mu) / sigma
    return np.where(
        z < 0,
        tau * np.exp(np.minimum((1.0 - tau) * z, 0.0)),
        1.0 - (1.0 - tau) * np.exp(-tau * np.maximum(z, 0.0)),
    )


def _linear_predictor(projected: ProjectedData, x, theta: HyperplaneParams) -> np.ndarray:
    x = np.zeros((projected.n, 0)) if x is None else np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] != projected.n:
        raise ShapeError("covariate rows do not match the projected data")
    if projected.y_perp.shape[1] != theta.beta_y.size or x.shape[1] != theta.beta_x.size:
        raise ShapeError("parameter dimensions do not match the data")
    return theta.alpha + projected.y_perp @ theta.beta_y + x @ theta.beta_x


def loglik_unconditional(projected: ProjectedData, x, theta: HyperplaneParams, direction: Direction) -> float:
    """Sum of ALD(., 1, tau) log densities of y_u at the hyperplane's predictor."""
    mu = _linear_predictor(projected, x, theta)
    return float(np.sum(ald_logpdf(projected.y_u, mu, 1.0, direction.tau)))


def loglik_conditional(y_u, design_matrix, theta, tau: float, weights) -> float:
    """Kernel-weighted ALD log likelihood with known heteroskedastic scale.

    Each observation i contributes log(tau*(1-tau)) + log(w_i) minus
    w_i times the check loss of its residual, w_i being the kernel weight.
    """
    if not (0.0 < tau < 1.0):
        raise DomainError(f"tau must lie in (0, 1), got {tau!r}")
    y_u = np.asarray(y_u, dtype=float)
    design_matrix = np.atleast_2d(np.asarray(design_matrix, dtype=float))
    weights = np.asarray(weights, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if design_matrix.shape != (y_u.size, theta.size) or weights.shape != y_u.shape:
        raise ShapeError("conditional likelihood inputs do not conform")
    if np.any(weights <= 0):
        raise DomainError("kernel weights must be strictly positive")
    resid = y_u - design_matrix @ theta
    return float(
        np.sum(np.log(tau * (1.0 - tau)) + np.log(weights) - weights * check_loss(resid, tau))
    )
