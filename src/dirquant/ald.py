"""Hyperplane parameters and the asymmetric Laplace working likelihood's
normal-exponential mixture.

The scale parameter is fixed at 1 throughout estimation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

__all__ = ["HyperplaneParams", "MixtureConstants", "mixture_constants"]


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
