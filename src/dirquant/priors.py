"""Prior elicitation for spherical depth contours.

A prior centered on zero orthogonal-response slopes says the response has
spherical depth contours; the intercept magnitude is then the elicited
distance from the depth median to the contour.  Two worked families supply
that distance (standard normal, uniform ball); a custom radius covers
everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DomainError
from .samplers import PriorSpec

__all__ = [
    "SphericalPrior",
    "normal_quantile",
    "normal_radius",
    "uniform_ball_radius",
    "spherical_prior",
]

def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (``statistics.NormalDist``)."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile argument must lie in (0, 1), got {p!r}")
    return NormalDist().inv_cdf(p)


@dataclass(frozen=True)
class SphericalPrior:
    """Prior centered on spherical depth contours, realized as a PriorSpec."""

    tau: float
    family: str
    radius: float
    spec: PriorSpec


def normal_radius(tau: float) -> float:
    """Distance from the depth median to the tau contour of a standard normal."""
    if not (0.0 < tau < 0.5):
        raise DomainError("contour radius is defined for depth in (0, 0.5)")
    return normal_quantile(1.0 - tau)


def uniform_ball_radius(tau: float) -> float:
    """Contour radius for the uniform unit ball: solves
    arcsin(r) + r*sqrt(1-r^2) = pi*(0.5 - tau) by bisection."""
    if not (0.0 < tau < 0.5):
        raise DomainError("contour radius is defined for depth in (0, 0.5)")
    target = math.pi * (0.5 - tau)

    def f(r):
        return math.asin(r) + r * math.sqrt(1.0 - r * r) - target

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def spherical_prior(
    tau: float,
    family: str,
    k: int,
    p: int = 0,
    alpha_variance: float = 1000.0,
    beta_variance: float = 1000.0,
    radius: float | None = None,
) -> SphericalPrior:
    """Prior for (beta_y, beta_x, alpha) centered on spherical depth contours.

    The slope blocks are centered at zero; the intercept is centered at the
    signed contour distance (negative below the median for tau < 0.5,
    positive above for tau > 0.5).  ``alpha_variance`` expresses uncertainty
    about that distance, ``beta_variance`` the confidence in sphericity.
    """
    if k < 2:
        raise DomainError("response dimension must be at least 2")
    if alpha_variance <= 0 or beta_variance <= 0:
        raise DomainError("prior variances must be positive")
    tau_eff = min(tau, 1.0 - tau)
    if family == "standard-normal":
        r = 0.0 if tau == 0.5 else normal_radius(tau_eff)
    elif family == "uniform-ball":
        r = 0.0 if tau == 0.5 else uniform_ball_radius(tau_eff)
    elif family == "custom-radius":
        if radius is None or radius < 0:
            raise DomainError("custom-radius family needs a nonnegative radius")
        r = float(radius)
    else:
        raise DomainError(f"unknown prior family {family!r}")
    alpha_mean = r if tau > 0.5 else -r
    d = k + p
    mean = np.zeros(d)
    mean[-1] = alpha_mean
    cov = np.diag([beta_variance] * (d - 1) + [alpha_variance]).astype(float)
    return SphericalPrior(tau=tau, family=family, radius=r, spec=PriorSpec(mean=mean, covariance=cov))
