"""Prior elicitation for spherical depth contours and implied slope priors.

A prior centered on zero orthogonal-response slopes says the response has
spherical depth contours; the intercept magnitude is then the elicited
distance from the depth median to the contour.  Two worked families supply
that distance (standard normal, uniform ball); a custom radius covers
everything else.

The second half maps a normal prior on the slope/intercept pair into the
implied priors on the slope and intercept of y2 against y1: a shifted
reciprocal Gaussian and a ratio-of-normals density.
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
    "normal_cdf",
    "normal_radius",
    "uniform_ball_radius",
    "spherical_prior",
    "reciprocal_gaussian_pdf",
    "reciprocal_gaussian_modes",
    "reciprocal_gaussian_mode_ratio",
    "ratio_normals_pdf",
    "ratio_normals_location_scale",
    "ratio_normals_elliptical_approx",
    "ratio_normals_is_bimodal",
]

_STANDARD_NORMAL = NormalDist()


def normal_cdf(x):
    x = np.asarray(x, dtype=float)
    return np.vectorize(_STANDARD_NORMAL.cdf, otypes=[float])(x)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (``statistics.NormalDist``)."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile argument must lie in (0, 1), got {p!r}")
    return _STANDARD_NORMAL.inv_cdf(p)


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


def _implied_slope_parameters(mu_beta: float, sigma_beta: float, u) -> tuple[float, float, float]:
    """(a, b, pole) of the implied slope prior under the ccw complement (-u2, u1).

    With that basis u2_perp = u1, so a = mu*u1*u2_perp - u1*u2 and
    b = u1*u2_perp*sigma; the pole of the implied density sits at u2/u1
    (a basis-independent location).
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (2,):
        raise DomainError("implied priors are defined for k = 2")
    u1, u2 = float(u[0]), float(u[1])
    u2_perp = u1  # ccw complement (-u2, u1)
    if u1 == 0.0 or u2_perp == 0.0:
        raise DomainError("implied slope prior undefined when the direction has u1 = 0")
    if sigma_beta <= 0:
        raise DomainError("slope prior scale must be positive")
    a = mu_beta * u1 * u2_perp - u1 * u2
    b = abs(u1 * u2_perp * sigma_beta)
    return a, b, u2 / u1


def reciprocal_gaussian_pdf(phi, mu_beta: float, sigma_beta: float, u):
    """Implied density of the y2-on-y1 slope under a normal prior on beta_y.

    The slope of the fitted line in raw response coordinates is a smooth
    transformation of beta_y with a single pole; pushing the normal prior
    through it yields a shifted reciprocal Gaussian.
    """
    a, b, pole = _implied_slope_parameters(mu_beta, sigma_beta, u)
    phi = np.asarray(phi, dtype=float)
    t = phi - pole
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = 1.0 / (np.sqrt(2.0 * np.pi * b * b) * t * t)
        kernel = np.exp(-((1.0 / t - a) ** 2) / (2.0 * b * b))
        dens = scale * kernel
    # near the pole the kernel underflows to 0 long before t*t does, so where
    # scale overflows (and at the pole itself) the density takes its limit, 0
    return np.where(kernel == 0.0, 0.0, dens)


def reciprocal_gaussian_modes(mu_beta: float, sigma_beta: float, u) -> tuple[float, float]:
    a, b, pole = _implied_slope_parameters(mu_beta, sigma_beta, u)
    root = math.sqrt(a * a + 8.0 * b * b)
    m1 = (-a + root) / (4.0 * b * b) + pole
    m2 = (-a - root) / (4.0 * b * b) + pole
    return m1, m2


def reciprocal_gaussian_mode_ratio(mu_beta: float, sigma_beta: float, u) -> float:
    """Relative height of the two modes, as the closed form is printed.

    The printed exponential carries b^4 in its denominator; the ratio of the
    density evaluated at the two modes instead has 2*b^2 there.  This
    function reproduces the printed form; compare against the density at
    reciprocal_gaussian_modes to quantify the discrepancy.
    """
    a, b, _ = _implied_slope_parameters(mu_beta, sigma_beta, u)
    root = math.sqrt(a * a + 8.0 * b * b)
    pref = (a * a + a * root + 4.0 * b * b) / (a * a - a * root + 4.0 * b * b)
    return pref * math.exp(a * root / b**4)


def ratio_normals_pdf(phi, a_underline: float, b_underline: float):
    """Density of (Z1 + a)/(Z2 + b) with independent standard normals Z1, Z2."""
    phi = np.asarray(phi, dtype=float)
    a, b = float(a_underline), float(b_underline)
    q = np.sqrt(1.0 + phi * phi)
    c = (b + a * phi) / q
    # integral_0^c exp(-t^2/2) dt = sqrt(pi/2) * erf(c / sqrt(2))
    integ = math.sqrt(math.pi / 2.0) * np.vectorize(math.erf)(c / math.sqrt(2.0))
    return (
        math.exp(-0.5 * (a * a + b * b))
        / (math.pi * (1.0 + phi * phi))
        * (1.0 + c * np.exp(0.5 * c * c) * integ)
    )


def ratio_normals_location_scale(theta1, theta2, sigma1, sigma2, rho) -> tuple[float, float, float, float]:
    """Constants (a, b, c, d) with W1/W2 distributed as c*(Z1+a)/(Z2+b) + d."""
    if sigma1 <= 0 or sigma2 <= 0:
        raise DomainError("scales must be positive")
    if not (-1.0 < rho < 1.0):
        raise DomainError("correlation must lie in (-1, 1)")
    a = theta1 / sigma1
    b = theta2 / sigma2
    c = (sigma1 / sigma2) * math.sqrt(1.0 - rho * rho)
    d = c * rho / math.sqrt(1.0 - rho * rho)
    return a, b, c, d


def ratio_normals_elliptical_approx(a_underline: float, b_underline: float) -> tuple[float, float]:
    """Central tendency and squared dispersion of the near-elliptical regime.

    Valid for a < 2.256 and b > 4; outside that box the distribution is too
    far from elliptical for the fitted constants.
    """
    a, b = float(a_underline), float(b_underline)
    if not (a < 2.256 and b > 4.0):
        raise DomainError("elliptical approximation valid only for a < 2.256 and b > 4")
    mu = a / (1.01 * b - 0.2713)
    sigma_sq = (a * a + 1.0) / (b * b + 0.108 * b - 3.795) - mu * mu
    return mu, sigma_sq


def ratio_normals_is_bimodal(a_underline: float, b_underline: float, grid_size: int = 20001) -> bool:
    """Numerical mode count on a wide grid (no closed form exists)."""
    a, b = abs(float(a_underline)), abs(float(b_underline))
    span = 10.0 * (1.0 + a + b)
    grid = np.linspace(-span, span, grid_size)
    dens = ratio_normals_pdf(grid, a, b)
    interior = (dens[1:-1] > dens[:-2]) & (dens[1:-1] >= dens[2:])
    floor = float(dens.max()) * 1e-12
    return int(np.sum(interior & (dens[1:-1] > floor))) >= 2
