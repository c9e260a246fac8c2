"""Closed forms the tests hold the program to.

The program never evaluates these: the samplers use the check loss only
through the normal-exponential mixture, and the fits through the smoothed
loss of ``optimize``.  They live here so that ``src/`` holds what the CLI
and the documented library API reach (``test_reachability.py``).

- ``check_loss``: the quantile loss rho_tau;
- ``ald_logpdf`` and ``ald_cdf``: the asymmetric Laplace ALD(mu, sigma, tau),
  at any scale sigma;
- ``loglik_unconditional`` and ``loglik_conditional``: the working
  likelihoods whose posteriors the Gibbs samplers draw from;
- ``read_chain``: the reader of ``io.write_chain``'s CSV and JSON pair;
- ``polygon_contains``: membership in a convex counterclockwise polygon.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from dirquant.ald import HyperplaneParams
from dirquant.contours import ContourPolygon
from dirquant.errors import DomainError, ShapeError
from dirquant.geometry import Direction, ProjectedData
from dirquant.samplers import Chain


def check_loss(x, tau: float):
    """Piecewise-linear quantile loss x * (tau - 1{x < 0})."""
    if not (0.0 < tau < 1.0):
        raise DomainError(f"tau must lie in (0, 1), got {tau!r}")
    x = np.asarray(x, dtype=float)
    return x * (tau - (x < 0))


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


def read_chain(csv_path: str, meta_path: str) -> Chain:
    """The chain ``io.write_chain`` wrote to this CSV and JSON pair."""
    with open(meta_path) as handle:
        meta = json.load(handle)
    with open(csv_path) as handle:
        reader = csv.reader(handle)
        names = tuple(next(reader))
        draws = np.array([[float(v) for v in row] for row in reader])
    return Chain(
        draws=draws,
        burn_in=int(meta["burn_in"]),
        seed=int(meta["seed"]),
        sampler=meta["sampler"],
        names=names,
        layout=tuple(meta["layout"]) if meta.get("layout") else None,
    )


def polygon_contains(polygon: ContourPolygon, point, tol: float = 1e-9) -> bool:
    """Membership in a convex counterclockwise polygon via edge cross products."""
    v = polygon.vertices
    if v.shape[0] < 3:
        return False
    p = np.asarray(point, dtype=float)
    nxt = np.roll(v, -1, axis=0)
    edge = nxt - v
    rel = p - v
    cross = edge[:, 0] * rel[:, 1] - edge[:, 1] * rel[:, 0]
    scale = np.maximum(np.linalg.norm(edge, axis=1), 1e-300)
    return bool(np.all(cross >= -tol * scale))
