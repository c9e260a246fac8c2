"""Frequentist check-loss minimizers.

These serve two roles: MCMC initialization and an estimation oracle that is
independent of the samplers.  The solver replaces the kinked loss with a
Huberized version and shrinks the smoothing width over a fixed continuation
schedule, running a damped (Levenberg-regularized) Newton at each stage.
Inputs are standardized internally so the schedule is scale-appropriate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import constants
from .ald import HyperplaneParams
from .errors import DomainError, RankError, ShapeError
from .geometry import Dataset, Direction, OrthoBasis, check_loss, orthonormal_complement, project

__all__ = ["FitResult", "fit_check_loss", "frequentist_fit"]


@dataclass(frozen=True)
class FitResult:
    theta: object  # HyperplaneParams for hyperplane fits, ndarray for design-level fits
    objective: float
    iterations: int
    converged: bool
    stage_objectives: tuple = field(default=())


def _smoothed_loss(r, w, tau, eps):
    # sum_i w_i rho_tau(r_i), rho_tau(r) = (tau - 1/2) r + |r|/2 with |r|
    # Huberized at width eps
    a = np.abs(r)
    quad = np.multiply(r, r)
    quad /= 2.0 * eps
    inside = a <= eps
    hub = np.where(inside, quad, np.subtract(a, eps / 2.0, out=a))
    hub *= 0.5
    loss = np.multiply(tau - 0.5, r, out=quad)
    loss += hub
    loss *= w
    return float(np.sum(loss))


def _newton_stage(z, y, tau, w, theta, eps, max_iter=60, gtol=1e-11):
    sw = float(np.sum(w))
    lam = 1e-10
    z_t = z.T
    eye = np.eye(theta.size)
    scaled = np.empty(z.shape)  # z * (w * curvature)[:, None]
    r = z @ theta
    np.subtract(y, r, out=r)
    f = _smoothed_loss(r, w, tau, eps)
    it = 0
    for it in range(1, max_iter + 1):
        # the residual r belongs to the current theta: the start or the last
        # accepted candidate
        g1 = np.divide(r, eps)
        np.clip(g1, -1.0, 1.0, out=g1)
        g1 *= 0.5
        g1 += tau - 0.5
        g1 *= w
        grad = -(z_t @ g1)
        if np.max(np.abs(grad)) <= gtol * max(1.0, sw):
            return theta, f, it, True
        curv = np.where(np.abs(r) < eps, 0.5 / eps, 0.0)
        curv *= w
        np.multiply(z, curv[:, None], out=scaled)
        hess = scaled.T @ z
        scale = max(np.max(np.abs(np.diag(hess))), 1.0)
        accepted = False
        for _ in range(40):
            try:
                step = np.linalg.solve(hess + lam * scale * eye, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand = theta + step
            r_c = z @ cand
            np.subtract(y, r_c, out=r_c)
            f_c = _smoothed_loss(r_c, w, tau, eps)
            if f_c <= f + 1e-12 * max(1.0, abs(f)):
                improved = f - f_c
                theta, f, r = cand, f_c, r_c
                lam = max(lam * 0.3, 1e-12)
                accepted = True
                if improved <= 1e-14 * max(1.0, abs(f)):
                    return theta, f, it, True
                break
            lam *= 10.0
        if not accepted:
            return theta, f, it, False
    return theta, f, it, False


def fit_check_loss(design, y, tau, weights=None, schedule=constants.SMOOTHING_SCHEDULE):
    """Minimize sum_i w_i * rho_tau(y_i - design_i' theta) over theta.

    Returns a FitResult whose theta is the raw coefficient vector in design
    order, objective the unsmoothed weighted check loss at that vector, and
    stage_objectives the unsmoothed objective after each continuation stage.
    """
    if not (0.0 < tau < 1.0):
        raise DomainError(f"tau must lie in (0, 1), got {tau!r}")
    z = np.atleast_2d(np.asarray(design, dtype=float))
    y = np.asarray(y, dtype=float)
    n, d = z.shape
    if y.shape != (n,):
        raise ShapeError("response length does not match the design")
    if n <= d:
        raise DomainError(f"need more observations than parameters (n={n}, d={d})")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ShapeError("weight length does not match the design")
    if np.any(w < 0):
        raise DomainError("weights must be nonnegative")
    if np.linalg.matrix_rank(z) < d:
        raise RankError("design matrix is rank deficient")

    # standardize: center/scale non-constant columns and the response; without a
    # constant column centering would change the problem, so scale only
    col_mu = z.mean(axis=0)
    col_sd = z.std(axis=0)
    const_col = col_sd <= 1e-12 * (1.0 + np.abs(col_mu))
    if not np.any(const_col):
        col_mu = np.zeros(d)
        y_mu = 0.0
    else:
        y_mu = float(y.mean())
    col_mu = np.where(const_col, 0.0, col_mu)
    col_sd = np.where(const_col, 1.0, col_sd)
    y_sd = float(y.std())
    if y_sd <= 1e-300:
        y_sd = 1.0
    zs = (z - col_mu) / col_sd
    ys = (y - y_mu) / y_sd
    if np.any(const_col):
        zs[:, const_col] = z[:, const_col]

    # start from weighted least squares
    zw = zs * np.sqrt(w + 1e-300)[:, None]
    theta_s, *_ = np.linalg.lstsq(zw, ys * np.sqrt(w + 1e-300), rcond=None)

    total_iter = 0
    converged = True
    stage_obj = []
    for eps in schedule:
        theta_s, _, its, ok = _newton_stage(zs, ys, tau, w, theta_s, eps)
        total_iter += its
        converged = converged and ok
        stage_obj.append(float(np.sum(w * check_loss(ys - zs @ theta_s, tau))) * y_sd)

    # undo standardization: y = y_mu + y_sd * ys, z_j = col_mu_j + col_sd_j * zs_j
    theta = np.where(const_col, theta_s * y_sd, theta_s * y_sd / col_sd)
    shift = float(np.sum(np.where(const_col, 0.0, theta * col_mu)))
    if np.any(const_col):
        # absorb the response centering into the (first) constant column
        j = int(np.nonzero(const_col)[0][0])
        cval = z[0, j]
        theta[j] = theta[j] + (y_mu - shift) / cval
    objective = float(np.sum(w * check_loss(y - z @ theta, tau)))
    return FitResult(
        theta=theta,
        objective=objective,
        iterations=total_iter,
        converged=converged,
        stage_objectives=tuple(stage_obj),
    )


def frequentist_fit(
    data: Dataset,
    direction: Direction,
    weights=None,
    basis: OrthoBasis | None = None,
) -> FitResult:
    """Check-loss fit of the directional quantile hyperplane for one direction.

    The design is [y_perp, x, 1] so the coefficient order is
    (beta_y, beta_x, alpha), matching the samplers.
    """
    if basis is None:
        basis = orthonormal_complement(direction.u)
    projected = project(data, direction, basis)
    design = np.column_stack([projected.y_perp, data.x, np.ones(data.n)])
    raw = fit_check_loss(design, projected.y_u, direction.tau, weights=weights)
    params = HyperplaneParams.from_vector(raw.theta, data.k, data.p)
    return FitResult(
        theta=params,
        objective=raw.objective,
        iterations=raw.iterations,
        converged=raw.converged,
        stage_objectives=raw.stage_objectives,
    )
