"""Frequentist check-loss minimizers.

These serve two roles: MCMC initialization and an estimation oracle that is
independent of the samplers.  The solver replaces the kinked loss with a
Huberized version and shrinks the smoothing width over a fixed continuation
schedule, running a damped (Levenberg-regularized) Newton at each stage.
Inputs are standardized internally so the schedule is scale-appropriate.

A stage allocates its n-length buffers once and writes every elementwise
pass into them, because fresh n-length temporaries page-fault on first
touch: at n = 1e5 on a 2-vCPU x86_64 host, the loss with fresh temporaries
made 579 minor faults and took 1.9 ms per call, with reused buffers none
and 0.65 ms.

When no residual lies in the smoothing band |r| < eps, the Hessian is zero
and the damped step for lam_k = lam * 10^k is -grad / lam_k: every candidate
lies on one ray from theta.  The smoothed loss is convex, so along that ray
the accepted set {f_c <= f + 1e-12 max(1, |f|)} is an interval containing
theta, and acceptance is monotone in k.  A gallop-then-bisect search then
finds the smallest accepted k, the one the sequential scan takes, in fewer
loss evaluations.  Rounding cannot break that order: if step k is accepted,
convexity puts step k + 1, a tenth as long, at least 0.9 of the tolerance
1e-12 max(1, |f|) below the threshold, while summation and residual rounding
are about 1e-15 |f|.  With curvature in the band, the damping path is a
curve, not a ray, and the scan stays sequential.
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


def _smoothed_loss(r, w, tau, eps, a, q, inside):
    # sum_i w_i rho_tau(r_i), rho_tau(r) = (tau - 1/2) r + |r|/2 with |r|
    # Huberized at width eps; w is None for unit weights, and a, q and inside
    # are the stage's n-length scratch buffers
    np.abs(r, out=a)
    np.less_equal(a, eps, out=inside)
    np.multiply(r, r, out=q)
    q /= 2.0 * eps
    a -= eps / 2.0
    np.copyto(a, q, where=inside)
    a *= 0.5
    np.multiply(tau - 0.5, r, out=q)
    q += a
    if w is not None:
        q *= w
    return float(np.sum(q))


# damping exponents the zero-curvature search tries before bisecting
_GALLOP = (0, 1, 3, 7, 15, 31, 39)


def _newton_stage(z, y, tau, w, theta, eps, max_iter=60, gtol=1e-11):
    n, d = z.shape
    sw = float(np.sum(w))
    w_mul = w if np.any(w != 1.0) else None  # x * 1.0 == x: unit weights skip the multiplies
    lam = 1e-10
    z_t = z.T
    eye = np.eye(d)
    zero = np.zeros((d, d))
    r, r_c, a, q, g1, curv = (np.empty(n) for _ in range(6))
    inside = np.empty(n, dtype=bool)
    scaled = np.empty(z.shape)  # z * (w * curvature)[:, None]
    np.matmul(z, theta, out=r)
    np.subtract(y, r, out=r)
    f = _smoothed_loss(r, w_mul, tau, eps, a, q, inside)

    def attempt(hess, scale, lam_k):
        # the damped step at lam_k; on acceptance its residual becomes r
        nonlocal r, r_c
        try:
            step = np.linalg.solve(hess + lam_k * scale * eye, -grad)
        except np.linalg.LinAlgError:
            return None
        cand = theta + step
        np.matmul(z, cand, out=r_c)
        np.subtract(y, r_c, out=r_c)
        f_c = _smoothed_loss(r_c, w_mul, tau, eps, a, q, inside)
        if f_c > f + 1e-12 * max(1.0, abs(f)):
            return None
        r, r_c = r_c, r
        return cand, f_c

    it = 0
    for it in range(1, max_iter + 1):
        # r belongs to the current theta: the start or the last accepted
        # candidate; once grad and hess are formed, its buffer is free
        np.divide(r, eps, out=g1)
        np.clip(g1, -1.0, 1.0, out=g1)
        g1 *= 0.5
        g1 += tau - 0.5
        if w_mul is not None:
            g1 *= w
        grad = -(z_t @ g1)
        if np.max(np.abs(grad)) <= gtol * max(1.0, sw):
            return theta, f, it, True
        np.abs(r, out=a)
        np.less(a, eps, out=inside)
        found = None
        if inside.any():
            np.multiply(inside, 0.5 / eps, out=curv)
            if w_mul is not None:
                curv *= w
            np.multiply(z, curv[:, None], out=scaled)
            hess = scaled.T @ z
            scale = max(np.max(np.abs(np.diag(hess))), 1.0)
            for _ in range(40):
                found = attempt(hess, scale, lam)
                if found is not None:
                    break
                lam *= 10.0
        else:
            # zero curvature: every candidate is theta - grad / lam_k on one
            # ray, so acceptance is monotone in k (module docstring) and a
            # search finds the smallest accepted k that the scan would
            lams = [lam]
            for _ in range(39):
                lams.append(lams[-1] * 10.0)
            lo = -1  # the largest k known to be rejected
            for k in _GALLOP:
                found = attempt(zero, 1.0, lams[k])
                if found is not None:
                    break
                lo = k
            if found is not None:
                while k - lo > 1:
                    mid = (lo + k) // 2
                    closer = attempt(zero, 1.0, lams[mid])
                    if closer is None:
                        lo = mid
                    else:
                        found, k = closer, mid
                lam = lams[k]
        if found is None:
            return theta, f, it, False
        improved = f - found[1]
        theta, f = found
        lam = max(lam * 0.3, 1e-12)
        if improved <= 1e-14 * max(1.0, abs(f)):
            return theta, f, it, True
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
