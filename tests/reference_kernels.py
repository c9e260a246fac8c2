"""The Gibbs sweep, nu = 1/2 GIG draw and Newton stage as first written.

Kept unchanged as the reference that ``test_kernel_parity.py`` holds the
library's kernels to: the library versions must return the same bytes from
the same inputs and random stream.  Edit nothing here when the library
kernels change; a kernel that is meant to change its output needs its own
stream contract and its own test.
"""

from __future__ import annotations

import numpy as np

from dirquant import constants
from dirquant.errors import DomainError, NumericalError


def sample_gig_half(a, b, rng, size=None):
    """Draw from the nu = 1/2 generalized inverse Gaussian distribution.

    The target density is proportional to x^(-1/2) * exp(-(a^2/x + b^2 x)/2)
    on x > 0.  The reciprocal of such a variable is inverse Gaussian with
    mean b/a and shape b^2, which is sampled exactly by the
    Michael-Schucany-Haas method; a = 0 degenerates to a Gamma(1/2) variable.
    Requires b > 0 (the density is not normalizable at b = 0 for this nu)
    and a >= 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a < 0) or np.any(b < 0):
        raise DomainError("GIG parameters must be nonnegative")
    if np.any(b == 0):
        raise DomainError("nu = 1/2 GIG requires b > 0 (density not normalizable at b = 0)")
    scalar = a.ndim == 0 and b.ndim == 0 and size is None
    if size is None:
        shape = np.broadcast_shapes(a.shape, b.shape)
    else:
        shape = (size,) if np.isscalar(size) else tuple(size)
    a = np.broadcast_to(a, shape).astype(float)
    b = np.broadcast_to(b, shape).astype(float)

    nu = rng.standard_normal(shape)
    u = rng.uniform(size=shape)
    y = nu * nu

    small = a <= b * 1e-150
    ab = np.where(small, 1.0, a * b)  # placeholder where the gamma limit is used
    root = np.sqrt(y * y + 4.0 * ab * y)
    # h = T/mu for the smaller inverse-Gaussian root; the rationalized form
    # 4ab*y / (y + root)^2 stays exact when 4ab*y underflows next to y^2
    denom = (y + root) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        h = np.where(y == 0.0, 1.0, 4.0 * ab * y / denom)
    accept = u <= 1.0 / (1.0 + h)
    ratio = np.where(small, 1.0, a / b)
    x = np.where(accept, ratio / h, ratio * h)
    x = np.where(small, (nu / b) ** 2, x)
    if scalar:
        return float(x)
    return x


def _gibbs_sweeps(blocks, n_draws, rng, thetas):
    """Shared Gibbs engine over independent parameter blocks.

    Each block is a dict with keys y, design, weights, eta, gamma, b_lat,
    prior_prec, prior_rhs.  Per sweep: all latent draws block by block, then
    all parameter draws block by block, so a single block consumes the stream
    exactly like a standalone run.
    """
    dims = [b["design"].shape[1] for b in blocks]
    out = np.empty((n_draws, int(np.sum(dims))))
    offsets = np.concatenate([[0], np.cumsum(dims)])
    for m in range(n_draws):
        latents = []
        for blk, theta in zip(blocks, thetas):
            resid = blk["y"] - blk["design"] @ theta
            a_lat = blk["weights"] * np.abs(resid) / blk["gamma"]
            w = sample_gig_half(a_lat, blk["b_lat"], rng)
            latents.append(np.maximum(w, constants.LATENT_FLOOR))
        for j, (blk, w) in enumerate(zip(blocks, latents)):
            kw = blk["weights"]
            gam2 = blk["gamma"] ** 2
            wq = kw * kw / (gam2 * w)
            prec = blk["prior_prec"] + (blk["design"] * wq[:, None]).T @ blk["design"]
            rhs = blk["prior_rhs"] + blk["design"].T @ (
                kw * (kw * blk["y"] - blk["eta"] * w) / (gam2 * w)
            )
            try:
                chol = np.linalg.cholesky(prec)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"conditional precision not positive definite in block {j} "
                    f"(sweep {m}): diag={np.diag(prec)!r}"
                ) from exc
            mean = np.linalg.solve(prec, rhs)
            theta = mean + np.linalg.solve(chol.T, rng.standard_normal(prec.shape[0]))
            thetas[j] = theta
            out[m, offsets[j] : offsets[j + 1]] = theta
    return out


def _smoothed_loss_terms(r, tau, eps):
    # rho_tau(r) = (tau - 1/2) r + |r|/2 with |r| Huberized at width eps
    a = np.abs(r)
    hub = np.where(a <= eps, r * r / (2.0 * eps), a - eps / 2.0)
    loss = (tau - 0.5) * r + 0.5 * hub
    dhub = np.clip(r / eps, -1.0, 1.0)
    grad = (tau - 0.5) + 0.5 * dhub
    curv = np.where(a < eps, 0.5 / eps, 0.0)
    return loss, grad, curv


def _newton_stage(z, y, tau, w, theta, eps, max_iter=60, gtol=1e-11):
    n = y.size
    sw = float(np.sum(w))
    lam = 1e-10
    loss, g1, _ = _smoothed_loss_terms(y - z @ theta, tau, eps)
    f = float(np.sum(w * loss))
    it = 0
    for it in range(1, max_iter + 1):
        r = y - z @ theta
        _, g1, c = _smoothed_loss_terms(r, tau, eps)
        grad = -(z.T @ (w * g1))
        if np.max(np.abs(grad)) <= gtol * max(1.0, sw):
            return theta, f, it, True
        hess = (z * (w * c)[:, None]).T @ z
        scale = max(np.max(np.abs(np.diag(hess))), 1.0)
        accepted = False
        for _ in range(40):
            try:
                step = np.linalg.solve(hess + lam * scale * np.eye(theta.size), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand = theta + step
            loss_c, _, _ = _smoothed_loss_terms(y - z @ cand, tau, eps)
            f_c = float(np.sum(w * loss_c))
            if f_c <= f + 1e-12 * max(1.0, abs(f)):
                improved = f - f_c
                theta, f = cand, f_c
                lam = max(lam * 0.3, 1e-12)
                accepted = True
                if improved <= 1e-14 * max(1.0, abs(f)):
                    return theta, f, it, True
                break
            lam *= 10.0
        if not accepted:
            return theta, f, it, False
    return theta, f, it, False
