"""Posterior summaries, asymptotic confidence intervals, and diagnostics.

The confidence intervals follow a sandwich construction for posteriors built
from a misspecified working likelihood: n times the chain covariance plays
the inverse-curvature role and the score covariance is the empirical
covariance of the per-row scores in response space, mapped into parameter
space by the basis.
The construction covers the location model (p = 0, k = 2) only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .ald import HyperplaneParams
from .errors import DomainError, ShapeError
from .geometry import Dataset, Direction, OrthoBasis, orthonormal_complement, project
from .samplers import Chain

__all__ = [
    "CiResult",
    "SubgradReport",
    "ChainSummary",
    "posterior_mean",
    "posterior_vector",
    "posterior_mcse",
    "lower_halfspace_indicator",
    "score_covariance_matrix",
    "asymptotic_ci",
    "naive_ci",
    "subgradient_diagnostics",
    "effective_sample_size",
    "split_rhat",
    "chain_diagnostics",
]


@dataclass(frozen=True)
class CiResult:
    estimate: np.ndarray
    std_error: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
    names: tuple = ()
    messages: tuple = ()


@dataclass(frozen=True)
class SubgradReport:
    """Empirical first and second subgradient statistics at a parameter value.

    sg1 is the fraction of observations in the open lower halfspace (tends to
    the depth tau at the population parameters); sg2 averages the stacked
    [y_perp, x] regressors over that halfspace (tends to tau times their
    overall mean).
    """

    sg1: float
    sg2: np.ndarray
    n: int


@dataclass(frozen=True)
class ChainSummary:
    ess: np.ndarray
    rhat: np.ndarray
    degenerate: np.ndarray
    n_draws: int


def posterior_vector(chain: Chain) -> np.ndarray:
    """Componentwise mean of the post-burn-in draws."""
    post = chain.post_burn()
    if post.shape[0] == 0:
        raise ShapeError("chain has no post-burn-in draws")
    return post.mean(axis=0)


def posterior_mcse(chain: Chain) -> np.ndarray:
    """Monte Carlo standard error of ``posterior_vector``, per coordinate:
    post-burn-in sd over the square root of the effective sample size.

    NaN for a constant coordinate or a chain with fewer than 4 kept draws.
    """
    post = chain.post_burn()
    if post.shape[0] < 4:
        return np.full(post.shape[1], np.nan)
    ess = np.array([effective_sample_size(post[:, j]) for j in range(post.shape[1])])
    return post.std(axis=0, ddof=1) / np.sqrt(ess)


def posterior_mean(chain: Chain):
    """Posterior mean; a HyperplaneParams when the chain layout is known."""
    vec = posterior_vector(chain)
    if chain.layout is not None:
        k, p = chain.layout
        return HyperplaneParams.from_vector(vec, k, p)
    return vec


def lower_halfspace_indicator(data: Dataset, direction: Direction, theta: HyperplaneParams, basis: OrthoBasis | None = None) -> np.ndarray:
    """Strict membership of each observation in the open lower quantile halfspace."""
    return _lower_halfspace(data, project(data, direction, basis), theta)


def _lower_halfspace(data: Dataset, projected, theta: HyperplaneParams) -> np.ndarray:
    resid = projected.y_u - theta.alpha - projected.y_perp @ theta.beta_y - data.x @ theta.beta_x
    return resid < 0.0


def subgradient_diagnostics(
    data: Dataset,
    direction: Direction,
    theta: HyperplaneParams,
    basis: OrthoBasis | None = None,
) -> SubgradReport:
    projected = project(data, direction, basis)
    below = _lower_halfspace(data, projected, theta)
    stacked = np.column_stack([projected.y_perp, data.x])
    return SubgradReport(
        sg1=float(np.mean(below)),
        sg2=stacked.T @ below / data.n,
        n=data.n,
    )


def score_covariance_matrix(data: Dataset, direction: Direction, theta: HyperplaneParams, basis: OrthoBasis | None = None) -> np.ndarray:
    """(k+1) x (k+1) score covariance in response space.

    The covariance (1/n convention) of the per-row scores
    psi_i = (tau - 1{i in the lower halfspace}) * (1, y_i): one estimator for
    every block, so the matrix is positive semidefinite however far the
    responses lie from the origin (Yang, Wang & He 2016, Int. Stat. Review
    84(3), take the same robust "meat").  Its lower-right block is the
    covariance of (tau - 1{lower halfspace}) * y.
    """
    tau = direction.tau
    below = lower_halfspace_indicator(data, direction, theta, basis=basis)
    s = tau - below.astype(float)
    g = s[:, None] * data.y
    g_centered = g - g.mean(axis=0)
    s_centered = s - s.mean()
    k = data.k
    out = np.empty((k + 1, k + 1))
    out[0, 0] = s_centered @ s_centered / data.n
    out[1:, 0] = out[0, 1:] = s_centered @ g_centered / data.n
    out[1:, 1:] = g_centered.T @ g_centered / data.n
    return out


def asymptotic_ci(
    chain: Chain,
    data: Dataset,
    direction: Direction,
    level: float = 0.95,
    basis: OrthoBasis | None = None,
) -> CiResult:
    """Sandwich confidence intervals for the location model from one chain.

    Refuses regression chains: the construction is derived for p = 0 only.
    """
    if not (0.0 < level < 1.0):
        raise DomainError("confidence level must lie in (0, 1)")
    if data.p != 0:
        raise DomainError(
            "asymptotic intervals are not supported by the method for p > 0"
        )
    if chain.layout is None or chain.layout != (data.k, 0):
        raise ShapeError("chain layout does not match a location-model fit")
    if data.k != 2:
        raise DomainError("interval construction is implemented for k = 2 only")
    if basis is None:
        basis = orthonormal_complement(direction.u)

    k = data.k
    post = chain.post_burn()
    n = data.n
    estimate = posterior_vector(chain)
    theta_hat = HyperplaneParams.from_vector(estimate, k, 0)
    messages = []

    centered = post - estimate
    v_mcmc = n * (centered.T @ centered / post.shape[0])
    if np.min(np.linalg.eigvalsh(v_mcmc)) <= 0:
        messages.append("chain covariance is singular; intervals may collapse")
        warnings.warn(messages[-1], RuntimeWarning, stacklevel=2)

    v_c = score_covariance_matrix(data, direction, theta_hat, basis=basis)

    # map response-space scores into (alpha, beta_y) coordinates
    j_mat = np.zeros((k + 1, k))
    j_mat[0, 0] = 1.0
    j_mat[1:, 1:] = basis.gamma
    middle = j_mat.T @ v_c @ j_mat

    # chain coordinates are (beta_y, alpha); permute to (alpha, beta_y)
    perm = np.zeros((k, k))
    perm[0, k - 1] = 1.0
    for j in range(k - 1):
        perm[1 + j, j] = 1.0
    v_mcmc_ab = perm @ v_mcmc @ perm.T
    v_tau_ab = v_mcmc_ab @ middle @ v_mcmc_ab
    v_tau = perm.T @ v_tau_ab @ perm  # back to chain order

    variances = np.diag(v_tau)
    bad = np.flatnonzero(variances <= 0)
    if bad.size:
        labels = [chain.names[j] for j in bad] if chain.names else bad.tolist()
        messages.append(f"sandwich variance is not positive for {labels}; their intervals collapse")
        warnings.warn(messages[-1], RuntimeWarning, stacklevel=2)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    std_error = np.sqrt(np.maximum(variances, 0.0) / n)
    return CiResult(
        estimate=estimate,
        std_error=std_error,
        lower=estimate - z * std_error,
        upper=estimate + z * std_error,
        level=level,
        names=chain.names,
        messages=tuple(messages),
    )


def naive_ci(chain: Chain, level: float = 0.95) -> CiResult:
    """Equal-tailed interval from the chain quantiles (no asymptotic correction)."""
    if not (0.0 < level < 1.0):
        raise DomainError("confidence level must lie in (0, 1)")
    post = chain.post_burn()
    lo = np.quantile(post, (1.0 - level) / 2.0, axis=0)
    hi = np.quantile(post, 1.0 - (1.0 - level) / 2.0, axis=0)
    return CiResult(
        estimate=posterior_vector(chain),
        std_error=post.std(axis=0, ddof=1),
        lower=lo,
        upper=hi,
        level=level,
        names=chain.names,
    )


def effective_sample_size(x) -> float:
    """ESS from the initial positive sequence of autocorrelation pairs.

    Returns NaN for a (numerically) constant sequence.
    """
    x = np.asarray(x, dtype=float)
    m = x.size
    if m < 4:
        raise ShapeError("need at least 4 draws for an ESS estimate")
    x = x - x.mean()
    var = float(x @ x) / m
    if var <= 1e-300 * max(1.0, float(np.max(np.abs(x), initial=0.0))):
        return float("nan")
    nfft = 1 << (2 * m - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:m].real / m
    rho = acov / acov[0]
    # sum consecutive pairs while they stay positive
    tau_int = -1.0
    for i in range(0, m - 1, 2):
        pair = rho[i] + rho[i + 1]
        if pair < 0.0:
            break
        tau_int += 2.0 * pair
    tau_int = max(tau_int, 1.0 / m)
    return float(m / tau_int)


def split_rhat(chains) -> float:
    """Potential scale reduction from split halves of one or more sequences."""
    halves = []
    for c in chains:
        c = np.asarray(c, dtype=float)
        half = c.size // 2
        if half < 2:
            raise ShapeError("sequences too short to split")
        halves.append(c[:half])
        halves.append(c[half : 2 * half])
    shortest = min(h.size for h in halves)
    arr = np.array([h[:shortest] for h in halves])
    m, n = arr.shape
    means = arr.mean(axis=1)
    variances = arr.var(axis=1, ddof=1)
    w = float(np.mean(variances))
    b = n * float(np.var(means, ddof=1))
    if w <= 1e-300:
        return float("nan")
    var_plus = (n - 1) / n * w + b / n
    return float(np.sqrt(var_plus / w))


def chain_diagnostics(chain: Chain, others=()) -> ChainSummary:
    """Per-coordinate ESS and split-Rhat over this chain (and optional extras)."""
    post = chain.post_burn()
    if post.shape[0] < 50:
        raise ShapeError("need at least 50 post-burn-in draws for diagnostics")
    seqs = [post] + [c.post_burn() for c in others]
    d = post.shape[1]
    ess = np.empty(d)
    rhat = np.empty(d)
    degenerate = np.zeros(d, dtype=bool)
    for j in range(d):
        ess[j] = effective_sample_size(post[:, j])
        degenerate[j] = not np.isfinite(ess[j])
        rhat[j] = split_rhat([s[:, j] for s in seqs])
    return ChainSummary(ess=ess, rhat=rhat, degenerate=degenerate, n_draws=post.shape[0])
